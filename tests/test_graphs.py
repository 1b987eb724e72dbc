"""Canonical forms with signs, connectivity, and slice enumeration."""

import hashlib
import json
import random
from functools import cache
from itertools import (combinations, combinations_with_replacement,
                       permutations, product)

import pytest

from liegraphs import graphs
from liegraphs.gra import GraElement
from liegraphs.graphs import (OrientedGraph, SignedCanonical, _normal_form,
                              canonicalize, enumerate_graphs, is_connected,
                              perm_sign)
from liegraphs.poly import OElement


def test_no_tadpoles():
    with pytest.raises(ValueError):
        OrientedGraph(1, 2, ((1, 1),))
    with pytest.raises(ValueError):
        OrientedGraph(1, 2, ((1, 3),))


def test_labels_are_ints_and_vertex_count_is_not_negative():
    for edge in ((1.7, 2), (1, 2.0), ("1", 2), (True, 2)):
        with pytest.raises(TypeError):
            OrientedGraph(1, 2, (edge,))
    with pytest.raises(ValueError):
        OrientedGraph(1, -1, ())
    assert OrientedGraph(1, 2, ([2, 1],)).edges == ((2, 1),)
    # d, the vertex count and an element's arity are ints, and a bool
    # is not one
    for bad in (1.5, 2.0, True, "1", None):
        with pytest.raises(TypeError):
            OrientedGraph(bad, 2, ())
        with pytest.raises(TypeError):
            OrientedGraph(1, bad, ())
        for cls in (GraElement, OElement):
            with pytest.raises(TypeError):
                cls(2, bad, {})
            with pytest.raises(TypeError):
                cls(bad, 1, {})


def fixed_labels(g):
    """The labelled (Gra_d) normal form of g, with its sign."""
    form, sign = _normal_form(g.d, g.edges)
    return SignedCanonical(OrientedGraph(g.d, g.n_vertices, form), sign)


def test_double_edge_even_is_zero():
    g = OrientedGraph(2, 2, ((1, 2), (1, 2)))
    assert canonicalize(g).is_zero()
    assert fixed_labels(g).is_zero()


def test_theta_odd_survives():
    theta = OrientedGraph(1, 2, ((1, 2), (1, 2), (1, 2)))
    sc = canonicalize(theta)
    assert sc.sign == 1
    assert sc.canonical.edges == ((1, 2), (1, 2), (1, 2))


def test_double_edge_odd_gc_level_is_zero():
    # vertex swap has sgn -1 and flips both edges: odd automorphism
    g = OrientedGraph(1, 2, ((1, 2), (1, 2)))
    assert canonicalize(g).is_zero()
    assert not fixed_labels(g).is_zero()


def test_edge_flip_sign_odd():
    a = fixed_labels(OrientedGraph(1, 2, ((1, 2),)))
    b = fixed_labels(OrientedGraph(1, 2, ((2, 1),)))
    assert a.canonical == b.canonical
    assert a.sign == 1 and b.sign == -1


def test_edge_order_sign_even():
    e1, e2 = (1, 2), (2, 3)
    a = fixed_labels(OrientedGraph(2, 3, (e1, e2)))
    b = fixed_labels(OrientedGraph(2, 3, (e2, e1)))
    assert a.canonical == b.canonical
    assert a.sign == -b.sign


def k4_edges():
    return tuple(combinations(range(1, 5), 2))


def test_tetrahedron_relabeling_sign_even():
    """Sign of a scrambled K4 equals the parity of the induced edge
    permutation (direct permutation-parity oracle)."""
    base = canonicalize(OrientedGraph(2, 4, k4_edges()))
    rng = random.Random(5)
    for _ in range(30):
        perm = list(range(1, 5))
        rng.shuffle(perm)
        sigma = {i + 1: perm[i] for i in range(4)}
        edges = tuple((sigma[t], sigma[h]) for t, h in k4_edges())
        sc = fixed_labels(OrientedGraph(2, 4, edges))
        # oracle: parity of the permutation sorting the relabeled edges
        norm = [(min(t, h), max(t, h)) for t, h in edges]
        order = sorted(range(6), key=lambda i: norm[i])
        expected = perm_sign([o + 1 for o in order])
        assert sc.sign == expected
        assert canonicalize(OrientedGraph(2, 4, edges)).canonical \
            == base.canonical


def random_graph(rng, d):
    n = rng.randint(2, 6)
    pairs = list(combinations(range(1, n + 1), 2))
    k = rng.randint(1, min(len(pairs), 7))
    if d % 2 == 0:
        edges = rng.sample(pairs, k)
    else:
        edges = [rng.choice(pairs) for _ in range(k)]
        edges = [e if rng.random() < 0.5 else (e[1], e[0]) for e in edges]
    return OrientedGraph(d, n, tuple(edges))


def scramble(g, rng):
    """Random relabeling + orientation change, with the relating sign."""
    perm = list(range(1, g.n_vertices + 1))
    rng.shuffle(perm)
    sigma = {i + 1: perm[i] for i in range(g.n_vertices)}
    sign = 1
    edges = [(sigma[t], sigma[h]) for t, h in g.edges]
    if g.d % 2 == 1:
        sign *= perm_sign(perm)
        flips = rng.sample(range(len(edges)), rng.randint(0, len(edges)))
        for i in flips:
            edges[i] = (edges[i][1], edges[i][0])
            sign *= -1
        rng.shuffle(edges)
    else:
        # swap two edges in the ordering an even or odd number of times
        for _ in range(rng.randint(0, 3)):
            if len(edges) >= 2:
                i, j = rng.sample(range(len(edges)), 2)
                edges[i], edges[j] = edges[j], edges[i]
                sign *= -1
    return OrientedGraph(g.d, g.n_vertices, tuple(edges)), sign


def test_canonicalize_congruence_random():
    """Related graphs share a canonical form with multiplicative signs."""
    rng = random.Random(13)
    checks = 0
    while checks < 500:
        d = rng.choice([1, 2])
        g = random_graph(rng, d)
        h, rel = scramble(g, rng)
        a = canonicalize(g)
        b = canonicalize(h)
        assert a.canonical == b.canonical
        if a.is_zero():
            assert b.is_zero()
        else:
            # g = a.sign * C and h = rel' * g => b.sign = rel * a.sign
            assert b.sign == rel * a.sign
        checks += 1


def test_canonicalize_congruence_even_multigraphs():
    """A d = 2 graph with a repeated edge is zero, and every relabeling
    of it still gets the one least form."""
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(3, 6)
        pairs = list(combinations(range(1, n + 1), 2))
        edges = [rng.choice(pairs) for _ in range(rng.randint(2, 7))]
        edges.append(rng.choice(edges))
        g = OrientedGraph(2, n, tuple(edges))
        h, _ = scramble(g, rng)
        a, b = canonicalize(g), canonicalize(h)
        assert a.is_zero() and b.is_zero()
        assert a.canonical == b.canonical


def test_canonical_of_canonical_is_plus_one():
    rng = random.Random(19)
    for _ in range(100):
        g = random_graph(rng, rng.choice([1, 2]))
        sc = canonicalize(g)
        if sc.is_zero():
            continue
        again = canonicalize(sc.canonical)
        assert again.canonical == sc.canonical and again.sign == 1


def test_is_connected():
    assert is_connected(OrientedGraph(1, 2, ((1, 2),)))
    assert not is_connected(OrientedGraph(1, 4, ((1, 2), (3, 4))))
    assert is_connected(OrientedGraph(1, 1, ()))
    assert is_connected(OrientedGraph(1, 4, ((3, 4), (1, 2), (4, 2))))
    assert not is_connected(OrientedGraph(1, 5, ((5, 4), (1, 2), (3, 1))))
    assert not is_connected(OrientedGraph(1, 3, ()))


def test_enumerate_v2_e1():
    for d in (1, 2):
        out = enumerate_graphs(2, 1, d, min_valence=1)
        assert len(out) == 1


def test_enumerate_contains_tetrahedron():
    out = enumerate_graphs(4, 6, 2, min_valence=3)
    assert any(g.edges == k4_edges() for g in out)


def test_enumerate_against_unpruned_oracle():
    """(v=3, e=3, d odd, min_valence=2) vs a brute-force oracle that
    canonicalizes by full S_v search without invariant pruning."""
    out = enumerate_graphs(3, 3, 1, min_valence=2)
    pairs = list(combinations(range(1, 4), 2))
    reps = set()
    for edges in combinations_with_replacement(pairs, 3):
        g = OrientedGraph(1, 3, edges)
        if any(v < 2 for v in g.valences()) or not is_connected(g):
            continue
        # orbit minimum over all relabelings, all flips normalized
        forms = {}
        for perm in permutations(range(1, 4)):
            sigma = {i + 1: perm[i] for i in range(3)}
            rel = [(sigma[t], sigma[h]) for t, h in edges]
            sign = perm_sign(perm) * (-1) ** sum(t > h for t, h in rel)
            form = tuple(sorted((min(t, h), max(t, h)) for t, h in rel))
            forms.setdefault(form, set()).add(sign)
        best = min(forms)
        if len(forms[best]) == 1:
            reps.add(best)
    assert {g.edges for g in out} == reps


def _all_subsets_enumeration(n_vertices, n_edges, d, min_valence,
                             connected):
    """The brute-force enumeration: every edge subset (multiset at odd
    d) of K_v, filtered and canonicalized one by one."""
    pairs = list(combinations(range(1, n_vertices + 1), 2))
    if d % 2 == 0:
        candidates = combinations(pairs, n_edges)
    else:
        candidates = combinations_with_replacement(pairs, n_edges)
    seen = {}
    for edges in candidates:
        g = OrientedGraph(d, n_vertices, edges)
        val = g.valences()
        if any(v < min_valence for v in val):
            continue
        if n_vertices > 1 and any(v == 0 for v in val):
            continue
        if connected and not is_connected(g):
            continue
        sc = canonicalize(g)
        if sc.is_zero():
            continue
        seen.setdefault(sc.canonical.edges, sc.canonical)
    return [seen[k] for k in sorted(seen)]


def test_enumerate_matches_all_subsets_oracle():
    """Edge augmentation over isomorphism classes returns exactly the
    list, in order, that brute force over all edge subsets returns."""
    for d in (1, 2):
        for mv in (0, 1, 3):
            for connected in (True, False):
                for v in range(1, 6):
                    for e in range(0, 8):
                        if not connected and (v, e) > (5, 5):
                            continue
                        assert enumerate_graphs(v, e, d, mv, connected) \
                            == _all_subsets_enumeration(v, e, d, mv,
                                                        connected), \
                            (d, mv, connected, v, e)


def test_enumerate_closed_under_canonicalize():
    for d, v, e in [(1, 3, 3), (2, 4, 4), (1, 4, 4)]:
        for g in enumerate_graphs(v, e, d, min_valence=1):
            again = canonicalize(g)
            assert again.sign == 1 and again.canonical == g


def test_enumerate_reads_signs_off_the_layers(monkeypatch):
    """enumerate_graphs makes no second search: it reads the sign of
    each class at d off the automorphisms its layer recorded, so it
    calls canonicalize zero times, and from a warm memo it searches
    nothing at all.  test_automorphism_verdict_matches_canonicalize is
    the oracle for the signs."""
    def searched(*args):
        raise AssertionError(f"searched {args}")

    for d in (1, 2):
        graphs._layer.cache_clear()
        monkeypatch.setattr(graphs, "canonicalize", searched)
        out = enumerate_graphs(5, 7, d, min_valence=1)
        monkeypatch.setattr(graphs, "_canonical_form", searched)
        assert out and enumerate_graphs(5, 7, d, min_valence=1) == out
        monkeypatch.undo()


def test_automorphism_verdict_matches_canonicalize():
    """A class of a slice is kept at d exactly when canonicalize gives
    its form sign +1 at d (sign 0 otherwise, never -1): every class of
    every gc slice up to (7, 12) and fcgc slice up to (6, 10), at d = 0
    and 2 on the simple layers and at d = 1 and 3 on both kinds."""
    checked = dropped = 0
    for need, top in ((3, (7, 12)), (1, (6, 10))):
        for n in range(1, top[0] + 1):
            for k in range(0, top[1] + 1):
                for simple in (True, False):
                    layer = graphs._layer(n, k, 0, simple,
                                          max(need, 1 if n > 1 else 0), True)
                    for form in layer:
                        for d in (0, 1, 2, 3) if simple else (1, 3):
                            kept = all(graphs._relabel_sign(d, form, a) == 1
                                       for a in layer[form])
                            sign = canonicalize(OrientedGraph(d, n, form)).sign
                            assert sign in (0, 1) and kept == (sign == 1), \
                                (form, d)
                            checked += 1
                            dropped += not kept
    assert checked > 15000 and dropped > 5000, (checked, dropped)


def test_enumerate_refuses_non_int_arguments():
    """Every count and d is checked up front: a str or a bool raises
    TypeError, naming the argument."""
    for args, name in (((3, 3, "2"), "d"), ((3, 3, True), "d"),
                       ((3.0, 3, 2), "n_vertices"), ((3, True, 2), "n_edges")):
        with pytest.raises(TypeError, match=name):
            enumerate_graphs(*args)
    with pytest.raises(TypeError, match="min_valence"):
        enumerate_graphs(3, 3, 2, min_valence="3")


def _slack(n, edges, need, connected):
    """Edges a graph must still gain to reach a slice, computed from
    scratch: half its missing edge ends, rounded up, and its components
    less one when connected."""
    val = [0] * (n + 1)
    for t, h in edges:
        val[t] += 1
        val[h] += 1
    lack = sum(max(0, need - x) for x in val[1:])
    parts = graphs._components(n, edges) - 1 if connected else 0
    return max((lack + 1) // 2, parts)


def test_layers_match_all_subsets_grouped_by_slack():
    """A layer is exactly the unsigned classes of every edge subset
    (multiset when not simple) of K_n with its edge count and slack:
    k <= 6 for n <= 5, and k <= 5 at n = 6, where the automorphism
    groups that prune the layers are richer."""
    for n in range(0, 7):
        pairs = list(combinations(range(1, n + 1), 2))
        for simple in (True, False):
            subsets = combinations if simple else \
                combinations_with_replacement
            for k in range(0, 7 if n < 6 else 6):
                classes = {canonicalize(OrientedGraph(1, n, edges))
                           .canonical.edges for edges in subsets(pairs, k)}
                for mv in (0, 1, 3):
                    need = max(mv, 1 if n > 1 else 0)
                    for connected in (True, False):
                        want = {}
                        for edges in classes:
                            m = _slack(n, edges, need, connected)
                            want.setdefault(m, set()).add(edges)
                        for m in range(0, 10):
                            got = graphs._layer(n, k, m, simple, need,
                                                connected)
                            assert got.keys() == want.get(m, set()), \
                                (n, k, m, simple, mv, connected)


def _generated(gens, n):
    """The group of permutations of 0..n generated by gens."""
    group = {tuple(range(n + 1))}
    todo = list(group)
    while todo:
        x = todo.pop()
        for g in gens:
            y = tuple(g[i] for i in x)
            if y not in group:
                group.add(y)
                todo.append(y)
    return group


def _relabeled(form, a):
    """The sorted edge tuple of a form relabelled by a."""
    return tuple(sorted((min(a[t], a[h]), max(a[t], a[h]))
                        for t, h in form))


def test_layer_automorphisms_fix_their_forms():
    """Every automorphism a layer records for a form permutes the
    labels 1..n and maps the form's edges onto themselves, on every
    layer of the gc and fcgc slices up to (6, 10) at both parities.  On
    the layers with n <= 5 and k <= 7 they generate the form's whole
    automorphism group, as the brute force over all relabelings finds
    it."""
    checked = 0
    for n in range(1, 7):
        relabelings = [(0, *p) for p in permutations(range(1, n + 1))]
        for simple in (True, False):
            for mv in (3, 1):
                need = max(mv, 1 if n > 1 else 0)
                for k in range(0, 11):
                    for m in range(0, 11 - k):
                        layer = graphs._layer(n, k, m, simple, need, True)
                        for form, auts in layer.items():
                            for a in auts:
                                assert a[0] == 0
                                assert sorted(a) == list(range(n + 1))
                                assert _relabeled(form, a) == form, \
                                    (form, a)
                                checked += 1
                            if n <= 5 and k <= 7:
                                whole = {a for a in relabelings
                                         if _relabeled(form, a) == form}
                                assert _generated(auts, n) == whole, form
    assert checked > 5000


@cache
def _whole_group(form, n):
    """The automorphisms of a form over S_n, by brute force."""
    return {a for a in ((0, *p) for p in permutations(range(1, n + 1)))
            if _relabeled(form, a) == form}


def test_layer_automorphisms_generate_the_group():
    """The automorphisms a layer records for a class generate its whole
    automorphism group, which the zero test at every d relies on: on
    every class of the gc and fcgc layers with n <= 5, k <= 8 and
    slack 0 or 1, at both parities."""
    checked = 0
    for n in range(1, 6):
        for simple in (True, False):
            for mv in (1, 3):
                need = max(mv, 1 if n > 1 else 0)
                for k in range(0, 9):
                    for m in (0, 1):
                        layer = graphs._layer(n, k, m, simple, need, True)
                        for form, auts in layer.items():
                            assert _generated(auts, n) \
                                == _whole_group(form, n), form
                            checked += 1
    assert checked > 1000, checked


def test_search_automorphisms_generate_the_group():
    """On the coarse forms of the seeded random graphs of
    test_canonicalize_congruence_random, odd-d multigraphs among them,
    the search's relabeling takes the coarse form to the form, and the
    automorphisms it found generate the form's whole group."""
    rng = random.Random(13)
    for _ in range(500):
        d = rng.choice([1, 2])
        g = random_graph(rng, d)
        h, _ = scramble(g, rng)
        for x in (g, h):
            n = x.n_vertices
            coarse, _, sizes = graphs._coarse_form(n, x.edges)
            form, a, auts = graphs._canonical_form(n, coarse, sizes)
            assert form == (coarse if a is None else _relabeled(coarse, a))
            assert _generated(auts, n) == _whole_group(form, n), (x, form)


def test_layers_search_few_children(monkeypatch):
    """The layers try one new edge per orbit of the parent's
    automorphisms, keep only children whose new edge has the largest
    valence pair, and search a child only when its coarse form is new
    to the layer: from an empty memo, the gc d=2 slice (7, 12) makes at
    most 750 canonical searches (5,166 when every distinct labelled
    child is searched, 886 before the coarse-form check)."""
    calls = []

    def spy(*args, _inner=graphs._canonical_form):
        calls.append(args[:2])
        return _inner(*args)

    graphs._layer.cache_clear()
    monkeypatch.setattr(graphs, "_canonical_form", spy)
    out = enumerate_graphs(7, 12, 2, min_valence=3)
    graphs._layer.cache_clear()
    assert len(out) == 6
    assert len(out) <= len(calls) <= 750, len(calls)


def test_layers_sign_nothing(monkeypatch):
    """A layer holds unsigned classes: building one from an empty memo
    takes no permutation sign, since its coarse forms know no d."""
    calls = []

    def spy(*args, _inner=graphs.perm_sign):
        calls.append(args)
        return _inner(*args)

    graphs._layer.cache_clear()
    monkeypatch.setattr(graphs, "perm_sign", spy)
    level = graphs._layer(6, 9, 0, True, 3, True)
    graphs._layer.cache_clear()
    assert level and calls == []


def test_enumerate_does_not_depend_on_the_memo_state():
    """One column enumerated with e ascending, with e descending, and
    each slice from an empty memo gives the same lists."""
    edges = range(3, 9)

    def column(order, clear_each):
        out = {}
        for e in order:
            if clear_each:
                graphs._layer.cache_clear()
            out[e] = enumerate_graphs(5, e, 1, min_valence=1)
        return out

    graphs._layer.cache_clear()
    up = column(edges, False)
    graphs._layer.cache_clear()
    down = column(reversed(edges), False)
    assert up == down == column(edges, True)


def test_next_slice_of_a_column_builds_one_diagonal():
    """After the slice (5, 7), the slice (5, 8) builds only its layers
    with k + m = 8, k = 0..8: nine memo misses."""
    graphs._layer.cache_clear()
    enumerate_graphs(5, 7, 1, min_valence=3)
    before = graphs._layer.cache_info().misses
    enumerate_graphs(5, 8, 1, min_valence=3)
    assert graphs._layer.cache_info().misses - before == 9


def test_enumerate_bounds():
    with pytest.raises(ValueError):
        enumerate_graphs(9, 1, 1)
    with pytest.raises(ValueError):
        enumerate_graphs(-1, 0, 1)
    with pytest.raises(ValueError):
        enumerate_graphs(2, -1, 1)


def test_w5_support_graphs_connected():
    wheel = OrientedGraph(2, 6, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 1),
                                 (1, 6), (2, 6), (3, 6), (4, 6), (5, 6)))
    assert is_connected(wheel) and wheel.n_edges() == 10


def test_json_roundtrip():
    g = OrientedGraph(1, 3, ((1, 2), (3, 1)))
    assert OrientedGraph.from_json(g.to_json()) == g


# -- the exhaustive canonical form, kept as the oracle of the pruned search

def _reference_canonicalize(g, permute_vertices=True):
    """(canonical edges, sign) by the exhaustive search that
    `canonicalize` replaced: one full normal form for every relabeling
    that respects the coarse vertex classes, or with permute_vertices
    false the labelled normal form alone."""
    n, odd = g.n_vertices, g.d % 2 == 1

    def normal_form(sigma):
        relabeled = [(sigma[t], sigma[h]) for t, h in g.edges]
        norm = [(min(t, h), max(t, h)) for t, h in relabeled]
        form = tuple(sorted(norm))
        if odd:
            return form, (-1) ** sum(1 for t, h in relabeled if t > h)
        if len(set(form)) < len(form):
            return form, None
        return form, perm_sign(norm)

    val = g.valences()
    adj = {v: [] for v in range(1, n + 1)}
    for t, h in g.edges:
        adj[t].append(val[h - 1])
        adj[h].append(val[t - 1])
    classes = {}
    for v in sorted(adj):
        classes.setdefault((val[v - 1], tuple(sorted(adj[v]))), []).append(v)
    classes = [classes[k] for k in sorted(classes)]
    blocks, pos = [], 1
    for cls in classes:
        block = range(pos, pos + len(cls))
        blocks.append([dict(zip(cls, perm)) for perm in permutations(block)])
        pos += len(cls)
    sigmas = [{v: v for v in range(1, n + 1)}]
    if permute_vertices:
        sigmas = ({k: v for part in parts for k, v in part.items()}
                  for parts in product(*blocks))
    best, signs = None, set()
    for sigma in sigmas:
        form, s = normal_form(sigma)
        if s is None:
            return form, 0
        if odd and permute_vertices:
            s *= perm_sign([sigma[v] for v in range(1, n + 1)])
        if best is None or form < best:
            best, signs = form, {s}
        elif form == best:
            signs.add(s)
    return best, signs.pop() if len(signs) == 1 else 0


def _agrees_with_reference(g):
    for permute, sc in ((True, canonicalize(g)), (False, fixed_labels(g))):
        assert (sc.canonical.edges, sc.sign) == \
            _reference_canonicalize(g, permute), (g, permute)


def _shuffled(g, rng):
    """g relabelled at random, with edges flipped and reordered."""
    perm = list(range(1, g.n_vertices + 1))
    rng.shuffle(perm)
    edges = [(perm[t - 1], perm[h - 1]) for t, h in g.edges]
    edges = [e[::-1] if rng.random() < 0.5 else e for e in edges]
    rng.shuffle(edges)
    return OrientedGraph(g.d, g.n_vertices, tuple(edges))


def test_canonicalize_matches_exhaustive_search_on_slice_generators():
    """Every generator of the gc and fcgc slices up to (6, 10), as
    listed and under seeded random relabelings, flips and reorders."""
    rng = random.Random(29)
    for d in (1, 2):
        for min_valence in (3, 1):
            for v in range(1, 7):
                for e in range(1, 11):
                    for g in enumerate_graphs(v, e, d, min_valence):
                        _agrees_with_reference(g)
                        _agrees_with_reference(_shuffled(g, rng))


def test_canonicalize_matches_exhaustive_search_on_large_classes():
    """Graphs whose coarse classes are large: the edgeless graphs, K4,
    K_{3,3} and the cube, at both parities and relabelled."""
    cube = ((1, 2), (2, 3), (3, 4), (4, 1), (5, 6), (6, 7), (7, 8), (8, 5),
            (1, 5), (2, 6), (3, 7), (4, 8))
    shapes = [(n, ()) for n in range(8)] + [
        (4, k4_edges()),
        (6, tuple((i, j) for i in (1, 2, 3) for j in (4, 5, 6))),
        (8, cube)]
    rng = random.Random(31)
    for n, edges in shapes:
        for d in (1, 2):
            g = OrientedGraph(d, n, edges)
            _agrees_with_reference(g)
            _agrees_with_reference(_shuffled(g, rng))


# sha256 of json.dumps([g.to_json() for g in out], sort_keys=True) for
# out = enumerate_graphs(v, e, d, min_valence=3), computed at commit
# 956874b with the exhaustive canonical form
ENUMERATION_DIGESTS = {
    (6, 10, 1): "7589d20d5124d13bb613c0a2ceb810e416bb9b21d6e424d5b60fe2c638645212",
    (6, 10, 2): "a20db84d7ac5e28e3d73e9da68ddd5429b8692656f57cc863cee1f0ec45b0e2f",
    (7, 12, 1): "75e5a89af5702f86443e1efc424e121af659c6a9bc6501fbe8c2f39cd7399b71",
    (7, 12, 2): "7ac85258972378423a79c53c7cf7cc7822c780854792b5671c3bd751f04b73bf",
}


@pytest.mark.parametrize("v,e,d", sorted(ENUMERATION_DIGESTS))
def test_enumeration_digest_pinned(v, e, d):
    out = enumerate_graphs(v, e, d, min_valence=3)
    blob = json.dumps([g.to_json() for g in out], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == \
        ENUMERATION_DIGESTS[(v, e, d)]
