"""Canonical forms with signs, connectivity, and slice enumeration."""

import random
from itertools import combinations, combinations_with_replacement, permutations

import pytest

from liegraphs.graphs import (OrientedGraph, SignedCanonical, canonicalize,
                              enumerate_graphs, is_connected, perm_sign)


def test_no_tadpoles():
    with pytest.raises(ValueError):
        OrientedGraph(1, 2, ((1, 1),))
    with pytest.raises(ValueError):
        OrientedGraph(1, 2, ((1, 3),))


def test_double_edge_even_is_zero():
    g = OrientedGraph(2, 2, ((1, 2), (1, 2)))
    assert canonicalize(g).is_zero()
    assert canonicalize(g, permute_vertices=False).is_zero()


def test_theta_odd_survives():
    theta = OrientedGraph(1, 2, ((1, 2), (1, 2), (1, 2)))
    sc = canonicalize(theta)
    assert sc.sign == 1
    assert sc.canonical.edges == ((1, 2), (1, 2), (1, 2))


def test_double_edge_odd_gc_level_is_zero():
    # vertex swap has sgn -1 and flips both edges: odd automorphism
    g = OrientedGraph(1, 2, ((1, 2), (1, 2)))
    assert canonicalize(g).is_zero()
    assert not canonicalize(g, permute_vertices=False).is_zero()


def test_edge_flip_sign_odd():
    a = canonicalize(OrientedGraph(1, 2, ((1, 2),)), permute_vertices=False)
    b = canonicalize(OrientedGraph(1, 2, ((2, 1),)), permute_vertices=False)
    assert a.canonical == b.canonical
    assert a.sign == 1 and b.sign == -1


def test_edge_order_sign_even():
    e1, e2 = (1, 2), (2, 3)
    a = canonicalize(OrientedGraph(2, 3, (e1, e2)), permute_vertices=False)
    b = canonicalize(OrientedGraph(2, 3, (e2, e1)), permute_vertices=False)
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
        sc = canonicalize(OrientedGraph(2, 4, edges),
                          permute_vertices=False)
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
        sc = canonicalize(g, permute_vertices=True)
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


def test_enumerate_bounds():
    with pytest.raises(ValueError):
        enumerate_graphs(9, 1, 1)


def test_w5_support_graphs_connected():
    wheel = OrientedGraph(2, 6, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 1),
                                 (1, 6), (2, 6), (3, 6), (4, 6), (5, 6)))
    assert is_connected(wheel) and wheel.n_edges() == 10


def test_json_roundtrip():
    g = OrientedGraph(1, 3, ((1, 2), (3, 1)))
    assert OrientedGraph.from_json(g.to_json()) == g
