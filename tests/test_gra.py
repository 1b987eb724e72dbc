"""Gra_d operad: composition, symmetric action, Lie morphism."""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from liegraphs.gra import (GraElement, compose, element, gra_image,
                           s_action, unit)
from liegraphs.graphs import OrientedGraph, _normal_form
from liegraphs.lie import normalize


def graph(d, n, *edges):
    return OrientedGraph(d, n, tuple(edges))


def test_path_compose_edge_four_terms():
    """Path (edges 1-2, 1-3) o_1 single edge = the displayed 4-term sum."""
    for d in (1, 2):
        path = element(graph(d, 3, (1, 2), (1, 3)))
        edge = element(graph(d, 2, (1, 2)))
        got = compose(path, 1, edge)
        want = GraElement(4, d, {})
        for a in (1, 2):
            for b in (1, 2):
                want = want + element(graph(d, 4, (a, 3), (b, 4), (1, 2)))
        assert len(got.terms) == 4
        assert got == want


def test_compose_unit():
    rng = random.Random(3)
    for d in (1, 2):
        g = element(graph(d, 3, (1, 2), (2, 3))) \
            + element(graph(d, 3, (1, 3), (2, 3))).scaled(Fraction(-2))
        for i in (1, 2, 3):
            assert compose(g, i, unit(d)) == g
        assert compose(unit(d), 1, g) == g


def test_compose_index_range():
    d = 1
    e = GraElement.bracket(d)
    with pytest.raises(ValueError):
        compose(e, 3, e)
    with pytest.raises(ValueError, match="parity"):
        compose(e, 1, GraElement.bracket(2))
    for i in (True, 1.0, "1", None):
        with pytest.raises(TypeError, match="index"):
            compose(e, i, e)


def _raw_gra(rng, d, arity):
    """Up to three terms with raw edge lists: edges drawn with
    repetition, in random order and direction, so parallel edges occur
    at even d and reversed ones at odd d."""
    pairs = list(combinations(range(1, arity + 1), 2))
    terms = {}
    for _ in range(rng.randint(1, 3)):
        edges = [rng.choice(pairs) for _ in range(rng.randint(0, 3))] \
            if pairs else []
        edges = tuple(e if rng.random() < 0.5 else e[::-1] for e in edges)
        g = graph(d, arity, *edges)
        terms[g] = terms.get(g, 0) + rng.randint(-2, 2)
    return GraElement(arity, d, terms)


def test_compose_matches_canonicalize_oracle():
    """The composition path that reattaches every edge one target at a
    time and normalizes the result with the labels fixed, restated
    here."""
    rng = random.Random(29)
    zero_cases = 0
    for _ in range(150):
        d = rng.choice([1, 2])
        a = _raw_gra(rng, d, rng.randint(1, 3))
        b = _raw_gra(rng, d, rng.randint(1, 3))
        i = rng.randint(1, a.arity)
        v2, n = b.arity, a.arity + b.arity - 1
        shift = {v: v if v < i else v + v2 - 1 for v in range(1, a.arity + 1)}
        want, zero = {}, False
        for G1, c1 in a.terms.items():
            for G2, c2 in b.terms.items():
                ends = sum(v == i for e in G1.edges for v in e)
                for targets in product(range(i, i + v2), repeat=ends):
                    it = iter(targets)
                    edges = [tuple(next(it) if v == i else shift[v]
                                   for v in e) for e in G1.edges]
                    edges += [(t + i - 1, h + i - 1) for t, h in G2.edges]
                    form, sign = _normal_form(d, edges)
                    zero |= sign == 0
                    if sign:
                        g = OrientedGraph(d, n, form)
                        want[g] = want.get(g, 0) + sign * c1 * c2
        got = compose(a, i, b)
        assert got == GraElement(n, d, want)
        assert got.to_json() == GraElement(n, d, want).to_json()
        # the result keys, wrapped without a check, are valid graphs
        for g in got.terms:
            assert type(g) is OrientedGraph
            assert g == OrientedGraph(g.d, g.n_vertices, g.edges)
        zero_cases += zero and d == 2
    assert zero_cases >= 20


def test_sequential_associativity_edges():
    for d in (1, 2):
        e = GraElement.bracket(d)
        # operad axiom (a o_i b) o_j c = a o_i (b o_{j-i+1} c) at i=1, j=2
        lhs = compose(compose(e, 1, e), 2, e)
        rhs = compose(e, 1, compose(e, 2, e))
        assert lhs == rhs


def random_gra(rng, d, arity, n_edges=None):
    """Random element homogeneous in edge count (edges have odd degree
    for d even, so Koszul signs depend on it)."""
    pairs = list(combinations(range(1, arity + 1), 2))
    if not pairs:
        return unit(d).scaled(Fraction(rng.randint(-2, 2)))
    k = n_edges if n_edges is not None else rng.randint(1, min(4, len(pairs)))
    out = GraElement(arity, d, {})
    for _ in range(rng.randint(1, 2)):
        if d % 2 == 0:
            edges = rng.sample(pairs, min(k, len(pairs)))
        else:
            edges = [rng.choice(pairs) for _ in range(k)]
            edges = [e if rng.random() < 0.5 else (e[1], e[0])
                     for e in edges]
        out = out + element(graph(d, arity, *edges),
                            Fraction(rng.randint(-2, 2)))
    return out


def edge_count(g):
    return next(iter(g.terms)).n_edges() if g.terms else 0


def test_operad_axioms_random():
    rng = random.Random(7)
    trials = 0
    while trials < 60:
        d = rng.choice([1, 2])
        m = rng.randint(2, 4)
        a = random_gra(rng, d, m)
        b = random_gra(rng, d, rng.randint(1, 3))
        c = random_gra(rng, d, rng.randint(1, 3))
        i = rng.randint(1, m)
        # nested: j inside b
        j = rng.randint(i, i + b.arity - 1)
        lhs = compose(compose(a, i, b), j, c)
        rhs = compose(a, i, compose(b, j - i + 1, c))
        assert lhs == rhs
        # disjoint slots, with the Koszul sign (-1)^(|b||c|) where the
        # degree of a homogeneous element is (1-d) * edge count
        if m >= 2:
            p, q = sorted(rng.sample(range(1, m + 1), 2))
            lhs2 = compose(compose(a, p, b), q + b.arity - 1, c)
            rhs2 = compose(compose(a, q, c), p, b)
            if (1 - d) * edge_count(b) * (1 - d) * edge_count(c) % 2 == 1:
                rhs2 = rhs2.scaled(Fraction(-1))
            assert lhs2 == rhs2
        trials += 1


def test_s_action_examples():
    e1 = GraElement.bracket(1)
    assert s_action(e1, (1, 2)) == e1
    assert s_action(e1, (2, 1)) == e1.scaled(Fraction(-1))
    e2 = GraElement.bracket(2)
    assert s_action(e2, (2, 1)) == e2


def test_s_action_rejects_non_permutations():
    e = GraElement.bracket(1)
    for sigma in ((2, 3), (0, 2), (1, 1), (1,), (1, 2, 3)):
        with pytest.raises(ValueError, match="not a permutation"):
            s_action(e, sigma)
    assert s_action(e, [2, 1]) == s_action(e, (2, 1))


def test_s_action_composes():
    rng = random.Random(11)
    for _ in range(30):
        d = rng.choice([1, 2])
        m = rng.randint(2, 4)
        g = random_gra(rng, d, m)
        s = list(range(1, m + 1))
        t = list(range(1, m + 1))
        rng.shuffle(s)
        rng.shuffle(t)
        ts = [t[s[i] - 1] for i in range(m)]  # t after s
        assert s_action(s_action(g, s), t) == s_action(g, ts)


def test_equivariance():
    rng = random.Random(13)
    for _ in range(25):
        d = rng.choice([1, 2])
        m = rng.randint(2, 3)
        k = rng.randint(1, 3)
        a = random_gra(rng, d, m)
        b = random_gra(rng, d, k)
        i = rng.randint(1, m)
        tau = list(range(1, k + 1))
        rng.shuffle(tau)
        # a o_i (tau . b) = tau' . (a o_i b), tau' acting on the block
        block = list(range(1, m + k))
        for j in range(k):
            block[i - 1 + j] = i - 1 + tau[j]
        lhs = compose(a, i, s_action(b, tau))
        rhs = s_action(compose(a, i, b), block)
        assert lhs == rhs


def test_lie_to_gra_display():
    assert list(GraElement.bracket(1).terms) == [graph(1, 2, (1, 2))]
    assert list(GraElement.bracket(2).terms) == [graph(2, 2, (1, 2))]


def test_jacobi_image_is_zero():
    """Each Jacobi summand is normalized on its own; their images must
    cancel in Gra, so the induced map kills the relator."""
    relator = [(1, (2, 3)), (2, (3, 1)), (3, (1, 2))]
    for d in (1, 2):
        raw = GraElement(3, d, {})
        for tree in relator:
            raw = raw + gra_image(normalize(tree, d))
        assert raw.is_zero()


def test_lie_to_gra_is_operad_morphism():
    """gra_image intertwines graft with Gra composition through arity 4.

    graft uses the unsuspended (d = 1) sign rule, so for even d the
    comparison carries the operadic suspension sign (-1)^((i-1)(k-1)).
    """
    from liegraphs.lie import LieElement, basis_words, graft
    rng = random.Random(17)
    for _ in range(30):
        d = rng.choice([1, 2])
        m = rng.randint(2, 3)
        k = rng.randint(2, 3)
        if m + k - 1 > 4:
            k = 2
        x = LieElement(m, {w: Fraction(rng.randint(-2, 2))
                           for w in rng.sample(basis_words(m), 1)}, d)
        y = LieElement(k, {w: Fraction(rng.randint(-2, 2))
                           for w in rng.sample(basis_words(k), 1)}, d)
        i = rng.randint(1, m)
        lhs = gra_image(graft(x, i, y))
        rhs = compose(gra_image(x), i, gra_image(y))
        if d % 2 == 0 and (i - 1) * (k - 1) % 2 == 1:
            rhs = rhs.scaled(Fraction(-1))
        assert lhs == rhs
        # the sign-free form: the suspension sign is inside compose
        assert gra_image(x.compose(i, y)) \
            == gra_image(x).compose(i, gra_image(y))


def test_compose_never_tadpoles():
    rng = random.Random(19)
    for _ in range(30):
        d = rng.choice([1, 2])
        a = random_gra(rng, d, rng.randint(2, 3))
        b = random_gra(rng, d, rng.randint(1, 3))
        out = compose(a, rng.randint(1, a.arity), b)
        for g in out.terms:
            assert all(t != h for t, h in g.edges)


def test_degree_is_shared_by_the_terms():
    """degree() is (1 - d) times the edge count that every term shares,
    0 for the zero element; terms of two edge counts have none."""
    for d in (1, 2):
        assert GraElement.bracket(d).degree() == 1 - d
        assert GraElement(2, d, {}).degree() == 0
        with pytest.raises(ValueError, match="inhomogeneous"):
            (element(graph(d, 2)) + GraElement.bracket(d)).degree()


def test_json_roundtrip():
    rng = random.Random(23)
    for _ in range(10):
        g = random_gra(rng, rng.choice([1, 2]), 3)
        assert GraElement.from_json(g.to_json()) == g


def test_json_refuses_graph_of_other_shape():
    g = element(OrientedGraph(1, 3, ((1, 2), (2, 3))))
    for key, value in (("d", 2), ("arity", 4)):
        rec = dict(g.to_json(), **{key: value})
        with pytest.raises(ValueError):
            GraElement.from_json(rec)
    # the shape is checked before any graph is compared with it
    with pytest.raises(TypeError, match="not an int"):
        GraElement.from_json(dict(g.to_json(), arity="3"))
    # with no graph to compare against, the shape itself is checked
    for key, value, error in (("arity", "3", TypeError),
                              ("arity", -1, ValueError),
                              ("d", "1", TypeError)):
        rec = dict(g.to_json(), terms=[], **{key: value})
        with pytest.raises(error):
            GraElement.from_json(rec)


def test_element_refuses_graph_of_other_shape():
    """The constructor checks each graph's d as well as its vertex
    count, as from_json does."""
    for g in (OrientedGraph(2, 2, ((1, 2),)), OrientedGraph(1, 3, ((1, 2),))):
        with pytest.raises(ValueError, match="shape"):
            GraElement(2, 1, {g: 1})
    assert GraElement(2, 2, {OrientedGraph(2, 2, ((1, 2),)): 1}).d == 2
