"""Deformation complexes and graph complexes: differentials, slices,
witness classes."""

import ast
import math
import pathlib
import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from liegraphs import defcx, gra, graphs, lie, linalg, poly
from liegraphs.defcx import (SliceBasis, build_slice, cohomology_rank,
                             def_degree, def_differential,
                             five_wheel_cocycle, gc_differential,
                             gc_differential_combo, map_F, symmetrize,
                             tetrahedron, theta_def_element, theta_graph)
from liegraphs.gra import GraElement, compose as gra_compose
from liegraphs.gra import element as gra_element
from liegraphs.graphs import (OrientedGraph, canonicalize, enumerate_graphs,
                              perm_sign)
from liegraphs.lie import LieElement, basis_words, normalize, word_to_tree
from liegraphs.linalg import SparseMatrix
from liegraphs.poly import OElement, make_term


def _relabel_tree(tree, mapping):
    """The tree with every leaf replaced by its image under `mapping`:
    a leaf rewrite of the tests' own, beside `lie.refill`."""
    if isinstance(tree, tuple):
        return (_relabel_tree(tree[0], mapping),
                _relabel_tree(tree[1], mapping))
    return mapping[tree]


def _add_class(out, graph, coeff):
    """The per-graph oracle of `graphs.classes`: add coeff times the
    class of one labelled graph to out."""
    sc = canonicalize(graph)
    if not sc.is_zero():
        linalg._add(out, sc.canonical, sc.sign * coeff)


def _slice_terms(n, k, d):
    """The connected terms of the def-olie slice (n, k)."""
    return [t for t in poly.terms(n, k, d) if poly.is_connected_term(n, t)]


def test_symmetrize_is_projector():
    rng = random.Random(3)
    for d in (1, 2):
        x = make_term(2, d, [(1, 2), (1, 2)]) \
            + make_term(2, d, [(1, 2, 2)], Fraction(2))
        p = symmetrize(x)
        assert symmetrize(p) == p
        y = LieElement(3, {(1, 2, 3): Fraction(1)}, d)
        q = symmetrize(y)
        assert symmetrize(q) == q
        g = gra_element(OrientedGraph(d, 3, ((1, 2), (2, 3))))
        r = symmetrize(g)
        assert symmetrize(r) == r


def _full_symmetrize(x):
    """The projector by its definition: the average of x.act(sigma) over
    all of S_n, each twisted by perm_sign(sigma) at odd d."""
    n, out = x.arity, {}
    for sigma in permutations(range(1, n + 1)):
        sign = perm_sign(list(sigma)) if x.d % 2 == 1 else 1
        linalg._axpy(out, sign, x.act(sigma).terms)
    return x.with_terms(out).scaled(Fraction(1, math.factorial(n)))


def test_symmetrize_matches_full_sum():
    """The staged sum over cosets equals the n!-term sum on raw def-olie
    terms through (3,3) and their brackets with mu, Lie words through
    arity 4 and labelled graphs with v <= 4, e <= 4, at d = 1 and 2."""
    inputs = []
    for d in (1, 2):
        for n in range(1, 4):
            for k in range(4):
                for t in _slice_terms(n, k, d):
                    x = OElement(n, d, {t: 1}, "lie")
                    inputs += [x, defcx._bracket_mu(x)[0]]
        for n in range(1, 5):
            inputs += [LieElement(n, {w: 1}, d) for w in basis_words(n)]
        for v in range(1, 5):
            for e in range(5):
                inputs += [gra_element(OrientedGraph(d, v, g.edges))
                           for g in enumerate_graphs(v, e, 1,
                                                     connected=False)]
    assert len(inputs) == 272
    for x in inputs:
        assert symmetrize(x) == _full_symmetrize(x)


def test_symmetrize_cost(monkeypatch):
    """Stage k of the symmetrizer acts by k - 1 cycles, so an arity-n
    element costs 1 + n(n-1)/2 calls of the action, not n!."""
    calls = []
    act = poly.s_action

    def counted(x, sigma):
        calls.append(sigma)
        return act(x, sigma)

    monkeypatch.setattr(poly, "s_action", counted)
    for n in range(2, 6):
        calls.clear()
        path = [(j, j + 1) for j in range(1, n)]
        symmetrize(make_term(n, 2, path))
        assert len(calls) == 1 + n * (n - 1) // 2


def test_def_degree_anchors():
    # the bracket generator sits in degree 1 in every target
    for d in (1, 2):
        for cls in (LieElement, GraElement, OElement):
            assert def_degree(cls.bracket(d)) == 1
    assert def_degree(theta_def_element()) == 1
    assert def_degree(gra_element(theta_graph())) == 1
    assert def_degree(gra_element(tetrahedron())) == 0


def test_differential_raises_degree():
    # smallest invariant elements with nonzero differential per parity
    for d, key in ((1, (3, 3)), (2, (2, 3))):
        x = build_slice("def-olie", d, key).basis[0]
        dx = def_differential(x)
        assert not dx.is_zero()
        assert def_degree(dx) == def_degree(x) + 1


def test_bare_white_hits_corolla():
    """The differential of the single bare slot is the binary corolla —
    the anchor identity pinning both bracket slots of the formula."""
    for d in (1, 2):
        bare = OElement(1, d, {(): Fraction(1)}, "lie")
        assert def_differential(bare) == make_term(2, d, [(1, 2)])


def test_bracket_generator_closed():
    for d in (1, 2):
        for cls in (LieElement, GraElement, OElement):
            mu = cls.bracket(d)
            assert def_differential(mu).is_zero()


def test_theta_def_element():
    th = theta_def_element()
    assert symmetrize(th) == th
    assert def_differential(th).is_zero()
    assert map_F(th) == gra_element(theta_graph())
    # components with three or more slots die under the projection
    assert map_F(make_term(3, 1, [(1, 2, 3)])).is_zero()


def test_def_olie_d_squared_zero():
    for d in (1, 2):
        for n, k in ((1, 0), (2, 1), (2, 2), (3, 2)):
            sl = build_slice("def-olie", d, (n, k))
            for x in sl.basis:
                assert def_differential(def_differential(x)).is_zero()


def test_chain_map_to_graphs():
    """map_F intertwines the polydifferential and graph differentials."""
    rng = random.Random(7)
    for d in (1, 2):
        for n, k in ((2, 1), (2, 2), (3, 2)):
            sl = build_slice("def-olie", d, (n, k))
            for x in sl.basis[:3]:
                assert map_F(def_differential(x)) \
                    == def_differential(map_F(x))


def test_gc_d_squared_zero_small():
    for d in (1, 2):
        for mv in (1, 3):
            for v in range(1, 5):
                for e in range(1, 7):
                    for g in enumerate_graphs(v, e, d, min_valence=mv):
                        assert gc_differential_combo(
                            gc_differential(g, mv), mv) == {}


def test_gc_matches_symmetrized_oracle():
    """The class-level differential agrees with the deformation-complex
    differential of the symmetrized representative."""
    cases = [(1, 3, ((1, 2), (1, 3), (2, 3))),
             (1, 2, ((1, 2), (1, 2))),
             (1, 3, ((1, 2), (1, 3), (2, 3), (2, 3))),
             (2, 3, ((1, 2), (2, 3))),
             (2, 4, ((1, 2), (2, 3), (3, 4), (1, 4)))]
    for d, n, edges in cases:
        g = OrientedGraph(d, n, edges)
        x = symmetrize(gra_element(g))
        dx = def_differential(x)
        out = {}
        for G, c in dx.terms.items():
            _add_class(out, G, c)
        assert out == gc_differential(g, 1)


def _split_weights(x, d):
    """The formula before the shared bracket: the sign (-1)^{|x|} and
    the weights c_i of the splittings x o_i mu, or None when they
    vanish (d odd, n even)."""
    n = x.arity
    sign = Fraction((-1) ** (def_degree(x) % 2))
    if d % 2 == 1 and n % 2 == 0:
        return None
    return [sign * (Fraction(1) if d % 2 == 0
                    else Fraction((-1) ** (i + 1), n))
            for i in range(1, n + 1)]


def _oracle_def_differential(x, d):
    """delta(Px) = P(mu o_1 x + mu o_2 x) - P(sum_i c_i x o_i mu), with
    the two parts symmetrized apart."""
    mu = type(x).bracket(d)
    out = symmetrize(mu.compose(1, x) + mu.compose(2, x))
    weights = _split_weights(x, d)
    if weights is None:
        return out
    splits = None
    for i, w in enumerate(weights, 1):
        piece = x.compose(i, mu).scaled(w)
        splits = piece if splits is None else splits + piece
    return out - symmetrize(splits)


def _oracle_gc_differential(g, min_valence):
    """Attachments minus weighted splittings on a labelled
    representative, reduced to classes."""
    d = g.d
    e = gra_element(g)
    mu = GraElement.bracket(d)
    raw = gra_compose(mu, 1, e) + gra_compose(mu, 2, e)
    for v, w in enumerate(_split_weights(e, d) or (), 1):
        raw = raw - gra_compose(e, v, mu).scaled(w)
    out = {}
    for G, c in raw.terms.items():
        _add_class(out, G, c)
    return {G: c for G, c in out.items()
            if min(G.valences()) >= min_valence}


def test_bracket_mu_matches_split_formula():
    """One symmetrizer over the whole bracket with mu gives the
    differential that symmetrizes its two parts apart, on the def
    bases, on theta and on the graph generators."""
    elements = [(theta_def_element(), 1)]
    for d in (1, 2):
        for n in range(1, 4):
            for k in range(4):
                pairs = defcx._slice_basis("def-olie", d, (n, k),
                                           linalg.Echelon())
                elements += [(x, d) for x, _ in pairs]
        for n in range(2, 6):
            pairs = defcx._slice_basis("def-lie", d, (n,), linalg.Echelon())
            elements += [(x, d) for x, _ in pairs]
    assert len(elements) == 32
    for x, d in elements:
        assert def_differential(x) == _oracle_def_differential(x, d)
    graphs = 0
    for d in (1, 2):
        for mv in (1, 3):
            for v in range(1, 6):
                for e in range(1, 8):
                    for g in enumerate_graphs(v, e, d, min_valence=mv):
                        graphs += 1
                        assert gc_differential(g, mv) \
                            == _oracle_gc_differential(g, mv)
    assert graphs > 100


def test_word_action_matches_uncached_normalize():
    """The cached relabelling of Lie words agrees with normalizing the
    relabelled tree, for every basis word of arity <= 5 and every
    permutation; for d even the action is twisted by the sign."""
    lie._word_action.cache_clear()
    for d in (1, 2):
        for n in range(2, 6):
            for w in basis_words(n):
                x = LieElement(n, {w: Fraction(1)}, d)
                for sigma in permutations(range(1, n + 1)):
                    tree = _relabel_tree(word_to_tree(w),
                                         dict(enumerate(sigma, 1)))
                    want = normalize(tree, d)
                    if d % 2 == 0:
                        want = want.scaled(perm_sign(list(sigma)))
                    got = x.act(sigma)
                    assert got == want and got.d == d
    info = lie._word_action.cache_info()
    assert info.currsize == info.misses == sum(
        len(basis_words(n)) * math.factorial(n) for n in range(2, 6))
    assert info.hits == info.misses


def test_gc_differential_reduces_only_kept_terms(monkeypatch):
    """Valences survive relabelling, so the trivalent differential
    drops a term with a vertex of valence < 3 before reducing it to its
    class: no such term reaches the coarse form or the search that
    reduces a coarse group, and the result is still the oracle's.  Each
    generator has a vertex of valence >= 4, whose splittings can stay
    trivalent."""
    gens = enumerate_graphs(5, 8, 1, 3) + enumerate_graphs(6, 10, 2, 3)
    want = [_oracle_gc_differential(g, 3) for g in gens]
    assert len(gens) == 5 and all(want)
    seen = {"_coarse_form": [], "_signed_class": []}

    def spying(name):
        inner = getattr(graphs, name)
        first = 1 if name == "_signed_class" else 0  # d comes first

        def spy(*args):
            n, edges = args[first:first + 2]
            seen[name].append(OrientedGraph(0, n, edges))  # for valences
            return inner(*args)
        return spy

    for name in seen:
        monkeypatch.setattr(graphs, name, spying(name))
    assert [gc_differential(g, 3) for g in gens] == want
    for terms in seen.values():
        assert terms and all(min(G.valences()) >= 3 for G in terms)


def test_gc_differential_groups_match_per_term_reduction(monkeypatch):
    """Summing the labelled terms by coarse form before one search per
    group gives the differential that reducing every kept term to its
    class one by one gives, on every generator of the gc and fcgc
    slices up to (6, 10) at d = 1 and 2.  The bracket with mu is
    computed once and shared by both reductions."""
    images = []

    def spy(x, _inner=defcx._bracket_mu):
        images.append(_inner(x))
        return images[-1]

    monkeypatch.setattr(defcx, "_bracket_mu", spy)
    checked = 0
    for mv in (1, 3):
        for d in (1, 2):
            for v in range(1, 7):
                for e in range(1, 11):
                    for g in enumerate_graphs(v, e, d, min_valence=mv):
                        images.clear()
                        got = gc_differential(g, mv)
                        (image, w), = images
                        out = {}
                        for G, c in image.terms.items():
                            if mv <= 1 or min(G.valences()) >= mv:
                                _add_class(out, G, c)
                        assert got == {G: linalg._exact(Fraction(c, w))
                                       for G, c in out.items()}, g
                        checked += 1
    assert checked == 4482


def test_gc_attachment_and_splitting_shape():
    """d = 2 single edge: attachments and splittings both land on the
    two-edge path, with the attachment pair contributing twice."""
    g = OrientedGraph(2, 2, ((1, 2),))
    img = gc_differential(g, 1)
    path = OrientedGraph(2, 3, ((1, 2), (1, 3)))
    assert set(img) <= {OrientedGraph(2, 3, ((1, 2), (1, 3))),
                        OrientedGraph(2, 3, ((1, 2), (2, 3))),
                        OrientedGraph(2, 3, ((1, 3), (2, 3)))}
    # all three-vertex paths are one unlabeled class
    assert len(img) <= 1
    # closed in the trivalent complex
    assert gc_differential(g, 3) == {}


def test_theta_witness():
    th = theta_graph()
    assert gc_differential(th, 3) == {}
    sl = build_slice("gc", 1, (2, 3))
    assert list(sl.basis) == [th]
    assert cohomology_rank("gc", 1, (2, 3)) == (1, 0, 1)


def test_tetrahedron_witness():
    w3 = tetrahedron()
    assert gc_differential(w3, 3) == {}
    sl = build_slice("gc", 2, (4, 6))
    assert w3 in sl.basis
    assert cohomology_rank("gc", 2, (4, 6)) == (1, 0, 1)


def test_five_wheel_witness():
    w5 = five_wheel_cocycle()
    assert len(w5) == 2
    assert Fraction(5, 2) in {abs(c) for c in w5.values()}
    assert gc_differential_combo(w5, 3) == {}


def _matrix(sl):
    """The slice's differential as a SparseMatrix, one column per
    generator and one row per term its images reach, in term order."""
    rows = sorted({t for image in sl.images for t in image})
    index = {t: i for i, t in enumerate(rows)}
    return SparseMatrix.from_columns(
        [{index[t]: c for t, c in image.items()} for image in sl.images],
        len(rows), n_cols=len(sl.basis))


def test_five_wheel_slice():
    """The (6,10) slice of GC_2 has one class, spanned by the five-wheel
    cocycle: the wheel plus 5/2 times its correction graph, which is
    also the slice's witness."""
    chain = defcx.Chain("gc", 2)
    assert chain.cohomology((6, 10)) == (1, 0, 1)
    sl = chain.slice((6, 10))
    kernel = linalg.kernel_basis(_matrix(sl))
    coeffs = {sl.basis.index(g): c for g, c in five_wheel_cocycle().items()}
    assert kernel == [coeffs]
    assert chain.witness((6, 10)) == five_wheel_cocycle()


def test_def_lie_cohomology_small():
    for d in (1, 2):
        total = 0
        for n in (2, 3, 4):
            k, im, coh = cohomology_rank("def-lie", d, n)
            total += coh
        assert total == 1  # only the bracket-rescaling class survives


def test_slice_bounds():
    with pytest.raises(ValueError):
        build_slice("gc", 1, (9, 3))
    with pytest.raises(ValueError):
        build_slice("fcgc", 1, (3, 15))
    with pytest.raises(ValueError):
        build_slice("def-olie", 1, (5, 2))
    with pytest.raises(ValueError):
        build_slice("def-lie", 1, (7,))
    # the differential leaves the grid: its successor (3, 5) is outside
    with pytest.raises(ValueError):
        build_slice("def-olie", 2, (2, 4))
    with pytest.raises(ValueError):
        build_slice("nope", 1, (2, 2))


def test_grid_edge_raises_at_first_image(monkeypatch):
    """At the grid edge the slice stops at the first nonzero image,
    before it computes any more of them.  Each image follows its
    generator at once, so the edge slice sums one orbit of its 225 raw
    terms, not all of them."""
    differential, orbit_sum = defcx.def_differential, defcx._orbit_sum
    seen, events = [], []

    def recorded(x):
        events.append("image")
        out = differential(x)
        seen.append(out.terms)
        return out

    def counted(x):
        events.append("orbit")
        return orbit_sum(x)

    monkeypatch.setattr(defcx, "def_differential", recorded)
    monkeypatch.setattr(defcx, "_orbit_sum", counted)
    with pytest.raises(ValueError, match="left the slice grid"):
        build_slice("def-olie", 2, (3, 4))
    assert seen and seen[-1] and not any(seen[:-1])
    assert len(seen) == 1 and events[:2] == ["orbit", "image"]


def test_def_slices_compose_and_act_on_integers(monkeypatch):
    """Building the def slices sums orbits in integers and divides once
    at the end: every element the compositions and actions see has
    integer coefficients, though the generators carry 1/n!."""
    coeffs = []

    def spied(fn):
        def wrapped(*args):
            for a in args:
                if isinstance(a, linalg.Combination):
                    coeffs.extend(a.terms.values())
            return fn(*args)
        return wrapped

    monkeypatch.setattr(poly, "s_action", spied(poly.s_action))
    monkeypatch.setattr(poly, "o_compose", spied(poly.o_compose))
    monkeypatch.setattr(lie, "graft", spied(lie.graft))
    monkeypatch.setattr(LieElement, "act", spied(LieElement.act))
    slices = []
    for d in (1, 2):
        chain = defcx.Chain("def-olie", d)
        slices += [chain.slice((2, 2)), chain.slice((3, 3)),
                   defcx.Chain("def-lie", d).slice(4)]
    assert any(type(c) is Fraction for sl in slices for x in sl.basis
               for c in x.terms.values())
    assert len(coeffs) > 1000
    assert all(type(c) is int for c in coeffs)


def test_chain_checks_square_zero(monkeypatch):
    """A differential corrupted on one slice breaks d o d = 0; the chain
    reports that as a library fault, not as bad input."""
    theta = theta_graph()
    # a generator of the successor slice with a nonzero differential
    hot = OrientedGraph(1, 3, ((1, 3), (2, 3), (2, 3), (2, 3)))
    differential = defcx.gc_differential

    def corrupted(x, min_valence):
        out = differential(x, min_valence)
        if x == theta:
            out[hot] = out.get(hot, 0) + 1
        return out

    cohomology_rank("fcgc", 1, (3, 4))  # the true differential passes
    # the images of fcgc d=1 (3,3) are not in the span of the generators
    # of fcgc d=2 (4,4), which does not follow it: the check fails at
    # their coordinates, before any product
    with pytest.raises(ArithmeticError):
        defcx._check_square_zero(build_slice("fcgc", 1, (3, 3)),
                                 build_slice("fcgc", 2, (4, 4)))
    monkeypatch.setattr(defcx, "gc_differential", corrupted)
    with pytest.raises(ArithmeticError):
        cohomology_rank("fcgc", 1, (3, 4))


def test_a_table_computes_each_differential_once(monkeypatch):
    """A chain is the one store of its table's differentials: building
    the slices of a gc and a def-olie table at d = 2 asks
    gc_differential or def_differential once per generator, in basis
    order, and the table's cohomology and witnesses ask neither."""
    calls = []
    for name in ("gc_differential", "def_differential"):
        def spy(x, *rest, _inner=getattr(defcx, name)):
            calls.append(x)
            return _inner(x, *rest)
        monkeypatch.setattr(defcx, name, spy)
    for complex_id, keys in (("gc", product(range(1, 7), range(1, 11))),
                             ("def-olie", product(range(1, 4), range(4)))):
        chain = defcx.Chain(complex_id, 2)
        calls.clear()
        slices = [chain.slice(key) for key in keys]
        gens = [x for sl in slices for x in sl.basis]
        assert gens and calls == gens
        for sl in slices:
            chain.cohomology(sl.key)
            chain.witness(sl.key)
        assert len(calls) == len(gens)


def _greedy_basis(complex_id, d, key):
    """The slice basis chosen the slow way: keep a symmetrized term when
    it raises the rank of the matrix of the terms kept so far."""
    n = key[0]
    if complex_id == "def-olie":
        terms = _slice_terms(n, key[1], d)
    else:
        terms = basis_words(n)
    index = {t: i for i, t in enumerate(terms)}
    elements, cols = [], []
    for t in terms:
        x = symmetrize(OElement(n, d, {t: Fraction(1)}, "lie")
                       if complex_id == "def-olie"
                       else LieElement(n, {t: Fraction(1)}, d))
        vec = {index[tt]: c for tt, c in x.terms.items()}
        if vec and linalg.rank(SparseMatrix.from_columns(
                cols + [vec], len(terms))) > len(cols):
            cols.append(vec)
            elements.append(x)
    return elements, index, SparseMatrix.from_columns(cols, len(terms))


def test_invariant_basis_matches_greedy_rank():
    """The incremental echelon keeps the same generators as the rank
    test on growing matrices.  The slice keeps each generator's image,
    and its rank is that of the matrix solved for column by column in
    the successor's generators."""
    cases = [("def-olie", d, (n, k)) for d in (1, 2) for n in (1, 2)
             for k in range(4)]
    cases += [("def-lie", d, (n,)) for d in (1, 2) for n in (2, 3, 4)]
    for complex_id, d, key in cases:
        chain = defcx.Chain(complex_id, d)
        sl = chain.slice(key)
        gens, _, _ = _greedy_basis(complex_id, d, key)
        assert list(sl.basis) == gens
        succ = tuple(k + 1 for k in key)
        succ_gens, index, span = _greedy_basis(complex_id, d, succ) \
            if chain.in_bounds(succ) else ([], {}, SparseMatrix(0, 0, []))
        cols = []
        assert len(sl.images) == len(gens)
        for x, new_image in zip(gens, sl.images):
            image = def_differential(x).terms
            vec = {index[t]: c for t, c in image.items()}
            col = linalg.solve(span, vec)
            assert col is not None and span.mul_vector(col) == vec
            cols.append(col)
            assert new_image == image
        assert chain.rank(sl) == linalg.rank(SparseMatrix.from_columns(
            cols, len(succ_gens) if gens else 0, n_cols=len(gens)))


def test_graph_slice_rows_drop_empty_rows():
    """For the graph complexes a slice's images are the columns of the
    matrix over the successor's generators, and they reach its nonempty
    rows only: some, not all, of the successor's generators."""
    for complex_id, d, key in (("gc", 1, (3, 8)), ("fcgc", 1, (3, 6)),
                               ("fcgc", 2, (4, 5)), ("fcgc", 2, (5, 6))):
        sl = build_slice(complex_id, d, key)
        mv = 3 if complex_id == "gc" else 1
        succ = enumerate_graphs(key[0] + 1, key[1] + 1, d, min_valence=mv)
        old = SparseMatrix.from_columns(
            [{succ.index(g): c for g, c in gc_differential(x, mv).items()}
             for x in sl.basis], len(succ), n_cols=len(sl.basis))
        kept = [i for i, r in enumerate(old.rows) if r]
        assert 0 < len(kept) < len(succ)
        assert {t for image in sl.images for t in image} \
            == {succ[i] for i in kept}
        assert _matrix(sl).rows == tuple(old.rows[i] for i in kept)


def test_witness_skips_an_exact_first_kernel_vector(monkeypatch):
    """A hand-made chain a -> (b1, b2, b3) -> c with d a = 2 b1 and
    d b3 = c: the first kernel vector of the middle slice, b1, is
    exact, so the witness is b2.  The cohomology and the witness read
    one elimination per slice, made once."""
    gens = {(1, 1): ["a"], (2, 2): ["b1", "b2", "b3"], (3, 3): ["c"]}
    diff = {"a": {"b1": 2}, "b1": {}, "b2": {}, "b3": {"c": 1}, "c": {}}

    def slice_basis(complex_id, d, key, span):
        for g in gens.get(key, []):
            if span.add({g: 1}):
                yield g, diff[g]

    calls = []

    def column_echelon(columns, _inner=linalg._column_echelon):
        calls.append(columns)
        return _inner(columns)

    monkeypatch.setattr(defcx, "_slice_basis", slice_basis)
    monkeypatch.setattr(linalg, "_column_echelon", column_echelon)
    chain = defcx.Chain("fcgc", 1)
    chain.slice((3, 3))
    assert chain.cohomology((2, 2)) == (2, 1, 1)
    assert len(calls) == 2
    assert chain.witness((2, 2)) == {"b2": 1}
    assert chain.witness((1, 1)) is None
    assert len(calls) == 2


@pytest.mark.parametrize("module, guarded", [
    (defcx, ("graphs", "poly")), (poly, ("lie",)), (gra, ("lie",))],
    ids=["defcx", "poly", "gra"])
def test_module_uses_no_private_name(module, guarded):
    """A module reaches the guarded ones through their public entry
    points: defcx the graph classes and the slice terms, poly and gra
    the Lie trees.  It imports no _-prefixed name of a guarded module
    and reads none as an attribute."""
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in guarded:
            private += [a.name for a in node.names
                        if a.name.startswith("_")]
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in guarded \
                and node.attr.startswith("_"):
            private.append(f"{node.value.id}.{node.attr}")
    assert private == []


def test_only_graphs_names_the_search():
    """The canonical search, its layers and its signing step stay
    inside graphs, so they can change without touching a caller: no
    other module of the package names them, as a name, an attribute,
    an import or a string."""
    search = {"_form", "_coarse_form", "_canonical_form", "_layer",
              "_relabel_sign", "_signed_class"}
    assert search <= set(vars(graphs))
    modules = sorted(pathlib.Path(graphs.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    named = []
    for path in modules:
        if path.name == "graphs.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias)
                    else node.value if isinstance(node, ast.Constant)
                    else None)
            if isinstance(name, str) and name in search:
                named.append((path.name, name))
    assert named == []


def test_graphs_signs_a_relabeling_once():
    """Within graphs, a permutation sign is taken in two places only:
    the labelled normal form (`_normal_form`) and the sign of a
    relabeling (`_relabel_sign`); the coarse form and the canonical
    search are unsigned."""
    tree = ast.parse(pathlib.Path(graphs.__file__).read_text())
    callers = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call) \
                        and isinstance(sub.func, ast.Name) \
                        and sub.func.id == "perm_sign":
                    callers.add(node.name)
    assert callers == {"_normal_form", "_relabel_sign"}


def test_gc2_cohomology_matches_the_literature():
    """H(GC_2) on every slice (v, e) with v <= 7 and e <= 11 is the
    tetrahedron's class sigma_3 at (4, 6) and the five-wheel's sigma_5
    at (6, 10), one each, and nothing else: H^0(GC_2) is grt_1, whose
    generators sigma_3, sigma_5, ... start so (Willwacher, "M.
    Kontsevich's graph complex and the Grothendieck-Teichmueller Lie
    algebra", Invent. Math. 200, 2015).  (7, 12) is the grid edge."""
    chain = defcx.Chain("gc", 2)
    nonzero = {}
    for v in range(1, 8):
        for e in range(1, 12):
            h = chain.cohomology((v, e))[2]
            if h:
                nonzero[(v, e)] = h
    assert nonzero == {(4, 6): 1, (6, 10): 1}
    with pytest.raises(ValueError):
        defcx.Chain("gc", 2).cohomology((7, 12))


def test_fcgc2_loop_classes_match_the_literature():
    """The loop classes of the full connected graph complex: at (j, j),
    H(fcGC_2) is one class, the j-gon L_j, for j = 2d + 1 mod 4 (j = 5
    here) and zero for the other j (Willwacher, Invent. Math. 200,
    2015)."""
    chain = defcx.Chain("fcgc", 2)
    assert {j: chain.cohomology((j, j))[2] for j in (3, 4, 5, 6)} \
        == {3: 0, 4: 0, 5: 1, 6: 0}
