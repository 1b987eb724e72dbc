"""One exact-rational rule for every coefficient: an int when the value
is integral, otherwise a Fraction with denominator > 1, never a float.
It holds in every result and every memo entry, and every operation is
homogeneous under scaling by 1/3."""

import random
from collections.abc import Mapping
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from liegraphs import defcx, gra, gutt, lie, poly
from liegraphs.graphs import OrientedGraph
from liegraphs.lie import LieElement, basis_words
from liegraphs.linalg import (Combination, Echelon, SparseMatrix, in_image,
                              kernel_basis, rank, solve)

from test_linalg import dense_rank, is_exact

THIRD = Fraction(1, 3)

# every memo whose entries hold coefficients, and the graph differential,
# which is not memoised
MEMOS = [(poly, "component_normal_form"), (poly, "_substituted"),
         (poly, "_term_action"),
         (lie, "_word_action"), (defcx, "gc_differential"),
         (gutt, "_straighten"), (gutt, "_sigma_basis"),
         (gutt, "_sigma_inv_basis"), (gutt, "_star_basis")]


def numbers(x):
    """Every number held in x, searched through mappings, sequences,
    combinations and echelon rows (term labels are ints, so they pass)."""
    if isinstance(x, (int, Fraction, float)):
        yield x
    elif isinstance(x, Mapping):
        for k, v in x.items():
            yield from numbers(k)
            yield from numbers(v)
    elif isinstance(x, (tuple, list)):
        for y in x:
            yield from numbers(y)
    elif isinstance(x, Combination):
        yield from numbers(x.terms)
    elif isinstance(x, Echelon):
        yield from numbers(x._rows)


def assert_exact(x):
    bad = [c for c in numbers(x) if not is_exact(c)]
    assert not bad, f"inexact coefficients {bad[:5]}"
    if isinstance(x, Combination):
        # a result wrapped unchecked is what the checking constructor
        # builds from its fields and terms
        fields = {f: getattr(x, f) for f in type(x).__slots__}
        assert type(x)(terms=x.terms, **fields) == x
        assert 0 not in x.terms.values()


@pytest.fixture
def memo_entries(monkeypatch):
    """The values the memos hand out during the test (hits and misses)."""
    seen = []
    for module, name in MEMOS:
        def spy(*args, _inner=getattr(module, name)):
            out = _inner(*args)
            seen.append(out)
            return out
        monkeypatch.setattr(module, name, spy)
    return seen


def random_gra(rng, d, arity, n_edges=None):
    out = gra.GraElement(arity, d, {})
    pairs = list(combinations(range(1, arity + 1), 2))
    for _ in range(3):
        k = n_edges or rng.randint(1, 3)
        edges = tuple(rng.choice(pairs) for _ in range(k))
        out = out + gra.element(OrientedGraph(d, arity, edges),
                                rng.choice((-3, -2, -1, 1, 2, 3)))
    return out


def random_o(rng, d, arity, comp_lens=None):
    out = poly.OElement(arity, d, {}, "lie")
    for _ in range(3):
        words = []
        for m in comp_lens or rng.sample((2, 2, 3), rng.randint(1, 2)):
            letters = tuple(sorted(rng.choice(range(1, arity + 1))
                                   for _ in range(m)))
            basis = poly.basis_for_multiset(letters, (d - 1) % 2)
            if not basis:
                break
            words.append(rng.choice(basis))
        else:
            out = out + poly.make_term(arity, d, words,
                                       rng.choice((-3, -2, -1, 1, 2, 3)))
    return out


def check_homogeneous(op, a, scale_a, *rest):
    """op(a / 3, ...) * 3 == op(a, ...), with both results exact."""
    got, want = op(scale_a(a, THIRD), *rest), op(a, *rest)
    assert_exact(got)
    assert_exact(want)
    assert scale_a(got, 3) == want
    return want


def scaled(x, c):
    return x.scaled(c)


@pytest.mark.parametrize("d", [1, 2])
def test_compositions_homogeneous_and_exact(d, memo_entries):
    rng = random.Random(d)
    for _ in range(6):
        m = rng.randint(2, 3)
        i = rng.randint(1, m)
        check_homogeneous(gra.compose, random_gra(rng, d, m), scaled, i,
                          random_gra(rng, d, 2))
        a, b = random_o(rng, d, m), random_o(rng, d, 2)
        check_homogeneous(poly.o_compose, a, scaled, i, b)
        for sigma in permutations(range(1, m + 1)):
            check_homogeneous(poly.s_action, a, scaled, sigma)
    assert memo_entries
    assert_exact(memo_entries)


# graphs whose differentials are nonzero: the triangle (d = 1, odd
# arity, so the 1/n weights) and a square with one diagonal (d = 2)
GRAPHS = [OrientedGraph(1, 3, ((1, 2), (2, 3), (1, 3))),
          OrientedGraph(2, 4, ((1, 2), (2, 3), (3, 4), (4, 1), (1, 3)))]


def def_elements():
    """Homogeneous deformation elements of all three targets, integer
    coefficients."""
    rng = random.Random(5)
    for g in GRAPHS:
        yield gra.element(g, -2) + random_gra(rng, g.d, g.n_vertices,
                                              len(g.edges))
    for d in (1, 2):
        for n in (2, 3):
            yield LieElement(n, {w: rng.choice((-2, 1, 3))
                                 for w in basis_words(n)}, d)
            yield random_o(rng, d, n, comp_lens=(2, 3))


def test_def_differential_homogeneous_and_exact(memo_entries):
    images = [check_homogeneous(defcx.def_differential, x, scaled)
              for x in def_elements()]
    assert sum(not y.is_zero() for y in images) >= 4
    for g in GRAPHS:
        assert defcx.gc_differential(g)
        assert_exact(defcx.gc_differential(g))
    assert_exact(memo_entries)


def test_slices_exact():
    """Bases, echelons, images, kernels and witnesses of one slice of
    every complex, with the 1/n! of the symmetrizer in their
    coefficients."""
    for complex_id, d, key in (("gc", 1, (4, 6)), ("fcgc", 2, (3, 3)),
                               ("def-olie", 1, (2, 2)), ("def-lie", 1, (4,)),
                               ("def-lie", 2, (3,))):
        chain = defcx.Chain(complex_id, d)
        sl = chain.slice(key)
        assert_exact([sl.basis, sl.span, sl.images])
        rows = sorted({t for image in sl.images for t in image})
        index = {t: i for i, t in enumerate(rows)}
        assert_exact(kernel_basis(SparseMatrix.from_columns(
            [{index[t]: c for t, c in image.items()} for image in sl.images],
            len(rows), n_cols=len(sl.basis))))
        assert_exact([chain.witness(key)])


def test_star_homogeneous_and_exact(memo_entries):
    algebras = [gutt.heisenberg(), gutt.two_dim(),
                gutt.FPLieAlgebra(3, {(1, 2): {3: 1}, (1, 3): {1: -2},
                                      (2, 3): {2: 2}}),
                gutt.FPLieAlgebra(2, {(1, 2): {2: Fraction(3, 2)}})]
    monos = [(), (1,), (2,), (1, 2), (2, 2), (1, 1, 2)]
    for alg in algebras:
        for m1 in monos:
            for m2 in monos:
                p = gutt.poly_add(gutt.monomial(m1, coeff=3),
                                  gutt.monomial(m2, h=1, coeff=-2))
                check_homogeneous(lambda p_: gutt.star(alg, p_,
                                                       gutt.monomial(m2)),
                                  p, gutt.poly_scale)
    assert_exact(gutt.straighten(algebras[3], (2, 1, 2), coeff=Fraction(2, 3)))
    assert memo_entries
    assert_exact(memo_entries)


def sparse_ints(rng, n_rows, n_cols):
    return [[rng.choice((0, rng.randint(-4, 4))) for _ in range(n_cols)]
            for _ in range(n_rows)]


@given(st.integers(1, 6), st.integers(1, 6), st.integers())
@settings(max_examples=150, deadline=None)
def test_integer_matrices_against_dense_oracle(n_rows, n_cols, seed):
    """Integer-entry matrices of every rank (products of two random
    factors): every routine agrees with the dense Fraction oracle, and
    every division stays exact."""
    rng = random.Random(seed)
    k = rng.randint(1, min(n_rows, n_cols))
    left, right = sparse_ints(rng, n_rows, k), sparse_ints(rng, k, n_cols)
    dense = [[sum(left[i][t] * right[t][j] for t in range(k))
              for j in range(n_cols)] for i in range(n_rows)]
    mat = SparseMatrix.from_dense(dense)
    assert all(type(v) is int for row in mat.rows for _, v in row)
    r = rank(mat)
    assert r == dense_rank(dense)
    basis = kernel_basis(mat)
    assert_exact(basis)
    assert len(basis) == n_cols - r
    assert dense_rank([[vec.get(j, 0) for j in range(n_cols)]
                       for vec in basis]) == len(basis)
    for vec in basis:
        assert mat.mul_vector(vec) == {}
    span = Echelon()
    for col in mat.transpose().rows:
        span.add(dict(col))
    assert span.rank == r
    assert_exact(span)
    x = {j: rng.randint(-3, 3) for j in range(n_cols)}
    b = mat.mul_vector(x)
    assert_exact(b)
    sol = solve(mat, b)
    assert_exact(sol)
    assert mat.mul_vector(sol) == b and in_image(mat, b)
    assert_exact(span.coords(b))
    other = {i: rng.randint(-3, 3) for i in range(n_rows)}
    inside = dense_rank([row + [other[i]] for i, row in enumerate(dense)]) == r
    assert in_image(mat, other) == inside == (solve(mat, other) is not None)


def test_float_coefficients_refused():
    """A float's binary expansion is not the value meant (0.1 would be
    3602879701896397/2^55), so every constructor refuses it, 0.0 too; a
    bool is a truth value, not the coefficient 1 or 0, and is refused
    too."""
    g = OrientedGraph(1, 2, ((1, 2),))
    makers = [lambda c: LieElement(2, {(1, 2): c}),
              lambda c: lie.normalize([(c, (1, 2))]),
              lambda c: poly.make_term(2, 1, [(1, 2)], c),
              lambda c: gra.element(g, c),
              lambda c: gutt.monomial([1], coeff=c),
              lambda c: gutt.poly_scale(gutt.monomial([1]), c),
              lambda c: gutt.FPLieAlgebra(2, {(1, 2): {2: c}}),
              lambda c: SparseMatrix(1, 1, [[(0, c)]]),
              lambda c: SparseMatrix.from_dense([[c]]),
              lambda c: in_image(SparseMatrix(1, 1, [[(0, 1)]]), {0: c}),
              lambda c: LieElement(2, {(1, 2): 1}).scaled(c)]
    for make in makers:
        for c in (0.1, 1.0, 0.0):
            with pytest.raises(TypeError):
                make(c)
        for c in (True, False):
            with pytest.raises(TypeError, match="not a number"):
                make(c)
        make(Fraction(1, 10))  # an exact value passes
