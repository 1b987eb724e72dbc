"""PBW star product: straightening, symmetrization, graph series."""

import itertools
import math
from fractions import Fraction

import pytest

from liegraphs import linalg
from liegraphs.gra import GraElement, element
from liegraphs.graphs import OrientedGraph
from liegraphs.gutt import (FPLieAlgebra, abelian, gutt_mod_I_series,
                            heisenberg, monomial, poly_add, poly_scale,
                            series_coefficient, sigma, sigma_inv,
                            skew_symmetrize_series, star, straighten,
                            sym_mul, two_dim, u_mul)
from liegraphs.linalg import SparseMatrix


def test_jacobi_checked_at_construction():
    # [x,y] = z, [x,z] = x is not a Lie algebra
    with pytest.raises(ValueError):
        FPLieAlgebra(3, {(1, 2): {3: 1}, (1, 3): {1: 1}})
    with pytest.raises(ValueError):
        FPLieAlgebra(2, {(2, 1): {1: 1}})
    # a bracket target outside 1..dim, a negative dim
    with pytest.raises(ValueError, match="target"):
        FPLieAlgebra(2, {(1, 2): {3: 1}})
    with pytest.raises(ValueError, match="negative"):
        FPLieAlgebra(-2, {})
    # a dim or bracket key that is not an int (a bool is not one)
    for dim, brackets in ((2.0, {}), (True, {}), (3, {(1.0, 2): {3: 1}}),
                          (3, {(True, 2): {3: 1}})):
        with pytest.raises(TypeError, match="not an int"):
            FPLieAlgebra(dim, brackets)
    # a bracket target is an int or a decimal str (a JSON key), nothing
    # that int() would merely truncate or a bool
    for target in (3.9, 3.0, True, "3.0", None):
        with pytest.raises(TypeError, match="not an int"):
            FPLieAlgebra(3, {(1, 2): {target: 1}})
    assert FPLieAlgebra(3, {(1, 2): {"3": 1}}).bracket(1, 2) == {3: 1}
    # a bracket that names one target twice, as an int and as its str
    with pytest.raises(ValueError, match="twice"):
        FPLieAlgebra(3, {(1, 2): {3: 1, "3": 2}})


def test_bracket_antisymmetry():
    h = heisenberg()
    assert h.bracket(1, 2) == {3: Fraction(1)}
    assert h.bracket(2, 1) == {3: Fraction(-1)}
    assert h.bracket(2, 2) == {}


def test_straighten():
    h = heisenberg()
    # already sorted: untouched
    assert straighten(h, (1, 2, 3)) == {((1, 2, 3), 0): Fraction(1)}
    # the single rewrite yx -> xy - h z
    assert straighten(h, (2, 1)) == {((1, 2), 0): Fraction(1),
                                     ((3,), 1): Fraction(-1)}
    # abelian: any word just sorts
    a = abelian(4)
    assert straighten(a, (4, 2, 3, 1)) == {((1, 2, 3, 4), 0): Fraction(1)}


def _rewrite_oracle(alg, word):
    """PBW normal form by rewriting every path apart, with no memo: the
    first descent of each word on a stack is rewritten."""
    out, stack = {}, [(tuple(word), 0, 1)]
    while stack:
        w, hh, c = stack.pop()
        p = next((p for p in range(len(w) - 1) if w[p] > w[p + 1]), None)
        if p is None:
            out[(w, hh)] = out.get((w, hh), 0) + c
            continue
        stack.append((w[:p] + (w[p + 1], w[p]) + w[p + 2:], hh, c))
        for k, ck in alg.bracket(w[p], w[p + 1]).items():
            stack.append((w[:p] + (k,) + w[p + 2:], hh + 1, c * ck))
    return {key: c for key, c in out.items() if c != 0}


def test_straighten_matches_rewrite_oracle_and_takes_long_words():
    """The memoised straightening equals the path-by-path rewriting on
    every word of length <= 5 over sl2, the Heisenberg and the
    2-dimensional algebra, and takes words far longer than the
    interpreter's recursion limit would allow one frame per rewrite."""
    sl2 = FPLieAlgebra(3, {(1, 2): {3: 1}, (1, 3): {1: -2},
                           (2, 3): {2: 2}})
    for alg in (sl2, heisenberg(), two_dim()):
        for k in range(6):
            for w in itertools.product(range(1, alg.dim + 1), repeat=k):
                assert straighten(alg, w) == _rewrite_oracle(alg, w), w
    n = 60
    assert straighten(abelian(n), tuple(range(n, 0, -1))) == \
        {(tuple(range(1, n + 1)), 0): 1}
    long = straighten(heisenberg(), (2, 1) * 30)
    assert all(list(w) == sorted(w) for w, _ in long)
    assert long[((1,) * 30 + (2,) * 30, 0)] == 1


def test_generator_indices_checked():
    """A generator index outside 1..dim is refused by every map that
    straightens, whatever its position in the word."""
    h = heisenberg()
    for bad in (0, h.dim + 1):
        with pytest.raises(ValueError, match="outside"):
            star(h, monomial([bad]), monomial([1]))
        with pytest.raises(ValueError, match="outside"):
            star(h, monomial([1]), monomial([2, bad]))
        with pytest.raises(ValueError, match="outside"):
            straighten(h, (bad, 1))
        with pytest.raises(ValueError, match="outside"):
            sigma(h, monomial([bad]))
    # an index that is not an int, on an algebra whose memo holds no
    # word yet (a memo key (True,) equals (1,))
    for bad in (1.5, True, "1"):
        h = heisenberg()
        with pytest.raises(TypeError, match="not an int"):
            star(h, monomial([bad]), monomial([1]))
        with pytest.raises(TypeError, match="not an int"):
            straighten(h, (2, bad))
    # and on a warm memo, which already holds the int words they equal
    h = heisenberg()
    t12 = star(h, monomial([1]), monomial([2]))
    assert straighten(h, (2, 1)) == {((1, 2), 0): 1, ((3,), 1): -1}
    for bad in (True, 1.0):
        with pytest.raises(TypeError, match="not an int"):
            star(h, monomial([bad]), monomial([2]))
        with pytest.raises(TypeError, match="not an int"):
            straighten(h, (2, bad))
        with pytest.raises(TypeError, match="not an int"):
            sigma(h, monomial([bad, 2]))
    assert star(h, monomial([1]), monomial([2])) == t12
    # the power of h is a nonnegative int (a bool is not one), in
    # monomial and in every public map, hand-built polynomials included
    for bad in (True, 0.5):
        with pytest.raises(TypeError, match="not an int"):
            monomial([1], h=bad)
        with pytest.raises(TypeError, match="not an int"):
            star(h, {((1,), bad): 1}, monomial([2]))
        with pytest.raises(TypeError, match="not an int"):
            straighten(h, (2, 1), h=bad)
    with pytest.raises(ValueError, match="negative"):
        monomial([2], h=-3)
    with pytest.raises(ValueError, match="negative"):
        straighten(h, (2, 1), h=-1)
    with pytest.raises(ValueError, match="negative"):
        star(h, {((2,), -3): 1}, monomial([1]))
    with pytest.raises(ValueError, match="negative"):
        sigma(h, {((1, 2), -1): 1})
    assert star(h, monomial([2], h=1), monomial([1])) \
        == {((1, 2), 1): 1, ((3,), 2): Fraction(-1, 2)}


def test_straighten_order_independent():
    """Same normal form whichever descent is rewritten first: check by
    comparing products u(vw) and (uv)w in the enveloping algebra."""
    t = two_dim()
    words = [(2, 1), (2, 2, 1), (1, 2)]
    for u, v, w in itertools.product(words, repeat=3):
        lhs = u_mul(t, straighten(t, u), u_mul(t, straighten(t, v),
                                               straighten(t, w)))
        rhs = u_mul(t, u_mul(t, straighten(t, u), straighten(t, v)),
                    straighten(t, w))
        assert lhs == rhs


def test_star_linear_generators():
    h = heisenberg()
    x, y = monomial([1]), monomial([2])
    assert star(h, x, y) == {((1, 2), 0): Fraction(1),
                             ((3,), 1): Fraction(1, 2)}


def test_commutator_is_bracket():
    for alg in (heisenberg(), two_dim(), abelian(3)):
        for i in range(1, alg.dim + 1):
            for j in range(1, alg.dim + 1):
                lhs = poly_add(star(alg, monomial([i]), monomial([j])),
                               poly_scale(star(alg, monomial([j]),
                                               monomial([i])), Fraction(-1)))
                want = {((k,), 1): c for k, c in alg.bracket(i, j).items()}
                assert lhs == want


def test_abelian_star_is_product():
    a = abelian(3)
    p = poly_add(monomial([1, 2]), monomial([3], coeff=Fraction(2)))
    q = monomial([2, 3])
    assert star(a, p, q) == sym_mul(p, q)


def test_memo_keeps_algebras_apart():
    """The memoised straightening, sigma and star tables are keyed by the
    algebra: the same monomials interleaved on two algebras keep their
    own products."""
    h, a = heisenberg(), abelian(3)
    x, y = monomial([1]), monomial([2])
    for _ in range(2):
        assert star(h, x, y) == poly_add(sym_mul(x, y),
                                         poly_scale(monomial([3], h=1),
                                                    Fraction(1, 2)))
        assert star(a, x, y) == sym_mul(x, y)
        assert star(h, y, x) != star(a, y, x)
        assert straighten(h, (2, 1)) != straighten(a, (2, 1))


def test_sigma_roundtrip():
    for alg in (heisenberg(), two_dim()):
        p = poly_add(poly_add(monomial([1, 2, 2]),
                              monomial([1] * 4, coeff=Fraction(2, 3))),
                     monomial([2], h=1, coeff=Fraction(-1)))
        assert sigma_inv(alg, sigma(alg, p)) == p


def test_sigma_is_the_mean_over_all_orderings():
    """sigma walks each distinct ordering of a monomial once; the
    definition sums straighten over all k! orderings, repeats
    included, and divides by k!."""
    for alg in (heisenberg(), two_dim()):
        for m in [(), (1,), (1, 1), (1, 2, 2), (1, 1, 2, 2), (1, 1, 1, 2),
                  (1, 2, 2, 2, 3)]:
            m = tuple(x for x in m if x <= alg.dim)
            want = {}
            for w in itertools.permutations(m):
                want = poly_add(want, straighten(alg, w, 0, Fraction(
                    1, math.factorial(len(m)))))
            assert sigma(alg, monomial(m)) == want, m


def test_star_associative_heisenberg():
    h = heisenberg()
    monos = [(), (1,), (2,), (3,), (1, 2), (2, 3), (1, 1, 2)]
    for a, b, c in itertools.product(monos[:5], repeat=3):
        pa, pb, pc = monomial(a), monomial(b), monomial(c)
        assert star(h, star(h, pa, pb), pc) == star(h, pa, star(h, pb, pc))
    # a few degree-3 spot checks
    for a in ((1, 2, 3), (2, 2, 2)):
        pa = monomial(a)
        assert star(h, star(h, pa, monomial((1, 2))), monomial((3,))) \
            == star(h, pa, star(h, monomial((1, 2)), monomial((3,))))


def _dense_sigma_inverse_oracle(alg, u, max_len):
    """Invert sigma by a dense solve over the (monomial, h) basis of the
    length + h <= max_len filtration block."""
    keys = []
    for l in range(max_len + 1):
        for m in itertools.combinations_with_replacement(
                range(1, alg.dim + 1), l):
            for h in range(max_len - l + 1):
                keys.append((m, h))
    index = {k: i for i, k in enumerate(keys)}
    cols = []
    for k in keys:
        img = sigma(alg, {k: Fraction(1)})
        cols.append({index[kk]: c for kk, c in img.items()})
    mat = SparseMatrix.from_columns(cols, len(keys))
    sol = linalg.solve(mat, {index[k]: c for k, c in u.items()})
    assert sol is not None
    return {keys[i]: c for i, c in sol.items()}


def test_star_against_dense_oracle():
    h = heisenberg()
    x = monomial([1])
    yy = monomial([2, 2])
    got = star(h, x, yy)
    want = _dense_sigma_inverse_oracle(
        h, u_mul(h, sigma(h, x), sigma(h, yy)), 3)
    assert got == want


def test_series_coefficients():
    s = gutt_mod_I_series(6)
    assert [series_coefficient(s, k) for k in range(4)] \
        == [1, 1, Fraction(1, 2), Fraction(1, 6)]
    with pytest.raises(ValueError):
        gutt_mod_I_series(9)
    # the edge count is a nonnegative int: ((1, 2),) * -1 is empty
    with pytest.raises(ValueError, match="negative"):
        series_coefficient(s, -1)
    with pytest.raises(ValueError):
        gutt_mod_I_series(-1)
    for bad in (2.0, True):
        with pytest.raises(TypeError, match="not an int"):
            series_coefficient(s, bad)
        with pytest.raises(TypeError, match="not an int"):
            gutt_mod_I_series(bad)
    # a series has arity 2: an arity-3 element with the edge 1 -> 2 is
    # refused, not read as the two-vertex graph's coefficient 0
    with pytest.raises(ValueError, match="arity 3"):
        series_coefficient(element(OrientedGraph(1, 3, ((1, 2),))), 1)


def test_constructors_keep_the_exact_rule():
    """monomial, poly_add and poly_scale store exact nonzero
    coefficients only: zeros are dropped, a float is refused and an
    integral Fraction becomes an int."""
    assert monomial([1], coeff=0) == {}
    assert poly_add({((1,), 0): 0}, monomial([2])) == monomial([2])
    assert poly_add(monomial([1]), monomial([1], coeff=-1)) == {}
    assert poly_scale(monomial([1]), 0) == {}
    got = poly_scale(monomial([1], coeff=Fraction(1, 2)), 2)
    assert got == {((1,), 0): 1} and type(got[((1,), 0)]) is int
    assert type(monomial([1], coeff=Fraction(4, 2))[((1,), 0)]) is int
    for make in (lambda: poly_scale(monomial([1]), 0.5),
                 lambda: poly_add(monomial([1]), {((2,), 0): 0.5}),
                 lambda: monomial([1], coeff=0.5)):
        with pytest.raises(TypeError, match="inexact"):
            make()
    # both operands' indices and powers of h are checked, as monomial
    # checks them
    with pytest.raises(ValueError, match="negative power"):
        poly_add({((1,), -1): 1}, {})
    with pytest.raises(ValueError, match="negative power"):
        poly_add(monomial([1]), {((1,), -1): 1})
    with pytest.raises(TypeError, match="not an int"):
        poly_scale({((True,), 0): 1}, 2)
    with pytest.raises(TypeError, match="not an int"):
        poly_add({((1,), 0.5): 1}, {})


def test_skew_symmetrized_series():
    sk = skew_symmetrize_series(gutt_mod_I_series(6))
    assert series_coefficient(sk, 2) == 0
    assert series_coefficient(sk, 4) == 0
    assert series_coefficient(sk, 1) == 1
    assert series_coefficient(sk, 3) == Fraction(1, 6)
    assert series_coefficient(sk, 5) == Fraction(1, 120)
    # the linear term is the graph-operad bracket generator
    single = {g: c for g, c in sk.terms.items() if g.n_edges() == 1}
    assert single == dict(GraElement.bracket(1).terms)


def test_algebra_json_roundtrip():
    for alg in (heisenberg(), two_dim(), abelian(2)):
        back = FPLieAlgebra.from_json(alg.to_json())
        assert back.dim == alg.dim and back.brackets == alg.brackets


def test_algebra_json_refuses_float_coefficients():
    rec = {"dim": 2, "brackets": [{"i": 1, "j": 2, "coeffs": {"2": 0.1}}]}
    with pytest.raises(TypeError):
        FPLieAlgebra.from_json(rec)
    rec["brackets"][0]["coeffs"]["2"] = "1/10"
    assert FPLieAlgebra.from_json(rec).bracket(1, 2) == {2: Fraction(1, 10)}
