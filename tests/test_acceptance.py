"""Acceptance gate: one test per headline criterion, exact arithmetic only.

Each test is self-contained evidence for one advertised capability; the
pytest -v line for each test is the pass/fail verdict for that criterion.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product

from liegraphs import defcx, gra, gutt, poly
from liegraphs.defcx import (build_slice, cohomology_rank, def_degree,
                             def_differential, gc_differential,
                             gc_differential_combo, map_F)
from liegraphs.graphs import (OrientedGraph, canonicalize, enumerate_graphs,
                              perm_sign)
from liegraphs.lie import (LieElement, assoc_expand, basis_words,
                           bch_truncated, dim_lie, left_normed_assoc_expansion,
                           word_to_tree)
from liegraphs.linalg import SparseMatrix, rank
from liegraphs.poly import (OElement, basis_for_multiset,
                            component_normal_form, make_term, o_compose,
                            s_action)


# -- criterion 1: worked composition examples -------------------------

def test_criterion_1_worked_examples_term_for_term():
    for d in (1, 2):
        p = (d - 1) % 2
        corolla = make_term(2, d, [(1, 2)])
        # corolla o_2 corolla: one nested component plus two 2-component
        # terms from routing the inner output to the global out-vertex
        want = make_term(3, d, [(1, 2), (2, 3)]) \
            + make_term(3, d, [(1, 3), (2, 3)])
        for w, c in component_normal_form((1, (2, 3)), p).items():
            want = want + make_term(3, d, [w], c)
        assert o_compose(corolla, 2, corolla) == want

        # graph operad: path o_1 edge reattaches the two loose edges in
        # all four ways
        path = gra.element(OrientedGraph(d, 3, ((1, 2), (1, 3))))
        edge = gra.element(OrientedGraph(d, 2, ((1, 2),)))
        want = gra.GraElement(4, d, {})
        for x, y in product((1, 2), repeat=2):
            want = want + gra.element(
                OrientedGraph(d, 4, ((1, 2), (x, 3), (y, 4))))
        assert gra.compose(path, 1, edge) == want

    # left operand with a doubly-attached component; the displayed
    # 3-term result lives at even parity (the odd-parity composition
    # cancels to zero under the out-edge ordering sign)
    d = 2
    a = make_term(3, d, [(1, 2), (3, 3)])
    got = o_compose(a, 1, make_term(2, d, [(1, 2)]))
    want = OElement(4, d, {}, "lie")
    for w, c in component_normal_form(((1, 2), 3), 1).items():
        want = want + make_term(4, d, [(4, 4), w], c)
    want = want + make_term(4, d, [(1, 2), (1, 3), (4, 4)]) \
                + make_term(4, d, [(1, 2), (2, 3), (4, 4)])
    assert not got.is_zero()
    assert got == want


# -- criterion 2: morphism checks -------------------------------------

def test_criterion_2_morphism_checks():
    for d in (1, 2):
        corolla = make_term(2, d, [(1, 2)])
        nested = o_compose(corolla, 1, corolla)
        total = OElement(3, d, {}, "lie")
        for sigma in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            total = total + s_action(nested, sigma)
        assert total.is_zero()
    res = poly.ass_remark_check()
    want = make_term(3, 1, [(1, 2), (1, 3)], kind="ass") \
        - make_term(3, 1, [(1, 3), (2, 3)], kind="ass")
    assert not res.is_zero()
    assert res == want


# -- criteria 3 and 4 share the slice differentials -------------------

_DEF_SLICES = tuple((n, k) for n in range(1, 4) for k in range(0, 4))


@lru_cache(maxsize=None)
def _slice_diffs(d, n, k):
    sl = build_slice("def-olie", d, (n, k))
    return tuple((x, def_differential(x)) for x in sl.basis)


def test_criterion_3_differential_squares_to_zero():
    for d in (1, 2):
        for mv in (1, 3):  # full complex and >=3-valent projection
            for v in range(1, 6):
                for e in range(1, 9):
                    for g in enumerate_graphs(v, e, d, min_valence=mv):
                        img = gc_differential(g, min_valence=mv)
                        assert gc_differential_combo(img, mv) == {}, \
                            (d, mv, g)
    for d in (1, 2):
        for n, k in _DEF_SLICES:
            for x, dx in _slice_diffs(d, n, k):
                assert def_differential(dx).is_zero(), (d, n, k)


def test_criterion_4_chain_map_intertwines():
    for d in (1, 2):
        for n, k in _DEF_SLICES:
            for x, dx in _slice_diffs(d, n, k):
                assert map_F(dx) == def_differential(map_F(x)), (d, n, k)


# -- criterion 5: cocycle witnesses -----------------------------------

def test_criterion_5_cocycle_witnesses():
    # tetrahedron: closed and spans the nontrivial (4,6) slice class
    w3 = defcx.tetrahedron()
    assert gc_differential(w3, min_valence=3) == {}
    assert cohomology_rank("gc", 2, (4, 6)) == (1, 0, 1)
    sl = build_slice("gc", 2, (4, 6))
    assert sl.basis == (canonicalize(w3).canonical,)

    # five-wheel plus 5/2 times its correction graph is closed
    assert gc_differential_combo(defcx.five_wheel_cocycle(), 3) == {}

    # theta: closed, degree 1, not exact; its preimage is closed
    th = defcx.theta_graph()
    assert gc_differential(th, min_valence=3) == {}
    assert def_degree(gra.element(th)) == 1
    assert cohomology_rank("gc", 1, (2, 3)) == (1, 0, 1)
    pre = defcx.theta_def_element()
    assert map_F(pre) == gra.element(th)
    assert def_differential(pre).is_zero()


# -- criterion 6: bracket deformations of the Lie operad --------------

def test_criterion_6_def_lie_total_cohomology_one():
    for d in (1, 2):
        dims = [cohomology_rank("def-lie", d, n)[2] for n in range(2, 6)]
        assert sum(dims) == 1 and dims[0] == 1, (d, dims)
        # the witness class is the bracket generator itself
        sl = build_slice("def-lie", d, 2)
        mu = LieElement.bracket(d)
        assert sl.basis == (mu,) or mu in sl.basis
        assert def_differential(mu).is_zero()


# -- criterion 7: free Lie engine -------------------------------------

def _all_trees(m):
    def bracketings(labels):
        if len(labels) == 1:
            yield labels[0]
            return
        for cut in range(1, len(labels)):
            for left in bracketings(labels[:cut]):
                for right in bracketings(labels[cut:]):
                    yield (left, right)
    for perm in permutations(range(1, m + 1)):
        yield from bracketings(perm)


def _span_rank(expansions):
    words = sorted({w for e in expansions for w in e})
    index = {w: i for i, w in enumerate(words)}
    # drop exact scalar multiples first; the span is unchanged
    seen = set()
    cols = []
    for e in expansions:
        if not e:
            continue
        items = sorted((index[w], c) for w, c in e.items())
        lead = items[0][1]
        key = tuple((i, c / lead) for i, c in items)
        if key not in seen:
            seen.add(key)
            cols.append(dict(items))
    return rank(SparseMatrix.from_columns(cols, len(words)))


def test_criterion_7_lie_dimensions_and_bch():
    import math
    for m in range(1, 7):
        want = math.factorial(m - 1)
        assert dim_lie(m) == want
        if m > 1:
            assert _span_rank([assoc_expand(t)
                               for t in _all_trees(m)]) == want
    bch = bch_truncated(3)
    assert bch[1] == {("X",): Fraction(1), ("Y",): Fraction(1)}
    assert bch[2] == {("X", "Y"): Fraction(1, 2)}
    want = {}
    for tree in (("X", ("X", "Y")), (("X", "Y"), "Y")):
        for word, v in assoc_expand(tree).items():
            want[word] = want.get(word, Fraction(0)) + Fraction(1, 12) * v
    got = left_normed_assoc_expansion(bch[3])
    assert got == {w: c for w, c in want.items() if c != 0}


# -- criterion 8: Gutt star product -----------------------------------

def test_criterion_8_gutt_star_product():
    h = gutt.heisenberg()
    got = gutt.star(h, gutt.monomial([1]), gutt.monomial([2]))
    assert got == {((1, 2), 0): Fraction(1), ((3,), 1): Fraction(1, 2)}

    monos = [gutt.monomial(m) for deg in range(4)
             for m in combinations_with_replacement_3(deg)]
    for pa, pb, pc in product(monos, repeat=3):
        assert gutt.star(h, gutt.star(h, pa, pb), pc) \
            == gutt.star(h, pa, gutt.star(h, pb, pc))

    sk = gutt.skew_symmetrize_series(gutt.gutt_mod_I_series(6))
    coeffs = [gutt.series_coefficient(sk, k) for k in range(7)]
    assert coeffs == [0, Fraction(1), 0, Fraction(1, 6), 0,
                      Fraction(1, 120), 0]


def combinations_with_replacement_3(deg):
    from itertools import combinations_with_replacement
    return combinations_with_replacement((1, 2, 3), deg)


# -- criterion 9: randomized axiom and canonicalization suites --------

def _rand_gra(rng, d, arity):
    out = gra.GraElement(arity, d, {})
    pairs = list(combinations(range(1, arity + 1), 2))
    for _ in range(2):
        edges = tuple(rng.choice(pairs) for _ in range(rng.randint(1, 3)))
        out = out + gra.element(OrientedGraph(d, arity, edges),
                                Fraction(rng.randint(-2, 2)))
    return out


def _rand_o(rng, d, arity):
    out = OElement(arity, d, {}, "lie")
    for _ in range(2):
        m = rng.randint(2, 3)
        letters = tuple(sorted(rng.choice(range(1, arity + 1))
                               for _ in range(m)))
        basis = basis_for_multiset(letters, (d - 1) % 2)
        if basis:
            out = out + make_term(arity, d, [rng.choice(basis)],
                                  Fraction(rng.randint(-2, 2)))
    return out


def _block(tau, i, m_a, k):
    out = list(range(1, m_a + k))
    for t in range(k):
        out[i - 1 + t] = i - 1 + tau[t]
    return tuple(out)


def _axiom_instances(rng, rand, comp, act, unit, count):
    done = 0
    while done < count:
        d = rng.choice([1, 2])
        m = rng.randint(2, 3)
        a, b, c = rand(rng, d, m), rand(rng, d, 2), rand(rng, d, 2)
        if not (a.terms and b.terms and c.terms):
            continue
        done += 1
        i = rng.randint(1, m)
        j = rng.randint(i, i + 1)
        # sequential associativity
        assert comp(comp(a, i, b), j, c) == comp(a, i, comp(b, j - i + 1, c))
        # unit
        u = unit(d)
        assert comp(a, i, u) == a and comp(u, 1, a) == a
        # inner equivariance
        tau = tuple(rng.sample([1, 2], 2))
        assert comp(a, i, act(b, tau)) \
            == act(comp(a, i, b), _block(tau, i, m, 2))
    return done


def _scramble(g, rng):
    perm = list(range(1, g.n_vertices + 1))
    rng.shuffle(perm)
    sigma = {i + 1: perm[i] for i in range(g.n_vertices)}
    sign = 1
    edges = [(sigma[t], sigma[h]) for t, h in g.edges]
    if g.d % 2 == 1:
        sign *= perm_sign(perm)
        for i in rng.sample(range(len(edges)), rng.randint(0, len(edges))):
            edges[i] = (edges[i][1], edges[i][0])
            sign *= -1
        rng.shuffle(edges)
    else:
        for _ in range(rng.randint(0, 3)):
            if len(edges) >= 2:
                i, j = rng.sample(range(len(edges)), 2)
                edges[i], edges[j] = edges[j], edges[i]
                sign *= -1
    return OrientedGraph(g.d, g.n_vertices, tuple(edges)), sign


def test_criterion_9_property_suites():
    rng = random.Random(17)
    total = 0
    total += _axiom_instances(rng, _rand_gra, gra.compose, gra.s_action,
                              gra.unit, 120)
    total += _axiom_instances(rng, _rand_o, o_compose, s_action,
                              lambda d: poly.unit(d), 120)
    assert total >= 200

    done = 0
    while done < 520:
        d = rng.choice([1, 2])
        n = rng.randint(2, 5)
        pairs = list(combinations(range(1, n + 1), 2))
        k = rng.randint(1, min(len(pairs), 6))
        if d % 2 == 0:
            edges = tuple(rng.sample(pairs, k))
        else:
            edges = tuple(rng.choice(pairs) for _ in range(k))
        g = OrientedGraph(d, n, edges)
        h, rel = _scramble(g, rng)
        a, b = canonicalize(g), canonicalize(h)
        assert a.canonical == b.canonical
        assert a.is_zero() == b.is_zero()
        if not a.is_zero():
            assert b.sign == rel * a.sign
        done += 1
