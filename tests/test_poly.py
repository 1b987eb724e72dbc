"""Polydifferential operad: worked compositions, morphisms, axioms."""

import random
from fractions import Fraction

import pytest

from liegraphs import poly
from liegraphs.gra import compose as gra_compose, gra_image, lie_to_gra
from liegraphs.lie import normalize
from liegraphs.poly import (OElement, ass_corolla, ass_remark_check,
                            basis_for_multiset, component_normal_form,
                            is_connected_element, is_lyndon, lyndon_tree,
                            make_term, map_i, o_compose, quotient_to_gra,
                            unit)


def corolla(d):
    return make_term(2, d, [(1, 2)])


def test_is_lyndon_and_tree():
    assert is_lyndon((1, 2, 3))
    assert is_lyndon((1, 2, 2))
    assert not is_lyndon((2, 1))
    assert not is_lyndon((1, 2, 1))
    assert lyndon_tree((1, 2, 3)) == (1, (2, 3))
    assert lyndon_tree((1, 3, 2)) == ((1, 3), 2)
    # super square u.u for odd-length Lyndon u
    assert lyndon_tree((3, 3)) == (3, 3)


def test_basis_for_multiset():
    # ordinary free Lie on distinct letters: (m-1)! Lyndon words
    assert basis_for_multiset((1, 2, 3), 0) == [(1, 2, 3), (1, 3, 2)]
    # [x, x] = 0 for even generators ...
    assert basis_for_multiset((3, 3), 0) == []
    # ... but survives as the square for odd generators
    assert basis_for_multiset((3, 3), 1) == [(3, 3)]
    # doubled even-length half gives no square: [xy, xy] has even length half? no
    assert (1, 2, 1, 2) not in basis_for_multiset((1, 1, 2, 2), 1)


def test_component_normal_form_oracle():
    # antisymmetry (p=0) and symmetry (p=1) of the binary bracket
    assert component_normal_form((2, 1), 0) == {(1, 2): Fraction(-1)}
    assert component_normal_form((2, 1), 1) == {(1, 2): Fraction(1)}
    assert component_normal_form((1, 1), 0) == {}
    assert component_normal_form((1, 1), 1) == {(1, 1): Fraction(1)}
    # Jacobi inside a component, both parities
    for p in (0, 1):
        total = {}
        for t in (((1, 2), 3), ((2, 3), 1), ((3, 1), 2)):
            for w, c in component_normal_form(t, p).items():
                total[w] = total.get(w, Fraction(0)) + c
        assert all(c == 0 for c in total.values())


def test_dependent_basis_expansion_raises(monkeypatch):
    """A basis word listed twice has a dependent expansion; the normal
    form system reports that as a library fault."""
    words = poly.basis_for_multiset
    monkeypatch.setattr(poly, "basis_for_multiset",
                        lambda letters, p: words(letters, p)
                        + words(letters, p)[:1])
    memos = (poly._basis_system, component_normal_form)
    for f in memos:
        f.cache_clear()
    with pytest.raises(ArithmeticError):
        component_normal_form(((1, 2), 3), 0)
    for f in memos:
        f.cache_clear()


def test_compose_corollas_three_terms():
    """corolla o_2 corolla: one nested component plus the two ways the
    spare slot attaches to the inner whites."""
    for d in (1, 2):
        got = o_compose(corolla(d), 2, corolla(d))
        p = (d - 1) % 2
        want = OElement(3, d, {}, "lie")
        for w, c in component_normal_form((1, (2, 3)), p).items():
            want = want + make_term(3, d, [w], c)
        want = want + make_term(3, d, [(1, 2), (2, 3)]) \
                    + make_term(3, d, [(1, 3), (2, 3)])
        assert len(got.terms) == 3
        assert got == want


def test_compose_with_square_component():
    """Left operand has a doubly-attached component (only nonzero for
    even d); composition at slot 1 gives the displayed 3-graph sum, the
    nested graph expanding to two basis terms."""
    d = 2
    a = make_term(3, d, [(1, 2), (3, 3)])
    got = o_compose(a, 1, corolla(d))
    want = OElement(4, d, {}, "lie")
    for w, c in component_normal_form(((1, 2), 3), 1).items():
        want = want + make_term(4, d, [(4, 4), w], c)
    want = want + make_term(4, d, [(1, 2), (1, 3), (4, 4)]) \
                + make_term(4, d, [(1, 2), (2, 3), (4, 4)])
    assert got == want


def test_unit():
    rng = random.Random(1)
    for d in (1, 2):
        x = make_term(2, d, [(1, 2)]) + make_term(2, d, [(1, 2), (1, 2)],
                                                  Fraction(3))
        if d == 1:
            x = make_term(2, d, [(1, 2)])
        for i in (1, 2):
            assert o_compose(x, i, unit(d)) == x
        assert o_compose(unit(d), 1, x) == x


def test_index_range():
    with pytest.raises(ValueError):
        o_compose(corolla(1), 3, corolla(1))


def test_odd_component_anticommute():
    # d even: components with an even slot count are odd objects
    d = 2
    a = make_term(3, d, [(1, 2), (2, 3)])
    # repeated odd component is zero
    assert make_term(3, d, [(1, 2), (1, 2)]).is_zero()
    # swapping the build order flips nothing after canonical sorting,
    # but an explicitly reversed pair carries the Koszul sign
    b = make_term(3, d, [(2, 3), (1, 2)])
    assert b == a.scaled(Fraction(-1))


def test_jacobi_image_zero():
    """The cyclic sum of relabelled corolla chains vanishes, so the
    generator assignment extends to the quotient by Jacobi."""
    from liegraphs.poly import s_action
    for d in (1, 2):
        nested = o_compose(corolla(d), 1, corolla(d))
        total = OElement(3, d, {}, "lie")
        for sigma in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            total = total + s_action(nested, sigma)
        assert total.is_zero()


def test_map_i_corolla():
    for d in (1, 2):
        assert map_i(normalize((1, 2), d), d) == corolla(d)


def test_map_i_quotient_coherence():
    """Projecting the image of a Lie element recovers the graph-operad
    image."""
    from liegraphs.lie import LieElement, basis_words
    rng = random.Random(21)
    for _ in range(10):
        d = rng.choice([1, 2])
        m = rng.randint(2, 4)
        words = basis_words(m)
        x = LieElement(m, {w: Fraction(rng.randint(-2, 2))
                           for w in rng.sample(words, min(2, len(words)))},
                       d)
        assert quotient_to_gra(map_i(x, d)) == gra_image(x, d)


def test_map_i_is_morphism():
    """map_i intertwines graft with o_compose through arity 4; for even
    d the comparison carries the suspension sign (-1)^((i-1)(k-1))."""
    from liegraphs.lie import LieElement, basis_words, graft
    rng = random.Random(9)
    for _ in range(12):
        d = rng.choice([1, 2])
        m = rng.randint(2, 3)
        k = rng.randint(2, 3)
        if m + k - 1 > 4:
            k = 2
        x = LieElement(m, {rng.choice(basis_words(m)):
                           Fraction(rng.randint(-2, 2))}, d)
        y = LieElement(k, {rng.choice(basis_words(k)):
                           Fraction(rng.randint(-2, 2))}, d)
        i = rng.randint(1, m)
        lhs = map_i(graft(x, i, y), d)
        rhs = o_compose(map_i(x, d), i, map_i(y, d))
        if d % 2 == 0 and (i - 1) * (k - 1) % 2 == 1:
            rhs = rhs.scaled(Fraction(-1))
        assert lhs == rhs


def random_o(rng, d, arity, comp_lens):
    """Random element homogeneous in component sizes (hence in degree)."""
    out = OElement(arity, d, {}, "lie")
    for _ in range(2):
        words = []
        for m in comp_lens:
            letters = tuple(sorted(rng.choice(range(1, arity + 1))
                                   for _ in range(m)))
            basis = basis_for_multiset(letters, (d - 1) % 2)
            if not basis:
                break
            words.append(rng.choice(basis))
        else:
            out = out + make_term(arity, d, words,
                                  Fraction(rng.randint(-2, 2)))
    return out


def test_operad_axioms_random():
    rng = random.Random(4)
    done = 0
    while done < 8:
        d = rng.choice([1, 2])
        m = rng.randint(2, 3)
        a = random_o(rng, d, m, [rng.randint(2, 3)])
        b = random_o(rng, d, 2, [rng.randint(2, 3)])
        c = random_o(rng, d, 2, [rng.randint(2, 3)])
        if b.is_zero() or c.is_zero():
            continue
        done += 1
        i = rng.randint(1, m)
        j = rng.randint(i, i + b.arity - 1)
        lhs = o_compose(o_compose(a, i, b), j, c)
        rhs = o_compose(a, i, o_compose(b, j - i + 1, c))
        assert lhs == rhs
        # disjoint slots with the Koszul sign (-1)^(|b||c|)
        p, q = sorted(rng.sample(range(1, m + 1), 2))
        lhs2 = o_compose(o_compose(a, p, b), q + b.arity - 1, c)
        rhs2 = o_compose(o_compose(a, q, c), p, b)
        if (b.degree() * c.degree()) % 2 == 1:
            rhs2 = rhs2.scaled(Fraction(-1))
        assert lhs2 == rhs2


def test_ass_operad_axioms_random():
    rng = random.Random(6)
    for _ in range(10):
        m = rng.randint(2, 3)

        def rand_ass(arity):
            out = OElement(arity, 1, {}, "ass")
            for _ in range(2):
                k = rng.randint(2, 3)
                word = tuple(rng.choice(range(1, arity + 1))
                             for _ in range(k))
                out = out + make_term(arity, 1, [word],
                                      Fraction(rng.randint(-2, 2)),
                                      kind="ass")
            return out

        a, b, c = rand_ass(m), rand_ass(2), rand_ass(2)
        i = rng.randint(1, m)
        j = rng.randint(i, i + 1)
        assert (o_compose(o_compose(a, i, b), j, c)
                == o_compose(a, i, o_compose(b, j - i + 1, c)))


def test_ass_remark_residue():
    res = ass_remark_check()
    want = make_term(3, 1, [(1, 2), (1, 3)], kind="ass") \
        - make_term(3, 1, [(1, 3), (2, 3)], kind="ass")
    assert res == want
    assert not res.is_zero()
    assert sorted(res.terms.values()) == [Fraction(-1), Fraction(1)]


def test_ass_corolla_display():
    assert ass_corolla(3).terms == {((1, 2, 3),): Fraction(1)}


def test_quotient_to_gra_generators():
    for d in (1, 2):
        assert quotient_to_gra(map_i(normalize((1, 2), d), d)) \
            == lie_to_gra(d)
    # a 3-slot component lies in the ideal
    assert quotient_to_gra(make_term(3, 1, [(1, 2, 3)])).is_zero()


def test_quotient_is_morphism():
    rng = random.Random(8)
    for _ in range(10):
        d = rng.choice([1, 2])
        m = rng.randint(2, 3)
        a = random_o(rng, d, m, [2] * rng.randint(1, 2))
        b = random_o(rng, d, 2, [2] * rng.randint(1, 2))
        i = rng.randint(1, m)
        assert quotient_to_gra(o_compose(a, i, b)) \
            == gra_compose(quotient_to_gra(a), i, quotient_to_gra(b))
    # and on the worked corolla example
    for d in (1, 2):
        lhs = quotient_to_gra(o_compose(corolla(d), 2, corolla(d)))
        rhs = gra_compose(lie_to_gra(d), 2, lie_to_gra(d))
        assert lhs == rhs


def test_connectivity_preserved():
    rng = random.Random(12)
    checked = 0
    for _ in range(30):
        d = rng.choice([1, 2])
        m = rng.randint(2, 3)
        a = random_o(rng, d, m, [rng.randint(2, 3)])
        b = random_o(rng, d, 2, [rng.randint(2, 3)])
        if not (is_connected_element(a) and is_connected_element(b)):
            continue
        out = o_compose(a, rng.randint(1, m), b)
        assert is_connected_element(out)
        checked += 1
    assert checked >= 10


def test_degree_additive():
    for d in (1, 2):
        a = make_term(3, d, [(1, 2, 3)])
        b = corolla(d)
        assert o_compose(a, 1, b).degree() == a.degree() + b.degree()


def test_json_roundtrip():
    rng = random.Random(14)
    for _ in range(8):
        d = rng.choice([1, 2])
        x = random_o(rng, d, 3, [rng.randint(2, 3), 2])
        assert OElement.from_json(x.to_json()) == x
    y = ass_remark_check()
    assert OElement.from_json(y.to_json()) == y
