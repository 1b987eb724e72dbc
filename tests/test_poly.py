"""Polydifferential operad: worked compositions, morphisms, axioms."""

import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from liegraphs import poly
from liegraphs.gra import GraElement, compose as gra_compose, gra_image
from liegraphs.gra import element as gra_element
from liegraphs.graphs import OrientedGraph, perm_sign
from liegraphs.lie import normalize
from liegraphs.poly import (OElement, ass_corolla, ass_remark_check,
                            basis_for_multiset, component_normal_form,
                            is_connected_element, is_lyndon, lyndon_tree,
                            make_term, map_i, o_compose, quotient_to_gra,
                            unit)


def _relabel_tree(tree, mapping):
    """The tree with every leaf replaced by its image under `mapping`:
    a leaf rewrite of the tests' own, beside `lie.refill`."""
    if isinstance(tree, tuple):
        return (_relabel_tree(tree[0], mapping),
                _relabel_tree(tree[1], mapping))
    return mapping[tree]


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
    # only basis words have a bracketing: not the empty word, a word
    # that is not Lyndon, or the square of an even-length word
    for w in ((), (2, 1), (1, 2, 1), (1, 2, 1, 2)):
        with pytest.raises(ValueError, match="not a"):
            lyndon_tree(w)


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
    for i in (True, 1.0, "1", None):
        with pytest.raises(TypeError, match="index"):
            o_compose(corolla(1), i, corolla(1))
    # operands of other d or kind
    for b in (corolla(2), ass_corolla(2)):
        with pytest.raises(ValueError, match="d/kind"):
            o_compose(corolla(1), 1, b)


def test_make_term_rejects_bad_words():
    """A white outside 1..arity, or a component with no slot (it has no
    leaf to hold a bracket tree), is refused."""
    for words in ([(1, 3)], [(1, 2), ()]):
        for kind in ("lie", "ass"):
            with pytest.raises(ValueError):
                make_term(2, 1, words, kind=kind)
    # a white that is not an int, a bool included
    for words in ([(1, 2.0)], [(True, 2)], [(1, "2")]):
        for kind in ("lie", "ass"):
            with pytest.raises(TypeError, match="not an int"):
                make_term(2, 1, words, kind=kind)


def test_make_term_requires_basis_words():
    """(2, 1) is -[1, 2], not a basis word; [x, x] = 0 at odd d, and the
    square u.u is a basis word only for u Lyndon of odd length at even
    d.  The ass kind takes any word."""
    for d, w in ((2, (2, 1)), (1, (2, 1)), (1, (1, 1)), (1, (3, 3)),
                 (1, (1, 2, 1)), (2, (1, 2, 1, 2)), (2, (2, 1, 2, 1))):
        with pytest.raises(ValueError, match="basis word"):
            make_term(4, d, [w])
        # nor has an element that holds it a JSON form
        with pytest.raises(ValueError, match="basis word"):
            OElement(4, d, {(w,): 1}).to_json()
        assert not make_term(4, 1, [w], kind="ass").is_zero()
    assert make_term(2, 2, [(1, 2)]).scaled(-1) \
        == OElement(2, 2, {((1, 2),): -1})
    square = make_term(3, 2, [(3, 3)])
    assert OElement.from_json(square.to_json()) == square
    assert not square.is_zero()
    assert not make_term(3, 2, [(1, 2, 3, 1, 2, 3)]).is_zero()
    # the cheap test agrees with the basis on every word of length <= 6
    # over three letters, at both parities
    bases = {}
    for n in range(1, 7):
        for w in product((1, 2, 3), repeat=n):
            for p in (0, 1):
                key = (tuple(sorted(w)), p)
                if key not in bases:
                    bases[key] = set(basis_for_multiset(*key))
                assert poly._is_basis_word(w, p) == (w in bases[key]), (w, p)


def test_oelement_rejects_bad_kind_and_arity():
    with pytest.raises(ValueError, match="kind"):
        OElement(2, 1, {((1, 2),): 1}, "foo")
    with pytest.raises(ValueError, match="arity"):
        OElement(-1, 1, {})
    assert OElement(0, 1, {}).is_zero()


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


def test_s_action_rejects_non_permutations():
    x = make_term(2, 1, [(1, 2)])
    poly._term_action.cache_clear()
    for sigma in ((2, 3), (0, 2), (1, 1), (1,), (1, 2, 3)):
        with pytest.raises(ValueError):
            poly.s_action(x, sigma)
    assert poly._term_action.cache_info().currsize == 0
    assert poly.s_action(x, [2, 1]) == poly.s_action(x, (2, 1))


def _oracle_sort_term(words, d, kind):
    """Sort component words by (length, word); the sign is that of the
    sorting permutation on the odd components, 0 if one repeats."""
    keyed = sorted(range(len(words)), key=lambda i: (len(words[i]), words[i]))
    out = tuple(words[i] for i in keyed)
    if kind == "ass" or d % 2 == 1:
        return out, 1
    for a, b in zip(out, out[1:]):
        if a == b and poly._parity(a, poly._gen_parity(d, kind)) == 1:
            return out, 0
    return out, perm_sign([i for i in keyed
                           if poly._parity(words[i],
                                           poly._gen_parity(d, kind)) == 1])


def _oracle_expand_product(out_terms, combos, tail, coeff, d, kind):
    """Recursive multilinear expansion of a product of component
    combinations, each product term sorted by `_oracle_sort_term`."""
    def rec(idx, words, c):
        if idx == len(combos):
            key, sign = _oracle_sort_term(words + tail, d, kind)
            if sign:
                out_terms[key] = out_terms.get(key, 0) + sign * c
            return
        for w, cv in combos[idx].items():
            rec(idx + 1, words + [w], c * cv)
    rec(0, [], coeff)


def _oracle_assignments(n_items, slots):
    """All maps {0..n_items-1} -> slots + [None], injective on slots,
    built recursively."""
    def rec(u, used):
        if u == n_items:
            yield []
            return
        for choice in [None] + [s for s in slots if s not in used]:
            for rest in rec(u + 1, used | ({choice} if choice is not None
                                           else set())):
                yield [choice] + rest
    yield from rec(0, frozenset())


# component words with odd and even components at both parities
SORT_TERM_POOL = [(1,), (2,), (1, 2), (1, 3), (2, 3), (1, 2, 3), (1, 3, 2),
                  (1, 2, 3, 4), (3, 3)]


def test_sort_term_matches_oracle():
    """Every tuple of up to four words from a pool with odd and even
    components at both parities; (1, 2) and (1, 2, 3, 4) repeated are
    odd at d = 2 and give sign 0."""
    zeros = 0
    for d, kind in ((1, "lie"), (2, "lie"), (1, "ass"), (2, "ass")):
        for n in range(5):
            for words in product(SORT_TERM_POOL, repeat=n):
                want = _oracle_sort_term(list(words), d, kind)
                p = poly._gen_parity(d, kind)
                assert poly._sort_term(list(words), p) == want
                zeros += want[1] == 0
    assert zeros >= 100


def test_expand_product_of_one_combination_matches_oracle():
    """One normal-form combination times a tail of 0 or 1 word, the
    products composition makes most, against the recursive oracle:
    every combination of one or two words of the sort-term pool, with
    every tail.  At d = 2 the odd (1, 2) repeated is zero, and an odd
    pair in the wrong order swaps with sign -1."""
    pool = SORT_TERM_POOL
    combos = [{w: Fraction(-2, 3)} for w in pool]
    combos += [{w: 3, v: Fraction(1, 2)} for w, v in product(pool, pool)
               if w != v]
    zeros = swaps = 0
    for d, kind in ((1, "lie"), (2, "lie"), (1, "ass"), (2, "ass")):
        p = poly._gen_parity(d, kind)
        for nf in combos:
            for tail in [[]] + [[v] for v in pool]:
                got, want = {}, {}
                poly._expand_product(got, [nf], tail, 5, p)
                _oracle_expand_product(want, [nf], tail, 5, d, kind)
                assert got == {t: c for t, c in want.items() if c}
                for w in nf:
                    sign = _oracle_sort_term([w] + tail, d, kind)[1]
                    zeros += sign == 0
                    swaps += sign == -1
    assert zeros >= 10 and swaps >= 100


def _reference_s_action(x, sigma):
    """The uncached action: relabel each component's Lyndon tree,
    renormalize it and expand the product of the components."""
    p = (x.d - 1) % 2 if x.kind == "lie" else 0
    mapping = dict(enumerate(sigma, 1))
    out_terms = {}
    for t, c in x.terms.items():
        combos = []
        for w in t:
            if x.kind == "ass":
                combos.append({tuple(sigma[l - 1] for l in w): Fraction(1)})
            else:
                combos.append(component_normal_form(
                    _relabel_tree(lyndon_tree(w), mapping), p))
        _oracle_expand_product(out_terms, combos, [], c, x.d, x.kind)
    return OElement(x.arity, x.d, out_terms, x.kind)


def _slice_elements():
    """Every term of the def-olie slices with n <= 3, k <= 3, d in
    {1, 2}, one at a time and all together with distinct weights."""
    for d in (1, 2):
        for n in (1, 2, 3):
            for k in range(4):
                terms = [t for t in poly.terms(n, k, d)
                         if poly.is_connected_term(n, t)]
                for t in terms:
                    yield OElement(n, d, {t: Fraction(1)})
                if terms:
                    yield OElement(n, d, {t: Fraction(j + 1, 2)
                                          for j, t in enumerate(terms)})


def _ass_elements():
    m = ass_corolla(2)
    return [ass_remark_check(), o_compose(m, 1, m),
            make_term(3, 1, [(3, 1, 1), (2, 3)], Fraction(5), kind="ass")
            + make_term(3, 1, [(2,), (1, 3, 2)], Fraction(-1, 3),
                        kind="ass")]


def test_s_action_matches_uncached_oracle():
    for x in list(_slice_elements()) + _ass_elements():
        for sigma in permutations(range(1, x.arity + 1)):
            assert poly.s_action(x, sigma) == _reference_s_action(x, sigma)


def test_s_action_is_an_action():
    # convention, from a hand example: acting by sigma, then by tau, is
    # acting by the permutation i -> tau[sigma[i]]
    x = make_term(3, 1, [(1, 2)])
    sigma, tau = (2, 1, 3), (1, 3, 2)
    want = make_term(3, 1, [(1, 3)], Fraction(-1))
    assert poly.s_action(poly.s_action(x, sigma), tau) == want
    assert poly.s_action(x, (3, 1, 2)) == want
    for x in list(_slice_elements()) + _ass_elements():
        perms = list(permutations(range(1, x.arity + 1)))
        for sigma in perms:
            once = poly.s_action(x, sigma)
            for tau in perms:
                composed = tuple(tau[s - 1] for s in sigma)
                assert (poly.s_action(once, tau)
                        == poly.s_action(x, composed))


def test_map_i_corolla():
    for d in (1, 2):
        assert map_i(normalize((1, 2), d)) == corolla(d)


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
        assert quotient_to_gra(map_i(x)) == gra_image(x)


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
        lhs = map_i(graft(x, i, y))
        rhs = o_compose(map_i(x), i, map_i(y))
        if d % 2 == 0 and (i - 1) * (k - 1) % 2 == 1:
            rhs = rhs.scaled(Fraction(-1))
        assert lhs == rhs
        # the sign-free form: the suspension sign is inside compose
        assert map_i(x.compose(i, y)) == map_i(x).compose(i, map_i(y))


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


def _marker_o_compose(a, i, b):
    """The marker-based composition that o_compose replaced: markers are
    ("mk", component, position) tuples that a tree walk of their own
    substitutes, and ass components are flat tuples flattened again
    after grafting.  Assignments and products expand through the
    recursive oracle helpers above, not the library's."""
    d, kind = a.d, a.kind
    p = (d - 1) % 2 if kind == "lie" else 0
    n2 = b.arity

    def is_marker(t):
        return isinstance(t, tuple) and len(t) > 0 and t[0] == "mk"

    def substitute(t, mapping):
        if is_marker(t):
            return mapping[t]
        if isinstance(t, tuple):
            return tuple(substitute(x, mapping) for x in t)
        return t

    def flatten(t):
        out = []
        for x in t:
            out.extend(flatten(x) if isinstance(x, tuple) else [x])
        return tuple(out)

    b_whites = [j + i - 1 for j in range(1, n2 + 1)]
    out_terms = {}
    for ta, ca in a.terms.items():
        trees, marker_list, marker_comp, marker_after = [], [], {}, {}
        for t_idx, w in enumerate(ta):
            w = tuple(x if x <= i else x + n2 - 1 for x in w)
            pos = iter(range(len(w)))

            def walk(t):
                if isinstance(t, tuple):
                    return tuple(walk(x) for x in t)
                k = next(pos)
                if t != i:
                    return t
                m = ("mk", t_idx, k)
                marker_list.append(m)
                marker_comp[m] = t_idx
                marker_after[m] = len(w) - 1 - k
                return m

            trees.append(walk(lyndon_tree(w) if kind == "lie" else w))
        pa = [poly._parity(w, poly._gen_parity(d, kind)) for w in ta]
        for tb, cb in b.terms.items():
            b_words = [tuple(x + i - 1 for x in w) for w in tb]
            b_trees = [lyndon_tree(w) if kind == "lie" else w
                       for w in b_words]
            q = len(b_words)
            pb = [poly._parity(w, poly._gen_parity(d, kind))
                  for w in b_words]
            for assignment in _oracle_assignments(q, marker_list):
                covered = {m: u for u, m in enumerate(assignment)
                           if m is not None}
                free = [m for m in marker_list if m not in covered]
                unconsumed = [u for u in range(q) if assignment[u] is None]
                final = []
                for t_idx in range(len(ta)):
                    final.append(t_idx)
                    final.extend(len(ta) + covered[m] for m in marker_list
                                 if marker_comp[m] == t_idx
                                 and m in covered)
                final.extend(len(ta) + u for u in unconsumed)
                sign = perm_sign([x for x in final if (pa + pb)[x]])
                if kind == "lie" and d % 2 == 0:
                    for m, u in covered.items():
                        if pb[u] and marker_after[m] % 2 == 1:
                            sign = -sign
                for g in product(b_whites, repeat=len(free)):
                    mapping = {m: b_trees[u] for m, u in covered.items()}
                    mapping.update(zip(free, g))
                    combos = []
                    for tree in trees:
                        st = substitute(tree, mapping)
                        if kind == "ass":
                            combos.append({flatten(st): 1})
                        else:
                            combos.append(component_normal_form(st, p))
                    if all(combos):
                        _oracle_expand_product(
                            out_terms, combos,
                            [b_words[u] for u in unconsumed],
                            ca * cb * sign, d, kind)
    return OElement(a.arity + n2 - 1, d, out_terms, kind)


def _random_with_repeats(rng, d, arity, kind):
    """Up to three terms of one or two components each; the letters of
    a component are drawn with repetition, so a white often occurs
    several times in one term."""
    out = OElement(arity, d, {}, kind)
    for _ in range(rng.randint(1, 3)):
        words = []
        for _ in range(rng.randint(1, 2)):
            letters = tuple(sorted(rng.randint(1, arity)
                                   for _ in range(rng.randint(2, 3))))
            if kind == "ass":
                words.append(tuple(rng.sample(letters, len(letters))))
                continue
            basis = basis_for_multiset(letters, (d - 1) % 2)
            if basis:
                words.append(rng.choice(basis))
        if words:
            out = out + make_term(arity, d, words, rng.randint(-3, 3),
                                  kind=kind)
    return out


def test_o_compose_matches_marker_oracle():
    rng = random.Random(10)
    repeated = multi = mixed = 0
    for _ in range(150):
        kind = rng.choice(["lie", "lie", "ass"])
        d = rng.choice([1, 2]) if kind == "lie" else 1
        a = _random_with_repeats(rng, d, rng.randint(1, 3), kind)
        b = _random_with_repeats(rng, d, rng.randint(1, 3), kind)
        i = rng.randint(1, a.arity)
        repeated += any(sum(w.count(i) for w in t) > 1 for t in a.terms)
        multi += any(len(t) > 1 for t in a.terms)
        # a marker-free component beside one that holds white i
        mixed += any(len({i in w for w in t}) == 2 for t in a.terms)
        assert o_compose(a, i, b) == _marker_o_compose(a, i, b)
    assert repeated >= 30 and multi >= 30 and mixed >= 10


def test_ass_remark_residue():
    res = ass_remark_check()
    want = make_term(3, 1, [(1, 2), (1, 3)], kind="ass") \
        - make_term(3, 1, [(1, 3), (2, 3)], kind="ass")
    assert res == want
    assert not res.is_zero()
    assert sorted(res.terms.values()) == [Fraction(-1), Fraction(1)]


def test_ass_corolla_display():
    assert ass_corolla(3).terms == {((1, 2, 3),): Fraction(1)}


def _quotient_by_sums(x):
    """quotient_to_gra as one element sum per term."""
    out = GraElement(x.arity, x.d, {})
    for t, c in x.terms.items():
        if any(len(w) != 2 or w[0] == w[1] for w in t):
            continue
        out = out + gra_element(OrientedGraph(x.d, x.arity, tuple(t)), c)
    return out


def test_quotient_to_gra_matches_term_by_term_sums():
    """Summed into one dict, the projection of a many-term element is
    the sum of its terms' projections.  The raw terms come in pairs
    that list one edge set in two orders with coefficients that cancel
    in Gra, beside terms in the ideal (three slots, tadpoles)."""
    rng = random.Random(13)
    pairs = [(i, j) for i in range(1, 7) for j in range(i + 1, 7)]
    for d in (1, 2):
        terms = {((1, 2, 3),): 5, ((1, 1), (2, 3)): 2}
        while len(terms) < 600:
            t = tuple(rng.sample(pairs, 3))
            c = rng.randint(-3, 3) or 1
            terms[t] = c
            # t reversed swaps its first and last edge: an odd edge
            # permutation, which changes the sign of the graph at even d
            terms.setdefault(t[::-1], -c if d % 2 else c)
        x = OElement(6, d, terms)
        got = quotient_to_gra(x)
        assert got == _quotient_by_sums(x)
        assert 0 < len(got.terms) < len(terms) // 2


def test_quotient_to_gra_generators():
    for d in (1, 2):
        assert quotient_to_gra(map_i(normalize((1, 2), d))) \
            == GraElement.bracket(d)
    # a 3-slot component lies in the ideal
    assert quotient_to_gra(make_term(3, 1, [(1, 2, 3)])).is_zero()


def test_quotient_to_gra_checks_labels():
    """OElement does not check its words' labels, so the projection
    builds each graph through OrientedGraph's checks."""
    with pytest.raises(ValueError, match="out of range"):
        quotient_to_gra(OElement(2, 1, {((1, 3),): 1}))
    with pytest.raises(ValueError, match="Lie kind"):
        quotient_to_gra(ass_corolla(2))


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
        rhs = gra_compose(GraElement.bracket(d), 2, GraElement.bracket(d))
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


def test_is_connected_term_hand_cases():
    cases = {(0, ()): False, (1, ()): True, (2, ()): False,
             (2, ((1, 1),)): False, (3, ((1, 2), (2, 3))): True,
             (4, ((1, 2, 3), (4, 4))): False, (4, ((1, 2, 3), (3, 4))): True}
    for (arity, words), want in cases.items():
        assert poly.is_connected_term(arity, words) is want, (arity, words)


def test_degree_additive():
    for d in (1, 2):
        a = make_term(3, d, [(1, 2, 3)])
        b = corolla(d)
        assert o_compose(a, 1, b).degree() == a.degree() + b.degree()
    # terms with 1 and 2 internal vertices at d = 2
    with pytest.raises(ValueError, match="inhomogeneous"):
        (corolla(2) + make_term(2, 2, [(1, 1, 2)])).degree()


def test_json_roundtrip():
    rng = random.Random(14)
    for _ in range(8):
        d = rng.choice([1, 2])
        x = random_o(rng, d, 3, [rng.randint(2, 3), 2])
        assert OElement.from_json(x.to_json()) == x
    y = ass_remark_check()
    assert OElement.from_json(y.to_json()) == y


def test_json_refuses_bad_kind_or_arity_before_terms():
    rec = make_term(2, 1, [(1, 2)]).to_json()
    rec["terms"] = [{"coeff": "1"}]  # no components: unreadable
    for key, value, message in (("kind", "com", "unknown kind"),
                                ("arity", -1, "negative arity")):
        with pytest.raises(ValueError, match=message):
            OElement.from_json(dict(rec, **{key: value}))
