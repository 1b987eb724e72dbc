"""Free Lie normal forms, grafting and BCH, against independent oracles.

The main oracle is the faithful expansion into the free associative
algebra ([a,b] = ab - ba): an identity of Lie elements holds iff the
expansions agree.  The span oracle computes dimensions by ranking the
expansions of all bracketings with exact linear algebra.
"""

import random
import re
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from liegraphs.gra import GraElement, gra_image
from liegraphs.lie import (BracketParseError, LieElement, assoc_expand,
                           basis_words, bch_truncated, dim_lie, graft, image,
                           left_normed_assoc_expansion, normalize,
                           parse_bracket, pretty_bracket, tree_leaves,
                           word_to_tree)
from liegraphs.linalg import SparseMatrix, rank
from liegraphs.poly import OElement, map_i

from trees import _relabel_tree, all_bracketings


def all_trees(m):
    for perm in permutations(range(1, m + 1)):
        yield from all_bracketings(perm)


def span_rank(vectors):
    """Rank of a list of dicts word -> Fraction."""
    keys = sorted({k for v in vectors for k in v})
    index = {k: i for i, k in enumerate(keys)}
    cols = [{index[k]: c for k, c in v.items()} for v in vectors]
    return rank(SparseMatrix.from_columns(cols, n_rows=len(keys)))


# -- parser -----------------------------------------------------------

def test_parse_pretty_roundtrip():
    for text in ["1", "[1, 2]", "[[1, 2], [3, 4]]", "[1, [2, [3, 4]]]"]:
        assert pretty_bracket(parse_bracket(text)) == text


def test_parse_whitespace_insensitive():
    assert parse_bracket(" [ 1 ,\n[2,  3] ] ") == (1, (2, 3))


def test_parse_errors_carry_location():
    with pytest.raises(BracketParseError) as exc:
        parse_bracket("[1, 2")
    assert exc.value.line == 1 and exc.value.column == 6
    with pytest.raises(BracketParseError) as exc:
        parse_bracket("[1,\n[2 3]]")
    assert exc.value.line == 2
    for text, message, column in [
            ("", "unexpected end of input", 1),
            ("[1,", "unexpected end of input", 4),
            ("[x, 1]", "expected integer or '['", 2),
            ("[1, 2]]", "trailing input", 7)]:
        with pytest.raises(BracketParseError, match=re.escape(message)) as exc:
            parse_bracket(text)
        assert (exc.value.line, exc.value.column) == (1, column)


# -- normalize --------------------------------------------------------

def test_antisymmetry():
    assert normalize((2, 1)) == normalize((1, 2)).scaled(Fraction(-1))
    assert normalize((1, 2)).terms == {(1, 2): Fraction(1)}
    # [x, x] vanishes for even generators and is 2xx for odd ones
    assert assoc_expand((1, 1), 0) == {}
    assert assoc_expand((1, 1), 1) == {(1, 1): 2}


def test_jacobi_relator_is_zero():
    relator = [(1, (1, (2, 3))), (1, (2, (3, 1))), (1, (3, (1, 2)))]
    assert normalize(relator).is_zero()


def random_tree(labels, rng):
    """A uniformly cut random bracketing of the label sequence."""
    if len(labels) == 1:
        return labels[0]
    cut = rng.randint(1, len(labels) - 1)
    return (random_tree(labels[:cut], rng), random_tree(labels[cut:], rng))


def test_normalize_faithful_against_assoc_oracle():
    # Expansion is injective on Lie elements, so agreement of the full
    # expansions fixes every coordinate in the basis.
    rng = random.Random(3)
    trees = [t for m in range(1, 6) for t in all_trees(m)]
    for _ in range(80):
        m = rng.randint(2, 5)
        trees.append(rng.choice(list(all_bracketings(
            tuple(rng.sample(range(1, m + 1), m))))))
    for _ in range(40):
        m = rng.randint(6, 9)
        labels = list(range(3, m + 3))
        rng.shuffle(labels)
        trees.append(random_tree(labels, rng))
    for tree in trees:
        elem = normalize(tree)
        assert elem.assoc_expansion() == assoc_expand(tree)
        least = min(tree_leaves(tree))
        assert all(w[0] == least for w in elem.terms)


def test_normalize_idempotent():
    elem = normalize(((1, 2), (3, 4)))
    again = normalize([(c, word_to_tree(w)) for w, c in elem.terms.items()])
    assert again == elem


def test_normalize_rejects_bad_input():
    with pytest.raises(ValueError):
        normalize((1, (2, 1)))
    with pytest.raises(ValueError):
        normalize([(1, (1, 2)), (1, (1, 3))])


def test_jacobi_random_relabelings_die():
    rng = random.Random(9)
    for _ in range(40):
        m = rng.randint(3, 6)
        a, b, c = rng.sample(range(1, m + 1), 3)
        spectators = [x for x in range(1, m + 1) if x not in (a, b, c)]
        core = [(a, (b, c)), (b, (c, a)), (c, (a, b))]
        trees = []
        for t in core:
            for s in spectators:
                t = (t, s)
            trees.append((Fraction(1), t))
        assert normalize(trees).is_zero()


def test_dim_lie_small():
    assert dim_lie(1) == 1
    assert dim_lie(2) == 1
    assert dim_lie(4) == 6
    # the arity is a positive int; a bool is not one
    for m in (0, -1):
        with pytest.raises(ValueError, match="positive"):
            dim_lie(m)
        with pytest.raises(ValueError, match="positive"):
            basis_words(m)
    for m in (True, 2.0, "2", None):
        with pytest.raises(TypeError, match="not an int"):
            dim_lie(m)
        with pytest.raises(TypeError, match="not an int"):
            basis_words(m)


def test_dim_lie_matches_span_oracle():
    for m in range(1, 7):
        assert dim_lie(m) == (
            1 if m == 1 else span_rank(
                [assoc_expand(t) for t in all_trees(m)]))


def test_basis_words_independent():
    for m in range(2, 6):
        vecs = [assoc_expand(word_to_tree(w)) for w in basis_words(m)]
        assert span_rank(vecs) == len(vecs) == dim_lie(m)


# -- graft ------------------------------------------------------------

def unit():
    return LieElement(1, {(1,): Fraction(1)})


def test_graft_unit():
    e = normalize((1, 2))
    assert graft(e, 1, unit()) == e
    assert graft(e, 2, unit()) == e
    assert graft(unit(), 1, e) == e


def test_graft_forced_substitution():
    e = normalize((1, 2))
    assert graft(e, 2, e) == normalize((1, (2, 3)))


def test_graft_matches_oracle():
    # graft into tree [1,[2,3]] at slot 2: substitute [s,s+1] for leaf 2
    out = graft(normalize((1, (2, 3))), 2, normalize((1, 2)))
    assert out.assoc_expansion() == assoc_expand((1, ((2, 3), 4)))


def test_image_under_lie_itself_is_identity():
    """lie.image with Lie's own unit, bracket, composition and action
    fixes every basis word: at even d the word's sign cancels the sign
    of the action.  The polydifferential and graph images of an empty
    element are empty elements of their own class and arity."""
    checked = 0
    for d in (1, 2):
        lie_unit = LieElement(1, {(1,): 1}, d)
        mu = LieElement.bracket(d)
        for m in range(1, 6):
            for w in basis_words(m):
                x = LieElement(m, {w: 1}, d)
                assert image(x, lie_unit, mu) == x, (d, w)
                checked += 1
        for m in (0, 3):
            empty = LieElement(m, {}, d)
            for got, cls in ((map_i(empty), OElement),
                             (gra_image(empty), GraElement)):
                assert type(got) is cls and got.arity == m
                assert got.is_zero()
    assert checked == 68


def test_lie_elements_of_different_d_do_not_mix():
    """d lives on the element: Lie elements with the same words but
    different d are unequal, and adding them is an error, not a sum
    under the left operand's sign rule."""
    for d, e in ((1, 2), (2, 1), (1, 3)):
        a = LieElement(2, {(1, 2): 1}, d)
        b = LieElement(2, {(1, 2): 1}, e)
        assert a != b
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            a - b


def test_element_refuses_non_int_arity_and_d():
    """As OrientedGraph, GraElement and OElement do, LieElement refuses
    an arity or d that is not an int (a bool included)."""
    for arity, terms, d in ((1.5, {(1,): 1}, 1), (2, {(1, 2): 1}, True),
                            (2, {(1, 2): 1}, 1.0)):
        with pytest.raises(TypeError):
            LieElement(arity, terms, d)


def test_graft_slot_range():
    with pytest.raises(ValueError):
        graft(normalize((1, 2)), 3, unit())


def test_graft_and_compose_refuse_a_non_int_slot():
    """As in gra and poly, a slot that is not an int (a bool included)
    raises TypeError rather than composing at a rounded slot."""
    x = LieElement.bracket(1)
    for slot in (1.5, True):
        with pytest.raises(TypeError, match="index"):
            graft(x, slot, x)
        with pytest.raises(TypeError, match="index"):
            x.compose(slot, x)


def test_act_refuses_non_permutations():
    """act relabels only by a permutation of 1..arity."""
    x = LieElement.bracket(1)
    for sigma in ((2, 3), (2, 1, 3), (1, 1), (1,)):
        with pytest.raises(ValueError, match="not a permutation"):
            x.act(sigma)
    assert x.act([2, 1]) == x.act((2, 1)) == x.scaled(-1)


def test_graft_refuses_mixed_d():
    """Like gra.compose and poly.o_compose, graft composes only elements
    of one d."""
    for outer, slot, inner in ((1, 1, 2), (2, 2, 1)):
        with pytest.raises(ValueError):
            LieElement.bracket(outer).compose(slot, LieElement.bracket(inner))
        with pytest.raises(ValueError):
            graft(LieElement.bracket(outer), slot, LieElement.bracket(inner))


def random_element(rng, m):
    words = basis_words(m)
    terms = {w: Fraction(rng.randint(-3, 3)) for w in rng.sample(
        words, min(len(words), rng.randint(1, 3)))}
    return LieElement(m, terms)


def _sentinel_graft(outer, slot, inner):
    """The formula graft replaced: the outer slot becomes a sentinel
    leaf, which a walk of its own swaps for each inner tree."""
    k = inner.arity
    sentinel = object()

    def substitute(t, replacement):
        if isinstance(t, tuple):
            return (substitute(t[0], replacement),
                    substitute(t[1], replacement))
        return replacement if t is sentinel else t

    outer_map = {j: (j if j < slot else sentinel if j == slot else j + k - 1)
                 for j in range(1, outer.arity + 1)}
    inner_map = {j: j + slot - 1 for j in range(1, k + 1)}
    combos = []
    for wo, co in outer.terms.items():
        to = _relabel_tree(word_to_tree(wo), outer_map)
        for wi, ci in inner.terms.items():
            ti = _relabel_tree(word_to_tree(wi), inner_map)
            combos.append((co * ci, substitute(to, ti)))
    if not combos:
        return LieElement(outer.arity + k - 1, {})
    return normalize(combos)


def test_graft_matches_sentinel_oracle():
    rng = random.Random(31)
    for _ in range(60):
        m, k = rng.randint(1, 4), rng.randint(1, 3)
        a, b = random_element(rng, m), random_element(rng, k)
        slot = rng.randint(1, m)
        assert graft(a, slot, b) == _sentinel_graft(a, slot, b)


def test_graft_operadic_associativity():
    rng = random.Random(17)
    for _ in range(25):
        m, k, l = rng.randint(2, 4), rng.randint(2, 3), rng.randint(2, 3)
        a = random_element(rng, m)
        b = random_element(rng, k)
        c = random_element(rng, l)
        i = rng.randint(1, m)
        j = rng.randint(i, i + k - 1)  # slot inside the grafted b
        lhs = graft(graft(a, i, b), j, c)
        rhs = graft(a, i, graft(b, j - i + 1, c))
        assert lhs == rhs


def test_graft_parallel_compatibility():
    rng = random.Random(29)
    for _ in range(20):
        m = rng.randint(3, 4)
        a = random_element(rng, m)
        b = random_element(rng, rng.randint(2, 3))
        c = random_element(rng, rng.randint(2, 3))
        i, j = sorted(rng.sample(range(1, m + 1), 2))
        lhs = graft(graft(a, i, b), j + b.arity - 1, c)
        rhs = graft(graft(a, j, c), i, b)
        assert lhs == rhs


# -- BCH --------------------------------------------------------------

def test_bch_order_1():
    assert bch_truncated(1)[1] == {("X",): Fraction(1), ("Y",): Fraction(1)}
    with pytest.raises(ValueError):
        bch_truncated(0)
    # the order is an int: a bool is not one, nor is 2.5
    for bad in (True, 2.5):
        with pytest.raises(TypeError, match="not an int"):
            bch_truncated(bad)


def test_bch_order_2():
    assert bch_truncated(2)[2] == {("X", "Y"): Fraction(1, 2)}


def test_bch_order_3():
    # (1/12)([X,[X,Y]] + [[X,Y],Y]) expanded to left-normed words:
    # [X,[X,Y]] = -[[X,Y],X] = -(X,Y,X); [[X,Y],Y] = (X,Y,Y)
    got = left_normed_assoc_expansion(bch_truncated(3)[3])
    want = {}
    for w, c in {(("X", ("X", "Y"))): Fraction(1, 12),
                 ((("X", "Y"), "Y")): Fraction(1, 12)}.items():
        for word, v in assoc_expand(w).items():
            want[word] = want.get(word, Fraction(0)) + c * v
    assert got == {w: c for w, c in want.items() if c != 0}


def test_bch_antisymmetry_property():
    # BCH(X,Y) = -BCH(-Y,-X): the degree-n expansion equals its letter
    # swap scaled by (-1)^(n+1)
    order = 5
    direct = bch_truncated(order)
    flip = {"X": "Y", "Y": "X"}
    for n in range(1, order + 1):
        lhs = left_normed_assoc_expansion(direct[n])
        rhs = {tuple(flip[l] for l in w): ((-1) ** (n + 1)) * c
               for w, c in lhs.items()}
        assert lhs == rhs, n


def test_bch_matches_exp_log_identity():
    # e^X e^Y == e^BCH in the truncated associative algebra, order 5
    import math
    order = 5
    comps = bch_truncated(order)
    z = {}
    for n, combo in comps.items():
        for w, c in left_normed_assoc_expansion(combo).items():
            z[w] = z.get(w, Fraction(0)) + c
    # exp(z) truncated
    expz = {(): Fraction(1)}
    power = {(): Fraction(1)}
    for k in range(1, order + 1):
        nxt = {}
        for wa, ca in power.items():
            for wb, cb in z.items():
                if len(wa) + len(wb) <= order:
                    w = wa + wb
                    nxt[w] = nxt.get(w, Fraction(0)) + ca * cb
        power = nxt
        for w, c in power.items():
            expz[w] = expz.get(w, Fraction(0)) + c / math.factorial(k)
    want = {}
    for a in range(order + 1):
        for b in range(order + 1 - a):
            w = ("X",) * a + ("Y",) * b
            want[w] = Fraction(1, math.factorial(a) * math.factorial(b))
    assert {w: c for w, c in expz.items() if c != 0} == want
