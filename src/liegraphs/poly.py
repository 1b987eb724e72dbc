"""The polydifferential operad of the (shifted) Lie operad, and of the
associative operad for the associator check.

An element of arity n is a linear combination of "terms", each a
multiset of internal irreducible components.  A component attaches its
payload slots to white vertices 1..n, so it is naturally an element of
the free Lie-type algebra on n generators:

* Lie kind, d odd: the ordinary free Lie algebra; components are Lyndon
  words in the white labels (a word is the left Lyndon bracketing).
* Lie kind, d even: the free super Lie algebra on odd generators
  ([A, B] = AB - (-1)^(|A||B|) BA on tensors); the basis consists of
  Lyndon words plus the squares u+u for Lyndon u of odd length.
* Ass kind: components are plain sequences of white labels (an element
  of the group algebra of the symmetric group); no relations, no signs.

A term is stored as the canonically sorted tuple of component words with
the accumulated Koszul sign; a component of odd operadic degree
((m-1)(1-d) for m slots) repeated twice kills the term.

Composition follows the erase-and-reattach procedure: the outputs of the
right operand's components attach injectively to the slot occurrences
formerly pointing at the erased white vertex (grafting trees) or to the
global output; uncovered occurrences then sum over the right operand's
white vertices.  The occurrences are negative marker leaves -1, -2, ...
of the left operand's components, so every substitution refills a
component's tree shape with one flat list of leaves (`_substituted`).
"""

from __future__ import annotations

from itertools import combinations_with_replacement, permutations, product
from types import MappingProxyType

from . import memo
from .gra import GraElement, _add_graph, _element
from .graphs import (OrientedGraph, _as_permutation, _check_arity,
                     _check_slot, _components, perm_sign)
from .lie import LieElement, assoc_expand, image, parse_bracket
from .lie import pretty_bracket, refill, tree_leaves, word_to_tree
from .linalg import (Combination, Echelon, _add, _exact, _exact_terms,
                     _json_coeff)


# -- free (super) Lie normal forms on repeated letters ----------------

def is_lyndon(w):
    return len(w) >= 1 and all(w < w[k:] for k in range(1, len(w)))


@memo
def lyndon_tree(w):
    """Standard left bracketing of a Lyndon word, or of a square u.u
    with u Lyndon of odd length; ValueError for any other word."""
    if not _is_basis_word(w, 1):
        raise ValueError(f"not a (super-)Lyndon basis word: {w}")
    if len(w) == 1:
        return w[0]
    half = len(w) // 2
    if w[:half] == w[half:]:  # a square, which is not Lyndon
        return (lyndon_tree(w[:half]),) * 2
    # longest proper Lyndon suffix
    k = next(k for k in range(1, len(w)) if is_lyndon(w[k:]))
    return (lyndon_tree(w[:k]), lyndon_tree(w[k:]))


def basis_for_multiset(multiset, p):
    """Basis words of the free (super) Lie algebra in a letter multiset.

    Lyndon words, plus (super case only) squares u.u for Lyndon u of odd
    length whenever the multiset is a doubled one."""
    words = set()
    for w in permutations(multiset):
        if is_lyndon(w):
            words.add(w)
    if p == 1:
        counts = {}
        for x in multiset:
            counts[x] = counts.get(x, 0) + 1
        if all(c % 2 == 0 for c in counts.values()):
            half = []
            for x, c in sorted(counts.items()):
                half.extend([x] * (c // 2))
            if len(half) % 2 == 1:
                for u in permutations(half):
                    if is_lyndon(u):
                        words.add(u + u)
    return sorted(words)


@memo
def _basis_system(multiset, p):
    """(basis words, Echelon of their associative expansions) of one
    letter multiset; ArithmeticError if the expansions are dependent."""
    words = tuple(basis_for_multiset(multiset, p))
    span = Echelon()
    for w in words:
        if not span.add(assoc_expand(lyndon_tree(w), p)):
            raise ArithmeticError(f"basis word {w} has a dependent"
                                  " expansion")
    return words, span


@memo
def component_normal_form(tree, p):
    """Express a bracket tree over white labels in the basis.

    Returns a read-only mapping basis word -> exact coefficient (empty
    when the tree is zero, e.g. [x, x] for even generators); the memo
    hands the same mapping to every caller.  Normal forms commute with
    order-preserving relabelings, so a tree over other labels is
    normalized through its label-rank pattern over 1..k (memoised like
    every tree) and translated back.
    """
    leaves = tree_leaves(tree)
    distinct = sorted(set(leaves))
    if distinct != list(range(1, len(distinct) + 1)):
        rank = {l: i + 1 for i, l in enumerate(distinct)}
        pout = component_normal_form(refill(tree, map(rank.get, leaves)), p)
        return MappingProxyType({tuple(distinct[l - 1] for l in w): c
                                 for w, c in pout.items()})
    expansion = assoc_expand(tree, p)
    if not expansion:
        return MappingProxyType({})
    multiset = tuple(sorted(next(iter(expansion))))
    words, span = _basis_system(multiset, p)
    return MappingProxyType({words[j]: c
                             for j, c in span.coords(expansion).items()})


# -- elements ---------------------------------------------------------

def _gen_parity(d, kind):
    """Parity p of the generators: (d - 1) mod 2, 0 for the ass kind."""
    return (d - 1) % 2 if kind == "lie" else 0


def _word_tree(word, kind):
    """Bracket tree of a component word: its Lyndon bracketing, or the
    left-nested tree for the ass kind."""
    return lyndon_tree(word) if kind == "lie" else word_to_tree(word)


def _parity(word, p):
    """Operadic degree parity of a component: (m - 1) p for m slots."""
    return (len(word) - 1) * p % 2


def _word_key(w):
    return len(w), w


def _sort_term(words, p):
    """Canonically sort component words; Koszul sign from odd components.

    Returns (sorted tuple, sign) with sign 0 when an odd component
    repeats.  Components are all even at p = 0.
    """
    if len(words) < 2:
        return tuple(words), 1
    if len(words) == 2:
        # the common case of composition results, without a sort
        a, b = words
        if _word_key(b) < _word_key(a):
            return (b, a), -1 if _parity(a, p) and _parity(b, p) else 1
        return (a, b), 0 if a == b and _parity(a, p) else 1
    keyed = sorted(range(len(words)), key=lambda i: _word_key(words[i]))
    out = tuple(words[i] for i in keyed)
    for a, b in zip(out, out[1:]):
        if a == b and _parity(a, p) == 1:
            return out, 0
    return out, perm_sign([i for i in keyed if _parity(words[i], p) == 1])


class OElement(Combination):
    """terms: tuple of component words -> exact coefficient."""

    __slots__ = ("arity", "d", "kind")

    def __init__(self, arity, d, terms, kind="lie"):
        _check_arity(arity, d)
        self._fill((arity, d, kind), _exact_terms(terms))
        if kind not in ("lie", "ass"):
            raise ValueError(f"unknown kind {kind!r}")

    def _shape(self):
        return (self.arity, self.d, self.kind)

    @classmethod
    def bracket(cls, d):
        """Image of the binary bracket: the corolla, one component (1, 2)."""
        return cls(2, d, {((1, 2),): 1})

    def degree(self):
        degs = {sum((len(w) - 1) * (1 - self.d) for w in t)
                for t in self.terms}
        if len(degs) > 1:
            raise ValueError("inhomogeneous element")
        return degs.pop() if degs else 0

    def compose(self, i, y):
        return o_compose(self, i, y)

    def act(self, sigma):
        return s_action(self, sigma)

    def to_json(self):
        items = sorted(self.terms.items())
        return {"arity": self.arity, "d": self.d, "kind": self.kind,
                "terms": [{"coeff": f"{c.numerator}/{c.denominator}",
                           "components": [_component_to_json(w, self.kind,
                                                             self.d)
                                          for w in t]}
                          for t, c in items]}

    @classmethod
    def from_json(cls, rec):
        kind = rec.get("kind", "lie")
        d = rec["d"]
        arity = rec["arity"]
        cls(arity, d, {}, kind)  # refuse a bad kind or arity first
        p = _gen_parity(d, kind)
        terms = {}
        for t in rec["terms"]:
            coeff = _json_coeff(t["coeff"])
            combos = [_component_from_json(comp, kind, p, arity)
                      for comp in t["components"]]
            _expand_product(terms, combos, [], coeff, p)
        return cls(arity, d, terms, kind)


def _component_to_json(word, kind, d):
    """Serialize one component as a payload word over slot labels 1..m
    plus the attachment list mapping slots to whites.  A Lie-kind word
    that is not a basis word at d raises ValueError."""
    slots = range(1, len(word) + 1)
    if kind == "ass":
        text = " ".join(map(str, slots))
    elif not _is_basis_word(word, _gen_parity(d, kind)):
        raise ValueError(f"component {word} is not a basis word at d={d}")
    else:
        text = pretty_bracket(refill(lyndon_tree(word), iter(slots)))
    return {"word": text, "attach": list(word)}


def _component_from_json(comp, kind, p, arity):
    """Inverse of _component_to_json; returns a dict basis word -> coeff.

    The word must use each slot 1..m exactly once, for m >= 1 attached
    whites, and every white must lie in 1..arity; otherwise ValueError.
    A white that is not an int (a bool is not one) raises TypeError."""
    attach = comp["attach"]
    if any(type(x) is not int for x in attach):
        raise TypeError(f"component {comp['word']!r} attaches to a white"
                        f" that is not an int: {attach}")
    if kind == "ass":
        slots = [int(s) for s in comp["word"].split()]
    else:
        slot_tree = parse_bracket(comp["word"])
        slots = tree_leaves(slot_tree)
    if not attach or sorted(slots) != list(range(1, len(attach) + 1)):
        raise ValueError(f"component {comp['word']!r} must use each slot"
                         f" 1..{len(attach)} exactly once")
    if not all(1 <= x <= arity for x in attach):
        raise ValueError(f"component {comp['word']!r} attaches to a white"
                         f" outside 1..{arity}: {attach}")
    if kind == "ass":
        slot_tree = word_to_tree(slots)
    return _substituted(slot_tree, tuple([attach[s - 1] for s in slots]),
                        kind, p)


def _add_term(terms, words, coeff, p):
    key, sign = _sort_term(words, p)
    if sign:
        _add(terms, key, sign * coeff)


def _is_basis_word(w, p):
    """Whether w is in basis_for_multiset(sorted w, p): a Lyndon word,
    or for p = 1 a square u.u with u Lyndon of odd length."""
    if is_lyndon(w):
        return True
    half = len(w) // 2
    return p == 1 and half % 2 == 1 and w[:half] == w[half:] \
        and is_lyndon(w[:half])


def make_term(arity, d, words, coeff=1, kind="lie"):
    """OElement with one term given by raw component words; for the Lie
    kind each word must already be a basis word (else ValueError), and
    each white label an int (else TypeError; a bool is not one)."""
    p = _gen_parity(d, kind)
    for w in words:
        if not w:
            raise ValueError("empty component")
        for x in w:
            if type(x) is not int:
                raise TypeError(f"white label {x!r} is not an int")
            if not 1 <= x <= arity:
                raise ValueError("white label out of range")
        if kind == "lie" and not _is_basis_word(w, p):
            raise ValueError(f"component {w} is not a basis word at d={d}")
    terms = {}
    _add_term(terms, words, _exact(coeff), p)
    return OElement(arity, d, terms, kind)


def unit(d, kind="lie"):
    return OElement(1, d, {(): 1}, kind)


# -- composition ------------------------------------------------------

def _marked_leaves(word, i, shift, after):
    """The leaves of a component word's tree (its letters, in reading
    order) with whites above i shifted by `shift` and the k-th
    occurrence of white i, counted across the calls sharing `after`,
    replaced by the marker ~k = -k - 1.  Appends to `after` each
    marker's count of leaves to its right: the Koszul crossings a
    grafted component makes for even d."""
    leaves = []
    for pos, x in enumerate(word):
        if x == i:
            x = ~len(after)
            after.append(len(word) - 1 - pos)
        elif x > i:
            x += shift
        leaves.append(x)
    return leaves


def _injective_assignments(n_items, slots):
    """All maps {0..n_items-1} -> slots + [None], injective on slots, as
    tuples of choices."""
    for choice in product([None, *slots], repeat=n_items):
        used = [s for s in choice if s is not None]
        if len(set(used)) == len(used):
            yield choice


@memo
def _substituted(shape, leaves, kind, p):
    """Normal form of a component tree shape refilled with the tuple
    `leaves`, in reading order (whites, or grafted trees): its basis
    expansion, or the leaf word for the ass kind, as a read-only
    mapping.  Memoised on the flat leaves, so a repeated substitution
    builds no tree."""
    tree = refill(shape, iter(leaves))
    if kind == "ass":
        return MappingProxyType({tree_leaves(tree): 1})
    return component_normal_form(tree, p)


def o_compose(a, i, b):
    """Operadic partial composition a o_i b.

    Each a-component is its tree shape and its leaves, in which the
    occurrences of white i are negative markers; a substitution fills
    the markers, b's trees on those its components graft onto and b's
    whites on those left free, and refills the shape with the leaves."""
    _check_slot(i, a.arity)
    if (a.d, a.kind) != (b.d, b.kind):
        raise ValueError("d/kind mismatch")
    d, kind = a.d, a.kind
    p = _gen_parity(d, kind)
    n2 = b.arity
    new_arity = a.arity + n2 - 1
    b_whites = range(i, i + n2)

    out_terms = {}
    for ta, ca in a.terms.items():
        comps, after = [], []
        for w in ta:
            first = len(after)
            leaves = _marked_leaves(w, i, n2 - 1, after)
            comps.append((_word_tree(w, kind), leaves,
                          range(first, len(after))))
        markers = range(len(after))
        pa = [_parity(w, p) for w in ta]
        for tb, cb in b.terms.items():
            b_words = [tuple(x + i - 1 for x in w) for w in tb]
            b_trees = [_word_tree(w, kind) for w in b_words]
            q = len(b_words)
            pb = [_parity(w, p) for w in b_words]
            parities = pa + pb
            for assignment in _injective_assignments(q, markers):
                covered = {m: u for u, m in enumerate(assignment)
                           if m is not None}
                unconsumed = [u for u in range(q) if assignment[u] is None]
                sign = 1
                if any(parities):
                    # Koszul sign: reorder [a-components, b-components]
                    # so that each consumed b-component sits right after
                    # its target a-component, unconsumed ones at the end
                    final = []
                    for t_idx, (_, _, own) in enumerate(comps):
                        final.append(t_idx)
                        final.extend(len(ta) + covered[m] for m in own
                                     if m in covered)
                    final.extend(len(ta) + u for u in unconsumed)
                    sign = perm_sign([x for x in final if parities[x]])
                    # graft crossing sign: an odd grafted component
                    # passes the leaves right of its marker
                    for m, u in covered.items():
                        if pb[u] and after[m] % 2 == 1:
                            sign = -sign
                coeff = ca * cb * sign
                tail = [b_words[u] for u in unconsumed]
                # fill[k] is what marker ~k becomes: the tree grafted
                # there, or each of b's whites in turn
                for fill in product(*([b_trees[covered[m]]] if m in covered
                                      else b_whites for m in markers)):
                    combos = []
                    for shape, leaves, _ in comps:
                        nf = _substituted(shape, tuple([
                            fill[~x] if x < 0 else x for x in leaves]),
                            kind, p)
                        if not nf:
                            break
                        combos.append(nf)
                    else:
                        _expand_product(out_terms, combos, tail, coeff, p)
    return OElement._wrap((new_arity, d, kind), _exact_terms(out_terms))


def _expand_product(out_terms, combos, tail, coeff, p):
    """Multilinear expansion of a product of component combinations."""
    if len(combos) == 1:
        # the common one-component case, without product()'s tuples
        for w, c in combos[0].items():
            _add_term(out_terms, [w, *tail], coeff * c, p)
        return
    for choice in product(*(nf.items() for nf in combos)):
        c = coeff
        for _, cv in choice:
            c *= cv
        _add_term(out_terms, [w for w, _ in choice] + tail, c, p)


# -- symmetric action and morphisms -----------------------------------

@memo
def _term_action(term, sigma, kind, p):
    """Image of one term with coefficient 1 under sigma, as (term,
    coeff) items: each component's tree relabelled by sigma."""
    combos = [_substituted(_word_tree(w, kind),
                           tuple([sigma[x - 1] for x in w]), kind, p)
              for w in term]
    out = {}
    _expand_product(out, combos, [], 1, p)
    return tuple((t, _exact(c)) for t, c in out.items())


def s_action(x: OElement, sigma):
    """Relabel white vertices by sigma (sequence of images); components
    are renormalized, so internal orientation signs are automatic."""
    sigma = _as_permutation(sigma, x.arity)
    p = _gen_parity(x.d, x.kind)
    out_terms = {}
    for t, c in x.terms.items():
        for tt, cc in _term_action(t, sigma, x.kind, p):
            out_terms[tt] = out_terms.get(tt, 0) + c * cc
    return x.with_terms(out_terms)


def map_i(x: LieElement):
    """Image of a Lie element under the induced morphism (see lie.image);
    from arity 3 on a word maps to several terms, since components may
    attach directly to the output."""
    return image(x, unit(x.d), OElement.bracket(x.d))


def ass_corolla(n):
    """Image of the n-ary associative product: one component (1..n)."""
    return make_term(n, 1, [tuple(range(1, n + 1))], kind="ass")


def is_connected_term(arity, words):
    """Connectivity of a term when the output vertex is erased: the
    whites, joined through each component's attached whites, must form
    one connected piece."""
    return _components(arity, [(w[0], x) for w in words
                               for x in w[1:]]) == 1


def is_connected_element(x: OElement):
    return all(is_connected_term(x.arity, t) for t in x.terms)


def terms(n, k, d):
    """The sorted Lie-kind terms of arity n with k internal vertices (a
    component of m slots has m - 1) whose components attach to every
    white 1..n, connected or not.  The one term with none is the unit's
    (), at arity 1."""
    if k == 0:
        return [()] if n == 1 else []
    p, whites, out = _gen_parity(d, "lie"), set(range(1, n + 1)), []
    pool = [w for m in range(2, k + 2)
            for letters in combinations_with_replacement(range(1, n + 1), m)
            for w in basis_for_multiset(letters, p)]

    def rec(start, left, acc):
        if left == 0:
            key, sign = _sort_term(acc, p)
            if sign and {x for w in key for x in w} == whites:
                out.append(key)
            return
        for j in range(start, len(pool)):
            if len(pool[j]) - 1 <= left:
                rec(j, left - len(pool[j]) + 1, acc + [pool[j]])

    rec(0, k, [])
    return sorted(out)


def quotient_to_gra(x: OElement) -> GraElement:
    """Project modulo the ideal of graphs with an internal edge.

    Components with three or more slots vanish; a two-slot basis word
    (i, j) becomes the edge i -> j (d odd) or the unordered edge with
    the term's component order (d even)."""
    if x.kind != "lie":
        raise ValueError("quotient defined on the Lie kind")
    forms = {}
    for t, c in x.terms.items():
        if any(len(w) != 2 or w[0] == w[1] for w in t):
            continue  # >2 slots or a tadpole: in the ideal
        # the words are not checked by OElement: the graph checks them
        g = OrientedGraph(x.d, x.arity, t)
        _add_graph(forms, x.d, g.edges, c)
    return _element(x.arity, x.d, forms)


def ass_remark_check():
    """Associator residue of the naive map Ass -> O(Ass): the image of
    (12)3 - 1(23) under m -> corolla.  It does not vanish (the naive map
    is not a morphism) and equals a difference of two 2-component
    terms."""
    m = ass_corolla(2)
    lhs = o_compose(m, 1, m)
    rhs = o_compose(m, 2, m)
    return lhs - rhs
