"""Normal forms in the multilinear free Lie operad, grafting, operad
images, and a truncated Baker-Campbell-Hausdorff expansion.

Bracket words are binary trees: a leaf is a slot label (int, or str for
the two-letter BCH series), an internal node is a 2-tuple (left, right).
The normal-form basis consists of left-normed words
[[...[l1, l2], l3], ...], stored as plain tuples (l1, ..., lm), with the
minimal label in the leading position; the multilinear arity-m span has
dimension (m-1)!.  The expansion of such a word (m, l2, ..., lk) into
the free associative algebra has exactly one monomial that starts with
m, the word itself with coefficient 1.  So a tree's coordinates in the
basis are the coefficients of the m-leading monomials of its expansion,
and `normalize` computes only those; the full `assoc_expand` stays the
oracle of the normal forms.

Storage convention: words are kept unshifted, with the d = 1 sign rule
[x, y] = -[y, x]; the suspension signs for even d enter only through
`LieElement.compose` and `LieElement.act`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations

from . import memo
from .graphs import (_as_permutation, _check_arity, _check_ints, _check_slot,
                     perm_sign)
from .linalg import Combination, _add, _axpy, _exact, _exact_terms


# -- bracket expression grammar ---------------------------------------
#
#   expr := INT | "[" expr "," expr "]"

class BracketParseError(ValueError):
    def __init__(self, message, line, column):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


def parse_bracket(text):
    """Parse a bracket expression into a tree; whitespace insensitive."""
    pos = 0
    n = len(text)

    def location(p):
        line = text.count("\n", 0, p) + 1
        column = p - (text.rfind("\n", 0, p) + 1) + 1
        return line, column

    def fail(msg, p):
        raise BracketParseError(msg, *location(p))

    def skip_ws(p):
        while p < n and text[p].isspace():
            p += 1
        return p

    def expr(p):
        p = skip_ws(p)
        if p >= n:
            fail("unexpected end of input", p)
        if text[p] == "[":
            left, p = expr(p + 1)
            p = skip_ws(p)
            if p >= n or text[p] != ",":
                fail("expected ','", p)
            right, p = expr(p + 1)
            p = skip_ws(p)
            if p >= n or text[p] != "]":
                fail("expected ']'", p)
            return (left, right), p + 1
        start = p
        while p < n and text[p].isdigit():
            p += 1
        if p == start:
            fail(f"expected integer or '[', got {text[p]!r}", p)
        return int(text[start:p]), p

    tree, pos = expr(pos)
    pos = skip_ws(pos)
    if pos != n:
        fail(f"trailing input {text[pos]!r}", pos)
    return tree


def pretty_bracket(tree):
    if isinstance(tree, tuple):
        return f"[{pretty_bracket(tree[0])}, {pretty_bracket(tree[1])}]"
    return str(tree)


# -- tree helpers -----------------------------------------------------

def tree_leaves(tree):
    if isinstance(tree, tuple):
        return tree_leaves(tree[0]) + tree_leaves(tree[1])
    return (tree,)


def word_to_tree(word):
    """Left-normed tuple (l1, ..., lm) -> ((...(l1, l2), l3), ..., lm);
    the items may be trees themselves."""
    tree = word[0]
    for label in word[1:]:
        tree = (tree, label)
    return tree


def refill(tree, leaves):
    """The tree with its leaves, in reading order, replaced by the next
    items of the iterator `leaves`: the one rewrite of a tree's leaves."""
    if isinstance(tree, tuple):
        return (refill(tree[0], leaves), refill(tree[1], leaves))
    return next(leaves)


def assoc_expand(tree, p=0):
    """Expand a bracket tree in the free associative algebra on
    generators of parity p: [a, b] = ab - (-1)^(p|a||b|) ba.

    Returns a dict mapping label tuples to coefficients.  At p = 0 the
    expansion is faithful: an independent oracle for Lie identities.
    """
    if not isinstance(tree, tuple):
        return {(tree,): 1}
    left = assoc_expand(tree[0], p)
    right = assoc_expand(tree[1], p)
    out = {}
    for wa, ca in left.items():
        for wb, cb in right.items():
            c = ca * cb
            _add(out, wa + wb, c)
            if p and len(wa) * len(wb) % 2:
                c = -c
            _add(out, wb + wa, -c)
    return out


# -- multilinear normal form ------------------------------------------

def _leading(tree, m):
    """The monomials of a multilinear tree's p = 0 expansion that start
    with its least label m.  The two sides of a bracket share no label,
    so no two products collide."""
    if not isinstance(tree, tuple):
        return {(tree,): 1}
    a, b = tree
    if m in tree_leaves(a):
        return {wa + wb: ca * cb for wa, ca in _leading(a, m).items()
                for wb, cb in assoc_expand(b).items()}
    return {wb + wa: -cb * ca for wb, cb in _leading(b, m).items()
            for wa, ca in assoc_expand(a).items()}


class LieElement(Combination):
    """Exact linear combination of normal-form bracket words of one
    arity, in the Lie operad suspended for the parity of d."""

    __slots__ = ("arity", "d")

    def __init__(self, arity, terms, d=1):
        _check_arity(arity, d)
        self._fill((arity, d), _exact_terms(terms))

    def _shape(self):
        return (self.arity, self.d)

    def assoc_expansion(self):
        return left_normed_assoc_expansion(self.terms)

    @classmethod
    def bracket(cls, d):
        """The binary bracket [1, 2]."""
        return cls(2, {(1, 2): 1}, d)

    def degree(self):
        """(1 - d) per bracket: a word of arity n has n - 1."""
        return (self.arity - 1) * (1 - self.d)

    def compose(self, i, y):
        """Operadic composition self o_i y: graft, corrected by the
        suspension sign (-1)^((i-1)(k-1)) for even d."""
        out = graft(self, i, y)
        if self.d % 2 == 0 and (i - 1) * (y.arity - 1) % 2 == 1:
            out = out.scaled(-1)
        return out

    def act(self, sigma):
        """Relabel slots by sigma (sequence of images); for even d the
        suspension twists the relabelling by the sign of sigma."""
        sigma = _as_permutation(sigma, self.arity)
        sign = perm_sign(sigma) if self.d % 2 == 0 else 1
        out = {}
        for w, c in self.terms.items():
            for v, cv in _word_action(w, sigma):
                _add(out, v, sign * c * cv)
        return self.with_terms(out)


def normalize(exprs, d=1):
    """Normalize a bracket tree, or list of (coeff, tree), to a LieElement.

    All trees must share one leaf set with every slot label occurring
    exactly once; otherwise a ValueError is raised.
    """
    if not isinstance(exprs, list):
        exprs = [(1, exprs)]
    leafset = None
    out = {}
    for coeff, tree in exprs:
        leaves = tree_leaves(tree)
        if len(set(leaves)) != len(leaves):
            raise ValueError(f"repeated slot label in {pretty_bracket(tree)}")
        if leafset is None:
            leafset = frozenset(leaves)
        elif frozenset(leaves) != leafset:
            raise ValueError("inconsistent leaf sets")
        _axpy(out, _exact(coeff), _leading(tree, min(leaves)))
    arity = len(leafset) if leafset is not None else 0
    return LieElement(arity, out, d)


def basis_words(m):
    """All normal-form words of arity m with leaf set {1..m}; m is a
    positive int."""
    _check_ints(m=m)
    if m < 1:
        raise ValueError("arity must be positive")
    return [(1,) + rest for rest in permutations(range(2, m + 1))]


def dim_lie(m):
    """Dimension of the span of all normalized words of arity m: (m-1)!."""
    return len(basis_words(m))


@memo
def _word_action(word, sigma):
    """Normal form of a basis word relabelled by sigma, as (word,
    coeff) items."""
    tree = word_to_tree([sigma[x - 1] for x in word])
    return tuple(normalize(tree).terms.items())


def graft(outer, slot, inner):
    """Operadic partial composition: substitute `inner` into slot `slot`.

    Inner labels are shifted to occupy slot..slot+k-1; outer labels above
    the slot shift up by k-1.  Sign-neutral: Koszul signs for even d are
    the caller's responsibility.  Both elements must have the same d.
    """
    _check_slot(slot, outer.arity)
    if outer.d != inner.d:
        raise ValueError("parity mismatch")
    k = inner.arity
    inner_trees = [(ci, word_to_tree([j + slot - 1 for j in wi]))
                   for wi, ci in inner.terms.items()]
    combos = [(co * ci, word_to_tree([j if j < slot else ti if j == slot
                                      else j + k - 1 for j in wo]))
              for wo, co in outer.terms.items() for ci, ti in inner_trees]
    if not combos:
        return LieElement(outer.arity + k - 1, {}, outer.d)
    return normalize(combos, outer.d)


def image(x, unit, mu):
    """Image of a Lie element under the operad morphism sending the
    bracket to mu, in the target operad of the elements unit and mu.

    The word (l1, ..., lm) maps to the chain mu o_1 (mu o_1 ...)
    relabelled by the word.  Stored words follow the d = 1 sign rule;
    for even d the suspension twists the action by sgn, so the
    relabeling contributes the sign of the word."""
    m = x.arity
    chain = [None, unit, mu]
    while len(chain) <= m:
        chain.append(mu.compose(1, chain[-1]))
    terms = {}
    for word, c in x.terms.items():
        if x.d % 2 == 0:
            c = c * perm_sign(word)
        _axpy(terms, c, chain[m].act(word).terms)
    return unit._wrap((m, *unit._shape()[1:]), _exact_terms(terms))


# -- truncated BCH ----------------------------------------------------

def _series_mul(a, b, order):
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            if len(wa) + len(wb) > order:
                continue
            _add(out, wa + wb, ca * cb)
    return out


def _exp_series(letter, order):
    out = {(): 1}
    for k in range(1, order + 1):
        out[(letter,) * k] = Fraction(1, math.factorial(k))
    return out


def bch_truncated(order):
    """Homogeneous components of log(e^X e^Y) through the given order.

    Returns a dict: n -> combination of left-normed bracket words (label
    tuples) with exact coefficients.  Words are lightly normalized so the
    first label is the smaller letter; deeper relations between repeated-
    letter words are not reduced, so compare results via
    `left_normed_assoc_expansion`.
    """
    _check_ints(order=order)
    if order < 1:
        raise ValueError("order must be >= 1")
    prod = _series_mul(*(_exp_series(x, order) for x in "XY"), order)
    u = {w: c for w, c in prod.items() if w}
    log = {}
    power = {(): 1}
    for k in range(1, order + 1):
        power = _series_mul(power, u, order)
        _axpy(log, Fraction((-1) ** (k + 1), k), power)
    out = {n: {} for n in range(1, order + 1)}
    for w, c in log.items():
        n = len(w)
        # Dynkin projection: w -> [[..[w1,w2],..],wn] / n
        coeff = _exact(Fraction(c, n))
        if n >= 2:
            if w[0] == w[1]:
                continue
            if w[0] > w[1]:
                w = (w[1], w[0]) + w[2:]
                coeff = -coeff
        _add(out[n], w, coeff)
    return out


def left_normed_assoc_expansion(combo):
    """Associative expansion of a combination of left-normed words."""
    out = {}
    for w, c in combo.items():
        _axpy(out, c, assoc_expand(word_to_tree(w)))
    return out
