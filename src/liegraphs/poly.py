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
white vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product

from . import memo
from .gra import GraElement, element as gra_element
from .graphs import OrientedGraph, perm_sign
from .lie import LieElement, _relabel_tree, parse_bracket, pretty_bracket
from .lie import tree_leaves
from .linalg import Echelon


# -- free (super) Lie normal forms on repeated letters ----------------

def is_lyndon(w):
    return len(w) >= 1 and all(w < w[k:] for k in range(1, len(w)))


def lyndon_tree(w):
    """Standard left bracketing of a Lyndon word (or of u.u)."""
    if len(w) == 1:
        return w[0]
    if len(w) % 2 == 0 and w[:len(w) // 2] == w[len(w) // 2:]:
        half = w[:len(w) // 2]
        if is_lyndon(half):
            return (lyndon_tree(half), lyndon_tree(half))
    # longest proper Lyndon suffix
    for k in range(1, len(w)):
        if is_lyndon(w[k:]):
            return (lyndon_tree(w[:k]), lyndon_tree(w[k:]))
    raise ValueError(f"not a (super-)Lyndon basis word: {w}")


def _super_expand(tree, p):
    """Associative expansion with generator parity p (0 or 1)."""
    if not isinstance(tree, tuple):
        return {(tree,): Fraction(1)}
    left = _super_expand(tree[0], p)
    right = _super_expand(tree[1], p)
    out = {}
    for wa, ca in left.items():
        for wb, cb in right.items():
            c = ca * cb
            out[wa + wb] = out.get(wa + wb, Fraction(0)) + c
            sign = (-1) ** (len(wa) * len(wb) * p)
            out[wb + wa] = out.get(wb + wa, Fraction(0)) - sign * c
    return {w: c for w, c in out.items() if c != 0}


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
    words = basis_for_multiset(multiset, p)
    span = Echelon()
    for w in words:
        if not span.add(_super_expand(lyndon_tree(w), p)):
            raise ArithmeticError(f"basis word {w} has a dependent"
                                  " expansion")
    return words, span


@memo
def component_normal_form(tree, p):
    """Express a bracket tree over white labels in the basis.

    Returns a dict basis word -> Fraction (empty when the tree is zero,
    e.g. [x, x] for even generators).  Normal forms commute with
    order-preserving relabelings, so a tree over other labels is
    normalized through its label-rank pattern over 1..k (memoised like
    every tree) and translated back.
    """
    distinct = sorted(set(tree_leaves(tree)))
    if distinct != list(range(1, len(distinct) + 1)):
        rank = {l: i + 1 for i, l in enumerate(distinct)}
        pout = component_normal_form(_relabel_tree(tree, rank), p)
        return {tuple(distinct[l - 1] for l in w): c
                for w, c in pout.items()}
    expansion = _super_expand(tree, p)
    if not expansion:
        return {}
    multiset = tuple(sorted(next(iter(expansion))))
    words, span = _basis_system(multiset, p)
    return {words[j]: c for j, c in span.coords(expansion).items()}


# -- elements ---------------------------------------------------------

def _parity(word, d, kind):
    if kind == "ass":
        return 0
    return (len(word) - 1) * (1 - d) % 2


def _sort_term(words, d, kind):
    """Canonically sort component words; Koszul sign from odd components.

    Returns (sorted tuple, sign) with sign 0 when an odd component
    repeats.
    """
    keyed = sorted(range(len(words)), key=lambda i: (len(words[i]), words[i]))
    out = tuple(words[i] for i in keyed)
    if kind == "ass" or d % 2 == 1:
        return out, 1
    for a, b in zip(out, out[1:]):
        if a == b and _parity(a, d, kind) == 1:
            return out, 0
    return out, perm_sign([i for i in keyed
                           if _parity(words[i], d, kind) == 1])


@dataclass(frozen=True)
class OElement:
    arity: int
    d: int
    terms: dict  # tuple of component words -> Fraction
    kind: str = "lie"

    def __post_init__(self):
        object.__setattr__(self, "terms",
                           {t: Fraction(c) for t, c in self.terms.items()
                            if c != 0})

    def is_zero(self):
        return not self.terms

    def scaled(self, c):
        return OElement(self.arity, self.d,
                        {t: v * c for t, v in self.terms.items()}, self.kind)

    def __add__(self, other):
        if (self.arity, self.d, self.kind) != (other.arity, other.d,
                                               other.kind):
            raise ValueError("arity/d/kind mismatch")
        out = dict(self.terms)
        for t, c in other.terms.items():
            nv = out.get(t, Fraction(0)) + c
            if nv == 0:
                out.pop(t, None)
            else:
                out[t] = nv
        return OElement(self.arity, self.d, out, self.kind)

    def __sub__(self, other):
        return self + other.scaled(Fraction(-1))

    def __eq__(self, other):
        return (isinstance(other, OElement)
                and (self.arity, self.d, self.kind, self.terms)
                == (other.arity, other.d, other.kind, other.terms))

    def __hash__(self):
        return hash((self.arity, self.d, self.kind,
                     tuple(sorted(self.terms.items()))))

    def internal_vertices(self):
        """Internal vertex counts appearing among terms (set)."""
        return {sum(len(w) - 1 for w in t) for t in self.terms}

    def degree(self):
        degs = {sum((len(w) - 1) * (1 - self.d) for w in t)
                for t in self.terms}
        if len(degs) > 1:
            raise ValueError("inhomogeneous element")
        return degs.pop() if degs else None

    def to_json(self):
        items = sorted(self.terms.items())
        return {"arity": self.arity, "d": self.d, "kind": self.kind,
                "terms": [{"coeff": f"{c.numerator}/{c.denominator}",
                           "components": [_component_to_json(w, self.kind)
                                          for w in t]}
                          for t, c in items]}

    @classmethod
    def from_json(cls, rec):
        kind = rec.get("kind", "lie")
        d = rec["d"]
        p = (d - 1) % 2 if kind == "lie" else 0
        out = cls(rec["arity"], d, {}, kind)
        for t in rec["terms"]:
            coeff = Fraction(t["coeff"])
            combos = []
            for comp in t["components"]:
                combos.append(_component_from_json(comp, kind, p))
            terms = {}
            _expand_product(terms, combos, [], coeff, d, kind)
            out = out + cls(rec["arity"], d, terms, kind)
        return out


def _component_to_json(word, kind):
    """Serialize one component as a payload word over slot labels 1..m
    plus the attachment list mapping slots to whites."""
    if kind == "ass":
        return {"word": " ".join(str(k) for k in range(1, len(word) + 1)),
                "attach": list(word)}
    counter = [0]

    def slots(t):
        if isinstance(t, tuple):
            return tuple(slots(x) for x in t)
        counter[0] += 1
        return counter[0]

    return {"word": pretty_bracket(slots(lyndon_tree(word))),
            "attach": list(word)}


def _component_from_json(comp, kind, p):
    """Inverse of _component_to_json; returns a dict basis word -> coeff."""
    attach = comp["attach"]
    if kind == "ass":
        order = [int(s) for s in comp["word"].split()]
        return {tuple(attach[k - 1] for k in order): Fraction(1)}
    slot_tree = parse_bracket(comp["word"])

    def fill(t):
        if isinstance(t, tuple):
            return tuple(fill(x) for x in t)
        return attach[t - 1]

    return component_normal_form(fill(slot_tree), p)


def _add_term(terms, words, coeff, d, kind):
    key, sign = _sort_term(list(words), d, kind)
    if sign == 0 or coeff == 0:
        return
    nv = terms.get(key, Fraction(0)) + sign * coeff
    if nv == 0:
        terms.pop(key, None)
    else:
        terms[key] = nv


def make_term(arity, d, words, coeff=Fraction(1), kind="lie"):
    """OElement with one term given by raw component words; for the Lie
    kind each word must already be a basis word."""
    for w in words:
        for x in w:
            if not 1 <= x <= arity:
                raise ValueError("white label out of range")
    terms = {}
    _add_term(terms, words, Fraction(coeff), d, kind)
    return OElement(arity, d, terms, kind)


def unit(d, kind="lie"):
    return OElement(1, d, {(): Fraction(1)}, kind)


# -- composition ------------------------------------------------------

def _is_marker(t):
    return isinstance(t, tuple) and len(t) > 0 and t[0] == "mk"


def _tree_with_markers(word, i, kind):
    """Bracket tree of a component word (the flat word itself for the
    ass kind) with occurrences of white i replaced by markers.

    Returns (tree, markers, after) where after[marker] counts the leaves
    strictly to the right of the marked occurrence in reading order —
    the Koszul crossings a grafted component makes for even d."""
    tree = lyndon_tree(word) if kind == "lie" else tuple(word)
    markers = []
    after = {}
    counter = [0]

    def walk(t):
        if isinstance(t, tuple):
            return tuple(walk(x) for x in t)
        pos = counter[0]
        counter[0] += 1
        if t == i:
            m = ("mk", pos)
            markers.append(m)
            after[m] = len(word) - 1 - pos
            return m
        return t

    return walk(tree), markers, after


def _substitute(tree, mapping):
    if _is_marker(tree):
        return mapping[tree]
    if isinstance(tree, tuple):
        return tuple(_substitute(x, mapping) for x in tree)
    return tree


def _injective_assignments(n_items, slots):
    """All maps {0..n_items-1} -> slots + [None], injective on slots."""
    def rec(u, used):
        if u == n_items:
            yield []
            return
        for choice in [None] + [s for s in slots if s not in used]:
            for rest in rec(u + 1, used | ({choice} if choice else set())):
                yield [choice] + rest
    yield from rec(0, frozenset())


def o_compose(a, i, b):
    """Operadic partial composition a o_i b."""
    if not 1 <= i <= a.arity:
        raise ValueError(f"index {i} out of range 1..{a.arity}")
    if (a.d, a.kind) != (b.d, b.kind):
        raise ValueError("d/kind mismatch")
    d, kind = a.d, a.kind
    p = (d - 1) % 2 if kind == "lie" else 0
    n2 = b.arity
    new_arity = a.arity + n2 - 1

    def map_a(x):
        return x if x < i else x + n2 - 1

    def map_b(x):
        return x + i - 1

    b_whites = [map_b(j) for j in range(1, n2 + 1)]
    out_terms = {}
    for ta, ca in a.terms.items():
        # relabeled trees with markers at occurrences of white i
        trees = []
        all_markers = []  # (comp index, marker), in reading order
        marker_after = {}
        for t_idx, w in enumerate(ta):
            relabeled = tuple(map_a(x) if x != i else i for x in w)
            tree, markers, after = _tree_with_markers(relabeled, i, kind)
            # tag markers with component index to keep them distinct
            tree = _retag(tree, t_idx)
            trees.append(tree)
            for m in markers:
                tagged = ("mk", t_idx, m[1])
                all_markers.append((t_idx, tagged))
                marker_after[tagged] = after[m]
        marker_list = [m for _, m in all_markers]
        marker_comp = {m: t_idx for t_idx, m in all_markers}
        for tb, cb in b.terms.items():
            b_words = [tuple(map_b(x) for x in w) for w in tb]
            q = len(b_words)
            for assignment in _injective_assignments(q, marker_list):
                covered = {m: u for u, m in enumerate(assignment)
                           if m is not None}
                free_markers = [m for m in marker_list if m not in covered]
                unconsumed = [u for u in range(q) if assignment[u] is None]
                # Koszul sign: reorder [a-components, b-components] so that
                # each consumed b-component sits right after its target
                # a-component, unconsumed ones at the end
                pa = [_parity(w, d, kind) for w in ta]
                pb = [_parity(w, d, kind) for w in b_words]
                final = []
                for t_idx in range(len(ta)):
                    final.append(t_idx)
                    for m in marker_list:
                        if marker_comp[m] == t_idx and m in covered:
                            final.append(len(ta) + covered[m])
                final.extend(len(ta) + u for u in unconsumed)
                parities = pa + pb
                sign = perm_sign([x for x in final if parities[x]])
                # graft crossing sign: an odd grafted component passes
                # the leaves right of its marker (even d only)
                if kind == "lie" and d % 2 == 0:
                    for m, u in covered.items():
                        if pb[u] and marker_after[m] % 2 == 1:
                            sign = -sign
                for g in product(b_whites, repeat=len(free_markers)):
                    mapping = {}
                    for m, u in covered.items():
                        wtree = (lyndon_tree(b_words[u]) if kind == "lie"
                                 else tuple(b_words[u]))
                        mapping[m] = wtree
                    for m, white in zip(free_markers, g):
                        mapping[m] = white
                    # normalize each substituted component
                    combos = []
                    ok = True
                    for t_idx, tree in enumerate(trees):
                        st = _substitute(tree, mapping)
                        if kind == "ass":
                            combos.append({_flatten_ass(st): Fraction(1)})
                            continue
                        nf = component_normal_form(st, p)
                        if not nf:
                            ok = False
                            break
                        combos.append(nf)
                    if not ok:
                        continue
                    tail = [b_words[u] for u in unconsumed]
                    _expand_product(out_terms, combos, tail,
                                    ca * cb * sign, d, kind)
    return OElement(new_arity, d, out_terms, kind)


def _retag(tree, t_idx):
    if _is_marker(tree):
        return ("mk", t_idx, tree[1])
    if isinstance(tree, tuple):
        return tuple(_retag(x, t_idx) for x in tree)
    return tree


def _flatten_ass(tree):
    out = []
    for x in tree:
        if isinstance(x, tuple):
            out.extend(_flatten_ass(x))
        else:
            out.append(x)
    return tuple(out)


def _expand_product(out_terms, combos, tail, coeff, d, kind):
    """Multilinear expansion of a product of component combinations."""
    def rec(idx, words, c):
        if idx == len(combos):
            _add_term(out_terms, words + tail, c, d, kind)
            return
        for w, cv in combos[idx].items():
            rec(idx + 1, words + [w], c * cv)
    rec(0, [], coeff)


# -- symmetric action and morphisms -----------------------------------

@memo
def _component_action(word, sigma, p):
    """Normal form of a basis word's bracket tree relabelled by sigma,
    as (word, coeff) items."""
    tree = _relabel_tree(lyndon_tree(word), dict(enumerate(sigma, 1)))
    return tuple(component_normal_form(tree, p).items())


@memo
def _term_action(term, sigma, d, kind):
    """Image of one term with coefficient 1 under sigma, as (term,
    coeff) items; integral coefficients are stored as int."""
    if kind == "ass":
        combos = [{tuple(sigma[l - 1] for l in w): 1} for w in term]
    else:
        p = (d - 1) % 2
        combos = [dict(_component_action(w, sigma, p)) for w in term]
    out = {}
    _expand_product(out, combos, [], 1, d, kind)
    return tuple((t, int(c) if c.denominator == 1 else c)
                 for t, c in out.items())


def s_action(x: OElement, sigma):
    """Relabel white vertices by sigma (sequence of images); components
    are renormalized, so internal orientation signs are automatic."""
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(1, x.arity + 1)):
        raise ValueError(f"not a permutation of 1..{x.arity}: {sigma}")
    out_terms = {}
    for t, c in x.terms.items():
        for tt, cc in _term_action(t, sigma, x.d, x.kind):
            out_terms[tt] = out_terms.get(tt, 0) + c * cc
    return OElement(x.arity, x.d, out_terms, x.kind)


def map_i(x: LieElement, d=None):
    """Image of a Lie element under the induced operad morphism.

    The left-normed word (l1, ..., lm) maps to the composition chain
    corolla o_1 (corolla o_1 ...) relabelled by the word; for m >= 3
    this is a multi-term element (components may attach directly to the
    output).  Stored words follow the d = 1 sign rule; for even d the
    suspension twists the symmetric action by the sign of the word's
    label permutation (as for the graph operad image).
    """
    if d is None:
        d = x.parity_d
    n = x.arity
    corolla = OElement(2, d, {((1, 2),): Fraction(1)}, "lie")
    chain = [None, unit(d), corolla]
    while len(chain) <= n:
        chain.append(o_compose(corolla, 1, chain[-1]))
    out = OElement(n, d, {}, "lie")
    for word, c in x.terms.items():
        if d % 2 == 0:
            c = c * perm_sign(list(word))
        out = out + s_action(chain[n], word).scaled(c)
    return out


def ass_corolla(n):
    """Image of the n-ary associative product: one component (1..n)."""
    return make_term(n, 1, [tuple(range(1, n + 1))], kind="ass")


def is_connected_term(arity, words):
    """Connectivity of a term when the output vertex is erased: the
    bipartite graph of components and their attached whites, together
    with all whites, must be connected."""
    if not words:
        return arity == 1
    nodes = set(range(1, arity + 1)) | {("c", k) for k in range(len(words))}
    adj = {v: set() for v in nodes}
    for k, w in enumerate(words):
        for x in w:
            adj[("c", k)].add(x)
            adj[x].add(("c", k))
    start = next(iter(nodes))
    seen = {start}
    stack = [start]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(nodes)


def is_connected_element(x: OElement):
    return all(is_connected_term(x.arity, t) for t in x.terms)


def quotient_to_gra(x: OElement) -> GraElement:
    """Project modulo the ideal of graphs with an internal edge.

    Components with three or more slots vanish; a two-slot basis word
    (i, j) becomes the edge i -> j (d odd) or the unordered edge with
    the term's component order (d even)."""
    if x.kind != "lie":
        raise ValueError("quotient defined on the Lie kind")
    out = GraElement(x.arity, x.d, {})
    for t, c in x.terms.items():
        if any(len(w) != 2 or w[0] == w[1] for w in t):
            continue  # >2 slots or a tadpole: in the ideal
        edges = tuple(t)
        g = OrientedGraph(x.d, x.arity, edges)
        out = out + gra_element(g, c)
    return out


def ass_remark_check():
    """Associator residue of the naive map Ass -> O(Ass): the image of
    (12)3 - 1(23) under m -> corolla.  It does not vanish (the naive map
    is not a morphism) and equals a difference of two 2-component
    terms."""
    m = ass_corolla(2)
    lhs = o_compose(m, 1, m)
    rhs = o_compose(m, 2, m)
    return lhs - rhs
