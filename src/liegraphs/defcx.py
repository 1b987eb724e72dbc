"""Deformation complexes of the shifted-Lie morphisms into Lie, the
graph operad, and the polydifferential operad, together with the
Kontsevich graph complexes fcGC_d / GC_d.

A deformation element of arity n is an (anti)invariant element of the
target's arity-n space: for d odd invariance is twisted by the sign of
the label permutation, for d even it is plain (stored Lie words follow
the d = 1 rule, which absorbs an extra sign twist for even d).  The
differential is

    delta x = mu o_1 x + mu o_2 x - (-1)^{|x|} sum_i x o_i mu

followed by the symmetrizer (a projector: average, not sum), where mu
is the image of the binary bracket in the target and |x| is the
deformation degree d(n-1) + (internal degree).

Generators of fcGC_d are connected graphs up to relabeling; the
differential follows the printed formula: -2 times the sum of univalent
attachments plus the sum of vertex splittings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

from . import linalg, memo, poly
from .gra import GraElement, compose as gra_compose, element as gra_element
from .gra import lie_to_gra, s_action as gra_s_action
from .graphs import OrientedGraph, canonicalize, enumerate_graphs, perm_sign
from .lie import LieElement, _relabel_tree, basis_words, graft, normalize
from .lie import word_to_tree
from .linalg import SparseMatrix
from .poly import OElement, make_term, o_compose


# -- target dispatch --------------------------------------------------

def _target_of(x):
    if isinstance(x, LieElement):
        return "lie"
    if isinstance(x, GraElement):
        return "gra"
    if isinstance(x, OElement):
        return "olie"
    raise TypeError(f"unsupported deformation element {type(x).__name__}")


def bracket_generator(d, target):
    """The image mu of the binary bracket in the target operad."""
    if target == "lie":
        return LieElement(2, {(1, 2): Fraction(1)}, d)
    if target == "gra":
        return lie_to_gra(d)
    if target == "olie":
        return make_term(2, d, [(1, 2)])
    raise ValueError(f"unknown target {target!r}")


def _lie_relabel(x: LieElement, sigma):
    mapping = dict(enumerate(sigma, 1))
    combos = [(c, _relabel_tree(word_to_tree(w), mapping))
              for w, c in x.terms.items()]
    if not combos:
        return x
    return normalize(combos, x.parity_d)


def _compose(d, target, a, i, b):
    if target == "gra":
        return gra_compose(a, i, b)
    if target == "olie":
        return o_compose(a, i, b)
    # stored Lie words use the unsuspended sign rule; correct by the
    # operadic suspension sign for even d
    out = graft(a, i, b)
    if d % 2 == 0 and (i - 1) * (b.arity - 1) % 2 == 1:
        out = out.scaled(Fraction(-1))
    return out


def _act(d, target, x, sigma):
    """Native symmetric action in stored coordinates."""
    if target == "gra":
        return gra_s_action(x, sigma)
    if target == "olie":
        return poly.s_action(x, sigma)
    out = _lie_relabel(x, sigma)
    if d % 2 == 0:
        out = out.scaled(Fraction(perm_sign(list(sigma))))
    return out


@memo
def _plain_changes(n):
    """Adjacent-swap positions (0-based) visiting all of S_n once."""
    if n <= 1:
        return ()
    sub = _plain_changes(n - 1)
    out = []
    for k in range(len(sub) + 1):
        if k % 2 == 0:
            out.extend(range(n - 2, -1, -1))
        else:
            out.extend(range(0, n - 1))
        if k < len(sub):
            out.append(sub[k] + (1 if k % 2 == 0 else 0))
    return tuple(out)


def symmetrize(x, d=None):
    """(Anti)symmetrizer projector: average over label permutations,
    sign-twisted for d odd.

    Walks S_n by adjacent transpositions so every step is a cheap
    neighbor swap instead of an arbitrary relabeling."""
    target = _target_of(x)
    if d is None:
        d = x.d if target != "lie" else x.parity_d
    n = x.arity
    merged = {}
    scale = Fraction(1, math.factorial(n))
    odd = d % 2 == 1
    sgn = 1

    def absorb(y, tw):
        for tt, cc in y.terms.items():
            nv = merged.get(tt, Fraction(0)) + tw * cc
            if nv == 0:
                merged.pop(tt, None)
            else:
                merged[tt] = nv

    # identity pass normalizes inputs whose terms are not yet in basis form
    current = _act(d, target, x, tuple(range(1, n + 1)))
    absorb(current, scale)
    for pos in _plain_changes(n):
        tau = list(range(1, n + 1))
        tau[pos], tau[pos + 1] = tau[pos + 1], tau[pos]
        current = _act(d, target, current, tuple(tau))
        if odd:
            sgn = -sgn
        absorb(current, scale * sgn if odd else scale)
    if target == "lie":
        return LieElement(n, merged, x.parity_d)
    if target == "gra":
        return GraElement(n, x.d, merged)
    return OElement(n, x.d, merged, x.kind)


def def_degree(x, d=None):
    """Deformation degree d(n-1) + internal degree."""
    target = _target_of(x)
    if d is None:
        d = x.d if target != "lie" else x.parity_d
    n = x.arity
    if target == "lie":
        internal = (n - 1) * (1 - d)
    elif target == "gra":
        counts = {g.n_edges() for g in x.terms}
        if len(counts) > 1:
            raise ValueError("inhomogeneous edge count")
        internal = (1 - d) * (counts.pop() if counts else 0)
    else:
        internal = x.degree() or 0
    return d * (n - 1) + internal


def def_differential(x, d=None):
    """Differential of the invariant projection of x:

        delta(Px) = P(mu o_1 x + mu o_2 x)
                    - (-1)^{|x|} sum_i c_i P(x o_i mu)

    where P is the symmetrizer.  For d even all weights c_i are 1; for
    d odd expanding slot i into two strands twists the label-ordering
    sign by the inversions at i, and averaging that twist over P leaves
    c_i = 0 for n even and (-1)^{i+1}/n for n odd.  On invariant
    elements (the complex itself) this agrees with symmetrizing the
    plain bracket formula."""
    target = _target_of(x)
    if d is None:
        d = x.d if target != "lie" else x.parity_d
    n = x.arity
    mu = bracket_generator(d, target)
    out = symmetrize(_compose(d, target, mu, 1, x)
                     + _compose(d, target, mu, 2, x), d)
    sign = Fraction((-1) ** (def_degree(x, d) % 2))
    if d % 2 == 1 and n % 2 == 0:
        return out
    splits = None
    for i in range(1, n + 1):
        w = Fraction(1) if d % 2 == 0 else Fraction((-1) ** (i + 1), n)
        piece = _compose(d, target, x, i, mu).scaled(sign * w)
        splits = piece if splits is None else splits + piece
    return out - symmetrize(splits, d)


# -- the graph complexes ----------------------------------------------

def _add_class(out, graph, coeff):
    sc = canonicalize(graph, permute_vertices=True)
    if sc.is_zero() or coeff == 0:
        return
    key = sc.canonical
    nv = out.get(key, Fraction(0)) + sc.sign * coeff
    if nv == 0:
        out.pop(key, None)
    else:
        out[key] = nv


def gc_differential(g: OrientedGraph, min_valence=1):
    """Differential of one graph generator, keyed by canonical unlabeled
    graphs.

    Computed as the deformation-complex differential on a labelled
    representative (class reduction makes the symmetrizer redundant):
    bracketing from the outside contributes the univalent attachments,
    the compositions at the vertices contribute the splittings --
    matching the printed attachment-plus-splitting formula, with the
    attachment multiplicity emerging from the two bracket slots.
    min_valence=3 projects onto the subcomplex of at-least-trivalent
    graphs."""
    return dict(_gc_differential(g, min_valence))


@memo
def _gc_differential(g, min_valence):
    d, n = g.d, g.n_vertices
    e = gra_element(g)
    mu = lie_to_gra(d)
    raw = gra_compose(mu, 1, e) + gra_compose(mu, 2, e)
    sign = Fraction((-1) ** (def_degree(e, d) % 2))
    for v in range(1, n + 1):
        if d % 2 == 1:
            # for odd d, expanding slot v into two strands twists the
            # label-ordering sign by the inversions at v; averaging that
            # twist over the symmetrizer leaves the scalar weight
            # (1/n!) sum_sigma (-1)^{inv_v} = 0 (n even), ±1/n (n odd)
            if n % 2 == 0:
                continue
            weight = Fraction((-1) ** (v + 1), n)
        else:
            weight = Fraction(1)
        raw = raw - gra_compose(e, v, mu).scaled(sign * weight)
    out = {}
    for G, c in raw.terms.items():
        _add_class(out, G, c)
    if min_valence > 1:
        out = {G: c for G, c in out.items()
               if min(G.valences()) >= min_valence}
    return out


def gc_differential_combo(combo, min_valence=1):
    """Linear extension of gc_differential to dicts graph -> coeff."""
    out = {}
    for g, c in combo.items():
        for G, cv in gc_differential(g, min_valence).items():
            nv = out.get(G, Fraction(0)) + c * cv
            if nv == 0:
                out.pop(G, None)
            else:
                out[G] = nv
    return out


def map_F(x: OElement) -> GraElement:
    """Chain map to the graph complex: project each term modulo the
    internal-edge ideal (whites become graph vertices)."""
    return poly.quotient_to_gra(x)


def to_gc_classes(y: GraElement):
    """Forget labels: express a (symmetrized) graph element as a
    combination of canonical unlabeled graphs, one representative per
    nonzero class with the coefficient of its canonical labelling."""
    out = {}
    for g, c in y.terms.items():
        sc = canonicalize(g, permute_vertices=True)
        if sc.is_zero():
            continue
        if sc.canonical not in out:
            out[sc.canonical] = sc.sign * c
    return out


# -- slice bases ------------------------------------------------------

# Lowest and highest slice key of each complex: (vertices, edges) for
# the graph complexes, (arity, internal vertices) for 'def-olie' and
# (arity,) for 'def-lie'.  Every differential steps along the diagonal:
# a slice's predecessor is key - 1 and its successor key + 1 in every
# component.
_BOUNDS = {"fcgc": ((1, 1), (7, 12)), "gc": ((1, 1), (7, 12)),
           "def-olie": ((1, 0), (4, 4)), "def-lie": ((2,), (6,))}


@dataclass(frozen=True)
class SliceBasis:
    complex_id: str
    d: int
    key: tuple
    basis: tuple           # generators: graphs, or coordinate dicts
    matrix: SparseMatrix   # differential into the successor slice


def _o_slice_terms(n, k, d):
    """Canonical connected term tuples of arity n with k internal
    vertices, ordered deterministically."""
    p = (d - 1) % 2
    pool = []
    for m in range(2, k + 2):
        for letters in combinations_with_replacement(range(1, n + 1), m):
            pool.extend(poly.basis_for_multiset(letters, p))
    pool = sorted(set(pool), key=lambda w: (len(w), w))

    out = []

    def rec(start, left, acc):
        if left == 0:
            key, sign = poly._sort_term(list(acc), d, "lie")
            if sign != 0 and poly.is_connected_term(n, key):
                labels = {x for w in key for x in w}
                if labels == set(range(1, n + 1)) or (n == 1 and not key):
                    out.append(key)
            return
        for j in range(start, len(pool)):
            w = pool[j]
            if len(w) - 1 <= left:
                rec(j, left - (len(w) - 1), acc + [w])

    if k == 0:
        if n == 1:
            out.append(())
    else:
        rec(0, k, [])
    return sorted(set(out))


def _invariant_basis(terms, make, d):
    """A maximal independent set of the symmetrized terms, taken in
    term order, as (elements, term -> row, Echelon of their
    coordinates)."""
    index = {t: i for i, t in enumerate(terms)}
    elements = []
    span = linalg.Echelon()
    for t in terms:
        x = symmetrize(make(t), d)
        vec = {}
        for tt, c in x.terms.items():
            if tt not in index:
                raise ValueError("symmetrizer left the slice")
            vec[index[tt]] = c
        if span.add(vec):
            elements.append(x)
    return tuple(elements), index, span


def _slice_basis(complex_id, d, key):
    """(generators, term -> row, Echelon of the generators' coordinates)
    of one slice.  The Echelon is None for the graph complexes, whose
    generators are their own terms."""
    if complex_id in ("fcgc", "gc"):
        mv = 3 if complex_id == "gc" else 1
        gens = tuple(enumerate_graphs(*key, d, min_valence=mv,
                                      connected=True))
        return gens, {g: i for i, g in enumerate(gens)}, None
    if complex_id == "def-olie":
        n, k = key
        return _invariant_basis(
            _o_slice_terms(n, k, d),
            lambda t: OElement(n, d, {t: Fraction(1)}, "lie"), d)
    n, = key
    return _invariant_basis(basis_words(n),
                            lambda w: LieElement(n, {w: Fraction(1)}, d), d)


def _image(complex_id, d, x):
    """The differential of the generator x, as a dict term -> coeff."""
    if complex_id in ("fcgc", "gc"):
        return gc_differential(x, min_valence=3 if complex_id == "gc" else 1)
    return def_differential(x, d).terms


def _check_square_zero(first, second):
    """Raise ArithmeticError unless the differential of the slice
    `first` followed by that of its successor `second` is zero."""
    for col in first.matrix.transpose().rows:
        if second.matrix.mul_vector(dict(col)):
            raise ArithmeticError(f"d o d != 0 from slice {first.key}"
                                  f" to {second.key}")


class Chain:
    """The slices of one complex at one d.

    Each basis, differential matrix and rank is built once and kept for
    the life of the chain, which is meant to be one table.  Every pair
    of adjacent matrices the chain holds is checked to compose to zero.
    Keys are tuples; 'def-lie' also takes a bare arity."""

    def __init__(self, complex_id, d):
        if complex_id not in _BOUNDS:
            raise ValueError(f"unknown complex {complex_id!r}")
        self.complex_id, self.d = complex_id, d
        self.lower, self.upper = _BOUNDS[complex_id]
        self._bases, self._slices, self._ranks = {}, {}, {}

    def in_bounds(self, key):
        return len(key) == len(self.lower) and all(
            lo <= k <= hi for lo, k, hi in zip(self.lower, key, self.upper))

    def _basis(self, key):
        """_slice_basis of a slice; nothing outside the grid."""
        if key not in self._bases:
            self._bases[key] = _slice_basis(self.complex_id, self.d, key) \
                if self.in_bounds(key) else ((), {}, None)
        return self._bases[key]

    def _column(self, x, succ):
        """The differential of the generator x in the coordinates of
        the successor slice's generators."""
        _, index, span = self._basis(succ)
        vec = {}
        for t, c in _image(self.complex_id, self.d, x).items():
            if t not in index:
                raise ValueError("differential left the slice grid")
            vec[index[t]] = c
        return vec if span is None else span.coords(vec)

    def slice(self, key):
        """Basis and differential matrix of one slice.  Raises
        ValueError outside the bounds, or where the differential leaves
        the grid."""
        key = (key,) if isinstance(key, int) else tuple(key)
        if key in self._slices:
            return self._slices[key]
        if not self.in_bounds(key):
            raise ValueError(f"slice {key} outside bounds"
                             f" {self.lower}..{self.upper}")
        gens = self._basis(key)[0]
        succ = tuple(k + 1 for k in key)
        cols = [self._column(x, succ) for x in gens]
        n_rows = len(self._basis(succ)[0]) if cols else 0
        sl = SliceBasis(self.complex_id, self.d, key, gens,
                        SparseMatrix.from_columns(cols, n_rows,
                                                  n_cols=len(gens)))
        pred = tuple(k - 1 for k in key)
        if pred in self._slices:
            _check_square_zero(self._slices[pred], sl)
        if succ in self._slices:
            _check_square_zero(sl, self._slices[succ])
        self._slices[key] = sl
        return sl

    def pred(self, sl):
        """The predecessor of the slice sl, or None at the lower bound."""
        key = tuple(k - 1 for k in sl.key)
        return self.slice(key) if self.in_bounds(key) else None

    def rank(self, sl):
        if sl.key not in self._ranks:
            self._ranks[sl.key] = linalg.rank(sl.matrix)
        return self._ranks[sl.key]

    def cohomology(self, key):
        """(kernel dim, incoming image dim, cohomology dim) of a slice."""
        sl = self.slice(key)
        kernel = len(sl.basis) - self.rank(sl)
        pred = self.pred(sl)
        image = self.rank(pred) if pred is not None else 0
        return kernel, image, kernel - image


def build_slice(complex_id, d, key):
    """Basis and differential matrix of one bidegree slice.

    complex_id in {'fcgc', 'gc', 'def-olie', 'def-lie'}; key is (v, e)
    for the graph complexes, (n, k) for 'def-olie', (n,) or n for
    'def-lie'.  The matrix maps this slice into its successor."""
    return Chain(complex_id, d).slice(key)


def cohomology_rank(complex_id, d, key):
    """(kernel dim, incoming image dim, cohomology dim) of one slice."""
    return Chain(complex_id, d).cohomology(key)


# -- witnesses --------------------------------------------------------

def theta_graph():
    """Two vertices joined by three parallel edges (d = 1)."""
    return OrientedGraph(1, 2, ((1, 2), (1, 2), (1, 2)))


def theta_def_element():
    """The deformation-complex incarnation of the theta graph: three
    parallel two-slot components on two whites (d = 1)."""
    return make_term(2, 1, [(1, 2), (1, 2), (1, 2)])


def tetrahedron():
    """The three-wheel in the d = 2 graph complex."""
    return OrientedGraph(2, 4, tuple((i, j) for i in range(1, 5)
                                     for j in range(i + 1, 5)))


def five_wheel_cocycle():
    """The five-wheel class: the wheel plus 5/2 times its correction
    graph, edges ordered as printed."""
    rim = ((1, 2), (2, 3), (3, 4), (5, 4), (5, 1))
    hub = ((6, 2), (6, 3), (4, 6), (6, 5), (6, 1))
    wheel = OrientedGraph(2, 6, rim + hub)
    corr = OrientedGraph(2, 6, ((1, 2), (2, 3), (3, 4), (5, 4), (5, 1),
                                (4, 1), (2, 5), (5, 6), (6, 2), (6, 3)))
    out = {}
    _add_class(out, wheel, Fraction(1))
    _add_class(out, corr, Fraction(5, 2))
    return out
