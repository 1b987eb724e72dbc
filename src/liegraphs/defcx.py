"""Deformation complexes of the shifted-Lie morphisms into Lie, the
graph operad, and the polydifferential operad, together with the
Kontsevich graph complexes fcGC_d / GC_d.

A deformation element of arity n is an (anti)invariant element of the
target's arity-n space: for d odd invariance is twisted by the sign of
the label permutation, for d even it is plain.  The target is whichever
operad the element lives in: the code here only uses the interface its
class shares with the others (`Cls.bracket(d)`, `x.compose(i, y)`,
`x.act(sigma)`, `x.degree()` and the element's own `d`).  The
differential is

    delta x = mu o_1 x + mu o_2 x - (-1)^{|x|} sum_i x o_i mu

followed by the symmetrizer (a projector: average, not sum), where mu
is the image of the binary bracket in the target and |x| is the
deformation degree d(n-1) + (internal degree).  The symmetrizer sums
over S_n through the cosets of S_1 < S_2 < ... < S_n, so the bracket
with mu of an invariant x, already invariant in all but one or two
labels, costs about its orbit rather than (n+1)! relabellings.

Between a slice's raw terms and its differential the pipeline works in
integers: it sums orbits without the 1/n! (`_orbit_sum`), brackets with
mu at integer weights, and divides once, when a generator or an image
is returned.  A slice's span holds the integer orbit sums.

Generators of fcGC_d are connected graphs up to relabeling; the
differential follows the printed formula: -2 times the sum of univalent
attachments plus the sum of vertex splittings.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from . import linalg, poly
from .gra import GraElement, element as gra_element
from .graphs import OrientedGraph, classes, enumerate_graphs
from .lie import LieElement, basis_words
from .linalg import _axpy, _exact
from .poly import OElement, make_term


def symmetrize(x):
    """(Anti)symmetrizer projector: average over label permutations,
    sign-twisted for d odd.  The orbit sum `_orbit_sum(x)` divided by
    n!."""
    return _orbit_sum(x).scaled(Fraction(1, math.factorial(x.arity)))


def _orbit_sum(x):
    """The sum of sigma x over S_n, twisted by the sign of sigma for d
    odd: n! times the symmetrizer, so integer coefficients stay
    integers.

    The sum over S_n is built in stages k = 2..n, since S_k is the union
    of the cosets of S_{k-1} by the cycles that send label k to each
    j < k.  Stage k adds to the running sum its images under those
    k - 1 cycles, each reached from the last by one adjacent swap: the
    swaps (k-1 k), (k-2 k-1), ..., (1 2), in that order, reach the cycle
    of j after k - j of them, with sign (-1)^(k-j) at odd d.  Adjacent
    swaps give the right cosets whether `act` is a left or a right
    action, and a stage mixes only label k into the labels before it,
    so an input already invariant in some labels grows by its orbit,
    not by n!.  That is 1 + n(n-1)/2 calls of `act`."""
    n = x.arity
    sign = -1 if x.d % 2 == 1 else 1
    ident = tuple(range(1, n + 1))
    swaps = [ident[:j - 1] + (j + 1, j) + ident[j + 1:]
             for j in range(1, n)]
    # identity pass normalizes inputs whose terms are not yet in basis form
    total = x.act(ident)
    for k in range(2, n + 1):
        merged, current, sgn = dict(total.terms), total, 1
        for tau in reversed(swaps[:k - 1]):
            current = current.act(tau)
            sgn *= sign
            _axpy(merged, sgn, current.terms)
        total = x.with_terms(merged)
    return total


def def_degree(x):
    """Deformation degree d(n-1) + internal degree."""
    return x.d * (x.arity - 1) + x.degree()


def _bracket_mu(x):
    """(w B(x), w): the bracket with mu before the symmetrizer P,
    scaled so that integer coefficients stay integers,

        B(x) = mu o_1 x + mu o_2 x - (-1)^{|x|} sum_i c_i x o_i mu.

    For d even all weights c_i are 1; for d odd expanding slot i into
    two strands twists the label-ordering sign by the inversions at i,
    and averaging that twist over P leaves c_i = 0 for n even and
    (-1)^{i+1}/n for n odd.  There the factor w is n and the weights
    w c_i = (-1)^{i+1}; everywhere else w is 1.  So an integer x gives
    an integer bracket, and the caller divides by w once, at the end."""
    n, d = x.arity, x.d
    mu = type(x).bracket(d)
    out = mu.compose(1, x) + mu.compose(2, x)
    if d % 2 == 1 and n % 2 == 0:
        return out, 1
    w = n if d % 2 == 1 else 1
    sign = (-1) ** (def_degree(x) % 2)
    out = out.scaled(w)
    for i in range(1, n + 1):
        c = 1 if d % 2 == 0 else (-1) ** (i + 1)
        out = out - x.compose(i, mu).scaled(sign * c)
    return out, w


def def_differential(x):
    """Differential of the invariant projection of x: the symmetrizer
    applied to the bracket with mu.  On invariant elements (the complex
    itself) this agrees with symmetrizing the plain bracket formula.

    x is first cleared of denominators, so the bracket and the orbit
    sum run on integers, and the result is divided once."""
    den = math.lcm(*(c.denominator for c in x.terms.values()))
    image, w = _bracket_mu(x.scaled(den))
    scale = den * w * math.factorial(x.arity + 1)
    return _orbit_sum(image).scaled(Fraction(1, scale))


# -- the graph complexes ----------------------------------------------

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
    graphs.  The labelled terms are reduced to classes by
    `graphs.classes`; valences survive relabelling, so a term with a
    vertex of valence below min_valence is dropped first."""
    image, w = _bracket_mu(gra_element(g))
    out = classes(image.d, image.arity, (
        (G, c) for G, c in image.terms.items()
        if min_valence <= 1 or min(G.valences()) >= min_valence))
    return {G: _exact(Fraction(c, w)) for G, c in out.items()}


def gc_differential_combo(combo, min_valence=1):
    """Linear extension of gc_differential to dicts graph -> coeff."""
    out = {}
    for g, c in combo.items():
        _axpy(out, c, gc_differential(g, min_valence))
    return out


def map_F(x: OElement) -> GraElement:
    """Chain map to the graph complex: project each term modulo the
    internal-edge ideal (whites become graph vertices)."""
    return poly.quotient_to_gra(x)


# -- slice bases ------------------------------------------------------

# Lowest and highest slice key of each complex: (vertices, edges) for
# the graph complexes, (arity, internal vertices) for 'def-olie' and
# (arity,) for 'def-lie'.  Every differential steps along the diagonal:
# a slice's predecessor is key - 1 and its successor key + 1 in every
# component.  The graph complexes take vertices of valence at least
# _MIN_VALENCE.
_BOUNDS = {"fcgc": ((1, 1), (7, 12)), "gc": ((1, 1), (7, 12)),
           "def-olie": ((1, 0), (4, 4)), "def-lie": ((2,), (6,))}
_MIN_VALENCE = {"fcgc": 1, "gc": 3}


# basis: the generators (graphs, or invariant elements); span: the Echelon
# of their integer orbit sums' terms (n! times the generators for the def
# complexes); images: their differentials, each a dict term -> coeff
SliceBasis = namedtuple("SliceBasis", ("key", "basis", "span", "images"))


def _slice_basis(complex_id, d, key, span):
    """Yield the pairs (generator, its differential term -> coeff) of
    one slice, each as soon as the generator is found independent, and
    add its term coordinates to the Echelon span: the graphs, or a
    maximal independent set of the symmetrized terms, taken in term
    order.  For the def complexes span holds the integer orbit sums, and
    the generator is the orbit sum divided by n!."""
    if complex_id in _MIN_VALENCE:
        mv = _MIN_VALENCE[complex_id]
        for g in enumerate_graphs(*key, d, min_valence=mv, connected=True):
            if span.add({g: 1}):
                yield g, gc_differential(g, mv)
        return
    n = key[0]
    if complex_id == "def-olie":
        raw = (OElement(n, d, {t: 1}, "lie")
               for t in poly.terms(n, key[1], d)
               if poly.is_connected_term(n, t))
    else:
        raw = (LieElement(n, {w: 1}, d) for w in basis_words(n))
    scale = Fraction(1, math.factorial(n))
    for x in raw:
        orbit = _orbit_sum(x)
        if span.add(orbit.terms):
            x = orbit.scaled(scale)
            yield x, def_differential(x).terms


def _check_square_zero(first, second):
    """Raise ArithmeticError unless the differential of the slice
    `first` followed by that of its successor `second` is zero: each
    image's coordinates x over the successor's generators must give
    sum_j x_j image_j = 0."""
    for image in first.images:
        try:
            x = second.span.coords(image)
        except ValueError:  # the image is not in the complex
            dd = None
        else:
            dd = {}
            for j, c in x.items():
                _axpy(dd, c, second.images[j])
        if dd is None or dd:
            raise ArithmeticError(f"d o d != 0 from slice {first.key}"
                                  f" to {second.key}")


class Chain:
    """The slices of one complex at one d.

    Each basis, its images and their elimination are built once and
    kept for the life of the chain, which is meant to be one table.
    Every pair of adjacent slices the chain holds is checked to compose
    to zero.
    Keys are tuples; 'def-lie' also takes a bare arity."""

    def __init__(self, complex_id, d):
        if complex_id not in _BOUNDS:
            raise ValueError(f"unknown complex {complex_id!r}")
        self.complex_id, self.d = complex_id, d
        self.lower, self.upper = _BOUNDS[complex_id]
        self._slices, self._echelons = {}, {}

    def in_bounds(self, key):
        return len(key) == len(self.lower) and all(
            lo <= k <= hi for lo, k, hi in zip(self.lower, key, self.upper))

    def slice(self, key):
        """Basis and images of one slice.  Raises ValueError outside the
        bounds, or where the differential leaves the grid."""
        key = (key,) if isinstance(key, int) else tuple(key)
        if key in self._slices:
            return self._slices[key]
        if not self.in_bounds(key):
            raise ValueError(f"slice {key} outside bounds"
                             f" {self.lower}..{self.upper}")
        succ = tuple(k + 1 for k in key)
        span, gens, images = linalg.Echelon(), [], []
        # each image as soon as its generator is found: at the grid edge
        # the first nonzero one ends the slice
        for x, image in _slice_basis(self.complex_id, self.d, key, span):
            if image and not self.in_bounds(succ):
                raise ValueError("differential left the slice grid")
            gens.append(x)
            images.append(image)
        sl = SliceBasis(key, tuple(gens), span, tuple(images))
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

    def _echelon(self, sl):
        """(span, independent, kernel) of the slice's image columns,
        from `linalg._column_echelon`, made once per slice."""
        if sl.key not in self._echelons:
            self._echelons[sl.key] = linalg._column_echelon(sl.images)
        return self._echelons[sl.key]

    def rank(self, sl):
        return self._echelon(sl)[0].rank

    def cohomology(self, key):
        """(kernel dim, incoming image dim, cohomology dim) of a slice."""
        sl = self.slice(key)
        kernel = len(sl.basis) - self.rank(sl)
        pred = self.pred(sl)
        image = self.rank(pred) if pred is not None else 0
        return kernel, image, kernel - image

    def witness(self, key):
        """A closed, non-exact combination of the slice's generators (a
        dict graph -> coeff, or an element), or None when the cohomology
        is zero: the first kernel vector, in `linalg.kernel_basis` order,
        outside the span of the predecessor's images."""
        sl = self.slice(key)
        pred = self.pred(sl)
        exact = self._echelon(pred)[0] if pred else linalg.Echelon()
        for vec in self._echelon(sl)[2]:
            if self.complex_id in _MIN_VALENCE:
                combo = terms = {sl.basis[i]: c for i, c in vec.items()}
            else:
                terms = {}
                for i, c in sorted(vec.items()):
                    _axpy(terms, c, sl.basis[i].terms)
                combo = sl.basis[0].with_terms(terms)
            try:
                exact.coords(terms)
            except ValueError:
                return combo
        return None


def build_slice(complex_id, d, key):
    """Basis and images of one bidegree slice.

    complex_id in {'fcgc', 'gc', 'def-olie', 'def-lie'}; key is (v, e)
    for the graph complexes, (n, k) for 'def-olie', (n,) or n for
    'def-lie'.  The images lie in this slice's successor."""
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
    return classes(2, 6, [(wheel, 1), (corr, Fraction(5, 2))])
