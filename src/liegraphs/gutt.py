"""PBW star product on the symmetric algebra of a finite-dimensional
Lie algebra, and its arity-2 graph shadow.

Elements of both the symmetric algebra and the deformed enveloping
algebra are dicts {(monomial, h_power): coefficient}: a monomial is a
tuple of generator indices (sorted in normal form), h is the formal
deformation parameter.  The defining rewrite is

    t_j t_i  ->  t_i t_j + h [t_j, t_i]      (j > i)

and the star product is p * q = sigma_inv(sigma(p) . sigma(q)) with
sigma the full symmetrization map, inverted degree by degree.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from types import MappingProxyType

from . import memo
from .gra import GraElement, _add_graph, _element, s_action
from .graphs import OrientedGraph, _check_ints
from .linalg import _add, _axpy, _exact, _exact_terms, _triangular


class FPLieAlgebra:
    """Structure constants on generators 1..dim, Jacobi-checked.

    brackets maps (i, j) with i < j to {k: coefficient}; the other
    order is filled in by antisymmetry, [t_i, t_i] = 0.  dim, the keys
    and the targets k are ints (else TypeError; a bool is not one) and
    dim >= 0; a target may also be a decimal str, as JSON keys are, but
    a bracket names each target once (else ValueError).
    """

    def __init__(self, dim, brackets):
        _check_ints(dim=dim)
        if dim < 0:
            raise ValueError(f"negative dimension {dim}")
        self.dim = dim
        self.brackets = {}
        for (i, j), coeffs in brackets.items():
            _check_ints(i=i, j=j)
            if not (1 <= i < j <= dim):
                raise ValueError("bracket keys must satisfy 1 <= i < j <= dim")
            exact = {int(k) if type(k) is str and k.isdecimal() else k:
                     _exact(c) for k, c in coeffs.items()}
            if len(exact) < len(coeffs):
                raise ValueError(f"bracket {(i, j)} names a target twice")
            clean = {k: c for k, c in exact.items() if c != 0}
            for k in exact:
                _check_ints(target=k)
                if k in clean and not 1 <= k <= dim:
                    raise ValueError("bracket target out of range")
            if clean:
                self.brackets[(i, j)] = clean
        self._check_jacobi()

    def bracket(self, i, j):
        """[t_i, t_j] as {k: coefficient}."""
        if i == j:
            return {}
        if i < j:
            return dict(self.brackets.get((i, j), {}))
        return {k: -c for k, c in self.brackets.get((j, i), {}).items()}

    def _check_jacobi(self):
        for i in range(1, self.dim + 1):
            for j in range(i + 1, self.dim + 1):
                for k in range(j + 1, self.dim + 1):
                    acc = {}
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        for m, cm in self.bracket(a, b).items():
                            for l, cl in self.bracket(m, c).items():
                                _add(acc, l, cm * cl)
                    if acc:
                        raise ValueError(
                            f"Jacobi identity fails on generators {(i, j, k)}")

    def to_json(self):
        return {"dim": self.dim,
                "brackets": [{"i": i, "j": j,
                              "coeffs": {str(k): str(c)
                                         for k, c in sorted(cf.items())}}
                             for (i, j), cf in sorted(self.brackets.items())]}

    @classmethod
    def from_json(cls, rec):
        brackets = {}
        for b in rec["brackets"]:
            brackets[(b["i"], b["j"])] = b["coeffs"]
        return cls(rec["dim"], brackets)


def abelian(n):
    return FPLieAlgebra(n, {})


def heisenberg():
    """[x, y] = z on generators x=1, y=2, z=3."""
    return FPLieAlgebra(3, {(1, 2): {3: 1}})


def two_dim():
    """The nonabelian 2-dimensional algebra [x, y] = y."""
    return FPLieAlgebra(2, {(1, 2): {2: 1}})


# -- polynomial helpers ------------------------------------------------

def poly_add(p, q):
    _check_indices(p, q)
    out = dict(p)
    _axpy(out, 1, q)
    return _exact_terms(out)


def poly_scale(p, c):
    _check_indices(p)
    c = _exact(c)
    return _exact_terms({key: v * c for key, v in p.items()})


def sym_mul(p, q):
    """Commutative product in the symmetric algebra."""
    return _bilinear(p, q, lambda m1, m2: {(tuple(sorted(m1 + m2)), 0): 1})


def monomial(indices, h=0, coeff=1):
    """coeff t_{i_1} ... t_{i_k} h^h, or {} when coeff is 0."""
    p = {(tuple(sorted(indices)), h): coeff}
    _check_indices(p)
    return _exact_terms(p)


def straighten(alg, word, h=0, coeff=1):
    """PBW normal form of a generator word in the deformed enveloping
    algebra; independent of rewrite order by the diamond property."""
    return _linear({(tuple(word), h): _exact(coeff)},
                   partial(_straighten, alg))


# The memoised maps below are keyed by the algebra object and hold the
# (h = 0, coefficient 1) case: straightening, sigma and sigma_inv commute
# with h-shifts and scaling, and the star product is bilinear, so each
# public map is their extension by _linear or _bilinear.  They return
# read-only mappings, since the memo hands the same one to every caller.

def _check_indices(*polys):
    """TypeError unless every generator index is an int (a bool is not
    one), and the power of h a nonnegative int, before any memo is
    asked: as keys, (True,) and (1.0,) equal (1,)."""
    for m, h in (key for p in polys for key in p):
        if not all(type(x) is int for x in m):
            raise TypeError(f"generator index not an int in {m}")
        if type(h) is not int:
            raise TypeError(f"power of h not an int in {(m, h)}")
        if h < 0:
            raise ValueError(f"negative power of h in {(m, h)}")


def _linear(p, image):
    """Sum over the terms ((m, h), c) of p of c times the polynomial
    image(m) shifted by h: the linear extension of image."""
    _check_indices(p)
    out = {}
    for (m, h), c in p.items():
        for (mm, hh), cv in image(m).items():
            _add(out, (mm, hh + h), c * cv)
    return _exact_terms(out)


def _bilinear(p, q, image):
    """The bilinear extension of image(m1, m2), as in _linear."""
    _check_indices(p, q)
    out = {}
    for (m1, h1), c1 in p.items():
        for (m2, h2), c2 in q.items():
            c, h = c1 * c2, h1 + h2
            for (mm, hh), cv in image(m1, m2).items():
                _add(out, (mm, hh + h), c * cv)
    return _exact_terms(out)


@memo
def _straighten(alg, word):
    """PBW normal form of a word.  Its first letter out of order moves
    left past the larger letters before it, one rewrite
    t_j t_i -> t_i t_j + h [t_j, t_i] (j > i) at a time; the word it
    leaves and every bracket term are straightened through this memo,
    so a word that several rewrites reach (the orderings of one
    monomial, say) is straightened once.  Each recursion sorts one more
    letter of its word or shortens it by one, so a reversed word of an
    abelian algebra recurses once per letter, not once per inversion."""
    if not all(1 <= x <= alg.dim for x in word):
        raise ValueError(f"generator index outside 1..{alg.dim} in {word}")
    p = next((p for p in range(1, len(word)) if word[p - 1] > word[p]), 0)
    if not p:
        return MappingProxyType({(word, 0): 1})
    x, base = word[p], {}
    while p and word[p - 1] > x:
        y, head, tail = word[p - 1], word[:p - 1], word[p + 1:]
        for k, ck in alg.bracket(y, x).items():
            for (w, hh), c in _straighten(alg, head + (k,) + tail).items():
                _add(base, (w, hh + 1), ck * c)
        word = head + (x, y) + tail
        p -= 1
    for key, c in _straighten(alg, word).items():
        _add(base, key, c)
    return MappingProxyType(_exact_terms(base))


def u_mul(alg, u, v):
    """Product of two PBW normal forms: concatenate and re-straighten."""
    return _bilinear(u, v, lambda m1, m2: straighten(alg, m1 + m2))


def _orderings(m):
    """The distinct orderings of the letters of m, in lexicographic
    order: each ordering of a multiset once."""
    if not m:
        yield ()
    for x in sorted(set(m)):
        rest = list(m)
        rest.remove(x)
        for w in _orderings(rest):
            yield (x, *w)


@memo
def _sigma_basis(alg, m):
    """sigma of a monomial: the mean of straighten over its k!
    orderings, each distinct ordering taken once.  The straightenings
    are summed as they come (integers when the structure constants
    are) and divided once."""
    words = list(_orderings(m))
    base = {}
    for w in words:
        for key, cv in _straighten(alg, w).items():
            _add(base, key, cv)
    return MappingProxyType({key: _exact(Fraction(c, len(words)))
                             for key, c in base.items()})


def sigma(alg, p):
    """Symmetrization map into the deformed enveloping algebra."""
    return _linear(p, partial(_sigma_basis, alg))


@memo
def _sigma_inv_basis(alg, m):
    """sigma_inv of a monomial, by forward substitution: sigma(w) h^k
    is (w, k) plus strictly shorter monomials, so a longest key of the
    remainder is its next coordinate."""
    return MappingProxyType(_triangular(
        {(m, 0): 1}, lambda rest: max(rest, key=lambda key: len(key[0])),
        lambda key: {(w, h + key[1]): c for (w, h), c
                     in _sigma_basis(alg, key[0]).items()}))


def sigma_inv(alg, u):
    """Invert sigma degree by degree: straightening only produces
    strictly shorter correction monomials, so the system is triangular
    in word length."""
    return _linear(u, partial(_sigma_inv_basis, alg))


def star(alg, p, q):
    """Gutt star product on the symmetric algebra: bilinear extension of
    sigma_inv(sigma(m1) . sigma(m2)), cached per monomial pair."""
    return _bilinear(p, q, partial(_star_basis, alg))


@memo
def _star_basis(alg, m1, m2):
    return MappingProxyType(sigma_inv(
        alg, u_mul(alg, _sigma_basis(alg, m1), _sigma_basis(alg, m2))))


# -- the arity-2 graph shadow -----------------------------------------

def gutt_mod_I_series(max_edges):
    """Sum over k of 1/k! times k parallel directed edges between the
    two slots, at d = 1; the k = 0 term is the edgeless product graph."""
    _check_ints(max_edges=max_edges)
    if not 0 <= max_edges <= 8:
        raise ValueError("0 <= max_edges <= 8")
    forms = {}
    for k in range(max_edges + 1):
        _add_graph(forms, 1, ((1, 2),) * k, Fraction(1, math.factorial(k)))
    return _element(2, 1, forms)


def skew_symmetrize_series(s: GraElement) -> GraElement:
    """Antisymmetrize the two slots (the d = 1 sign rule makes this the
    sign-twisted average); even parallel-edge counts cancel."""
    swapped = s_action(s, (2, 1))
    return (s - swapped).scaled(Fraction(1, 2))


def series_coefficient(s: GraElement, k: int):
    """Coefficient of the k-fold parallel edge 1 -> 2 in an arity-2
    series; k is a nonnegative int."""
    if s.arity != 2:
        raise ValueError(f"arity {s.arity} is not 2")
    _check_ints(k=k)
    if k < 0:
        raise ValueError(f"negative k {k}")
    g = OrientedGraph(s.d, 2, tuple((1, 2) for _ in range(k)))
    return Fraction(s.terms.get(g, 0))
