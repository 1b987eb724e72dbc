"""The operad Gra_d of graphs with labelled vertices: linear
combinations, partial composition, symmetric-group action, and the
morphism from the shifted Lie operad.

Vertices of a Gra element are labelled slots, so canonical forms fix the
labeling and only normalize orientation data (edge directions for d odd,
edge order for d even).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .graphs import OrientedGraph, canonicalize
from .lie import LieElement


@dataclass(frozen=True)
class GraElement:
    arity: int
    d: int
    terms: dict  # canonical OrientedGraph -> Fraction

    def __post_init__(self):
        object.__setattr__(self, "terms",
                           {g: Fraction(c) for g, c in self.terms.items()
                            if c != 0})
        for g in self.terms:
            if g.n_vertices != self.arity:
                raise ValueError("term arity mismatch")

    def is_zero(self):
        return not self.terms

    def scaled(self, c):
        return GraElement(self.arity, self.d,
                          {g: v * c for g, v in self.terms.items()})

    def __add__(self, other):
        if (self.arity, self.d) != (other.arity, other.d):
            raise ValueError("arity/d mismatch")
        out = dict(self.terms)
        for g, c in other.terms.items():
            nv = out.get(g, Fraction(0)) + c
            if nv == 0:
                out.pop(g, None)
            else:
                out[g] = nv
        return GraElement(self.arity, self.d, out)

    def __sub__(self, other):
        return self + other.scaled(Fraction(-1))

    def __eq__(self, other):
        return (isinstance(other, GraElement)
                and (self.arity, self.d, self.terms)
                == (other.arity, other.d, other.terms))

    def __hash__(self):
        return hash((self.arity, self.d,
                     tuple(sorted((g.edges, c) for g, c in self.terms.items()))))

    def to_json(self):
        items = sorted(self.terms.items(), key=lambda kv: kv[0].edges)
        return {"arity": self.arity, "d": self.d,
                "terms": [{"coeff": f"{c.numerator}/{c.denominator}",
                           "graph": g.to_json()} for g, c in items]}

    @classmethod
    def from_json(cls, rec):
        terms = {}
        for t in rec["terms"]:
            g = OrientedGraph.from_json(t["graph"])
            terms[g] = terms.get(g, Fraction(0)) + Fraction(t["coeff"])
        out = cls(rec["arity"], rec["d"], {})
        for g, c in terms.items():
            out = out + element(g, c)
        return out


def _add_graph(terms, graph, coeff):
    sc = canonicalize(graph, permute_vertices=False)
    if sc.is_zero():
        return
    key = sc.canonical
    nv = terms.get(key, Fraction(0)) + sc.sign * coeff
    if nv == 0:
        terms.pop(key, None)
    else:
        terms[key] = nv


def element(graph, coeff=Fraction(1)):
    """GraElement with a single (canonicalized) graph term."""
    terms = {}
    _add_graph(terms, graph, Fraction(coeff))
    return GraElement(graph.n_vertices, graph.d, terms)


def unit(d):
    return element(OrientedGraph(d, 1, ()))


def compose(g1, i, g2):
    """Partial composition: substitute g2 at vertex i of g1 and sum over
    all reattachments of the edges formerly at vertex i.

    g2's vertices occupy i..i+arity(g2)-1; for d even g1's edges keep
    their order and g2's are appended after them.
    """
    if not 1 <= i <= g1.arity:
        raise ValueError(f"index {i} out of range 1..{g1.arity}")
    if g1.d != g2.d:
        raise ValueError("parity mismatch")
    v2 = g2.arity
    new_arity = g1.arity + v2 - 1

    def relabel1(v):
        return v if v < i else v + v2 - 1

    terms = {}
    for G1, c1 in g1.terms.items():
        incident = [k for k, (t, h) in enumerate(G1.edges)
                    if t == i or h == i]
        for G2, c2 in g2.terms.items():
            coeff = c1 * c2
            inner = [(t + i - 1, h + i - 1) for t, h in G2.edges]
            for targets in product(range(i, i + v2), repeat=len(incident)):
                edges = []
                it = iter(targets)
                for k, (t, h) in enumerate(G1.edges):
                    if k in incident:
                        x = next(it)
                        edges.append((x, relabel1(h)) if t == i
                                     else (relabel1(t), x))
                    else:
                        edges.append((relabel1(t), relabel1(h)))
                edges.extend(inner)
                g = OrientedGraph(g1.d, new_arity, tuple(edges))
                _add_graph(terms, g, coeff)
    return GraElement(new_arity, g1.d, terms)


def s_action(g, sigma):
    """Relabel vertices by the permutation sigma (sequence of images)."""
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(1, g.arity + 1)):
        raise ValueError(f"not a permutation of 1..{g.arity}: {sigma}")
    mapping = {v: sigma[v - 1] for v in range(1, g.arity + 1)}
    terms = {}
    for G, c in g.terms.items():
        edges = tuple((mapping[t], mapping[h]) for t, h in G.edges)
        _add_graph(terms, OrientedGraph(G.d, G.n_vertices, edges), c)
    return GraElement(g.arity, g.d, terms)


def lie_to_gra(d):
    """Image of the binary bracket: the single edge, directed 1 -> 2 for
    d odd, undirected (one-element edge ordering) for d even."""
    return element(OrientedGraph(d, 2, ((1, 2),)))


def gra_image(x: LieElement, d):
    """Image of a Lie element under the induced operad map.

    The left-normed word (l1, ..., lm) maps to the image of the
    left-normed bracket chain with standard labels, relabelled by the
    word's label order.  Stored words follow the d = 1 sign rule; for
    even d the suspension twists the symmetric action by sgn, so the
    relabeling contributes the sign of the word's label permutation.
    """
    from .graphs import perm_sign
    m = x.arity
    chain = [None, unit(d), lie_to_gra(d)]
    while len(chain) <= m:
        chain.append(compose(lie_to_gra(d), 1, chain[-1]))
    out = GraElement(m, d, {})
    for word, c in x.terms.items():
        sigma = [0] * m
        for pos, label in enumerate(word):
            sigma[pos] = label
        if d % 2 == 0:
            c = c * perm_sign(sigma)
        out = out + s_action(chain[m], sigma).scaled(c)
    return out
