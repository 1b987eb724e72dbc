"""The operad Gra_d of graphs with labelled vertices: linear
combinations, partial composition, symmetric-group action, and the
morphism from the shifted Lie operad.

Vertices of a Gra element are labelled slots, so canonical forms fix the
labeling and only normalize orientation data (edge directions for d odd,
edge order for d even): every term is normalized from its raw edge list
by `graphs._normal_form`, and only nonzero ones become graphs.
"""

from __future__ import annotations

from itertools import product

from .graphs import (OrientedGraph, _as_permutation, _check_arity, _check_slot,
                     _graph, _normal_form)
from .lie import LieElement, image
from .linalg import Combination, _add, _exact, _exact_terms, _json_coeff


class GraElement(Combination):
    """terms: canonical OrientedGraph -> exact coefficient."""

    __slots__ = ("arity", "d")

    def __init__(self, arity, d, terms):
        _check_arity(arity, d)
        self._fill((arity, d), _exact_terms(terms))
        for g in self.terms:
            if (g.n_vertices, g.d) != (arity, d):
                raise ValueError(f"graph of shape {(g.n_vertices, g.d)} in"
                                 f" an element of shape {(arity, d)}")

    def _shape(self):
        return (self.arity, self.d)

    @classmethod
    def bracket(cls, d):
        """Image of the binary bracket: the single edge, directed 1 -> 2
        for d odd, undirected (one-element edge ordering) for d even."""
        return element(OrientedGraph(d, 2, ((1, 2),)))

    def degree(self):
        """(1 - d) times the edge count, shared by every term."""
        counts = {g.n_edges() for g in self.terms}
        if len(counts) > 1:
            raise ValueError("inhomogeneous edge count")
        return (1 - self.d) * (counts.pop() if counts else 0)

    def compose(self, i, y):
        return compose(self, i, y)

    def act(self, sigma):
        return s_action(self, sigma)

    def to_json(self):
        items = sorted(self.terms.items(), key=lambda kv: kv[0].edges)
        return {"arity": self.arity, "d": self.d,
                "terms": [{"coeff": f"{c.numerator}/{c.denominator}",
                           "graph": g.to_json()} for g, c in items]}

    @classmethod
    def from_json(cls, rec):
        arity, d = rec["arity"], rec["d"]
        _check_arity(arity, d)
        forms = {}
        for t in rec["terms"]:
            g = OrientedGraph.from_json(t["graph"])
            if (g.n_vertices, g.d) != (arity, d):
                raise ValueError(f"graph of shape {(g.n_vertices, g.d)} in"
                                 f" an element of shape {(arity, d)}")
            _add_graph(forms, d, g.edges, _json_coeff(t["coeff"]))
        return _element(arity, d, forms)


def _add_graph(forms, d, edges, coeff):
    """Add coeff times the graph with these raw labelled edges to
    `forms`, a dict from normal edge tuples to coefficients."""
    form, sign = _normal_form(d, edges)
    if sign:
        _add(forms, form, sign * coeff)


def _element(n, d, forms):
    """The GraElement of `_add_graph`'s forms, each derived from a valid
    graph on n vertices, for an arity n and a d already checked: wrapped
    once, with the sums made exact and the zero ones dropped."""
    return GraElement._wrap((n, d), {_graph(d, n, form): c for form, c
                                     in _exact_terms(forms).items()})


def element(graph, coeff=1):
    """GraElement with a single (canonicalized) graph term."""
    forms = {}
    _add_graph(forms, graph.d, graph.edges, _exact(coeff))
    return _element(graph.n_vertices, graph.d, forms)


def unit(d):
    return element(OrientedGraph(d, 1, ()))


def compose(g1, i, g2):
    """Partial composition: substitute g2 at vertex i of g1 and sum over
    all reattachments of the edges formerly at vertex i.

    g2's vertices occupy i..i+arity(g2)-1; for d even g1's edges keep
    their order and g2's are appended after them.
    """
    _check_slot(i, g1.arity)
    if g1.d != g2.d:
        raise ValueError("parity mismatch")
    d, v2 = g1.d, g2.arity
    new_arity = g1.arity + v2 - 1

    def relabel1(v):
        return v if v < i else v + v2 - 1

    forms = {}
    for G1, c1 in g1.terms.items():
        # g1's edges relabelled, the end at i left as None
        outer = [(None if t == i else relabel1(t),
                  None if h == i else relabel1(h)) for t, h in G1.edges]
        incident = [k for k, (t, h) in enumerate(outer)
                    if t is None or h is None]
        for G2, c2 in g2.terms.items():
            coeff = c1 * c2
            inner = [(t + i - 1, h + i - 1) for t, h in G2.edges]
            for targets in product(range(i, i + v2), repeat=len(incident)):
                edges = outer + inner
                for k, x in zip(incident, targets):
                    t, h = edges[k]
                    edges[k] = (x, h) if t is None else (t, x)
                _add_graph(forms, d, edges, coeff)
    return _element(new_arity, d, forms)


def s_action(g, sigma):
    """Relabel vertices by the permutation sigma (sequence of images)."""
    sigma = _as_permutation(sigma, g.arity)
    mapping = {v: sigma[v - 1] for v in range(1, g.arity + 1)}
    forms = {}
    for G, c in g.terms.items():
        edges = [(mapping[t], mapping[h]) for t, h in G.edges]
        _add_graph(forms, G.d, edges, c)
    return _element(g.arity, g.d, forms)


def gra_image(x: LieElement):
    """Image of a Lie element under the induced map (see lie.image)."""
    return image(x, unit(x.d), GraElement.bracket(x.d))
