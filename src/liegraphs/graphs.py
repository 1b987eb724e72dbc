"""Oriented graphs with parity-dependent orientation data and canonical
forms with signs.

Orientation conventions (vertices are 1..n, no tadpoles):

* d even: the list order of `edges` is the edge ordering; an odd
  permutation of it multiplies the element by -1.  Edge direction is
  meaningless and pairs are stored normalized (low, high).  A graph with
  parallel edges is zero (swapping them is an odd automorphism).
* d odd: each pair's (tail, head) order is the edge direction; flipping
  an edge multiplies by -1.  The list order of edges carries no sign and
  is stored sorted.

`canonicalize` works at two levels.  With permute_vertices=False the
vertex labels are fixed (the Gra_d situation) and only the orientation
data is normalized.  With permute_vertices=True vertices are unlabelled
(the graph-complex situation) and relabeling by sigma additionally
contributes sgn(sigma) when d is odd — the sign twist of the deformation
complex, under which the vertex ordering is part of the orientation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

ZERO = 0


# ordered by (d, n_vertices, edges): within one slice, the order in
# which enumerate_graphs lists its canonical graphs
@dataclass(frozen=True, order=True)
class OrientedGraph:
    d: int
    n_vertices: int
    edges: tuple

    def __post_init__(self):
        edges = tuple((int(t), int(h)) for t, h in self.edges)
        for t, h in edges:
            if t == h:
                raise ValueError("tadpole edge")
            if not (1 <= t <= self.n_vertices and 1 <= h <= self.n_vertices):
                raise ValueError("vertex label out of range")
        object.__setattr__(self, "edges", edges)

    def n_edges(self):
        return len(self.edges)

    def valences(self):
        val = [0] * (self.n_vertices + 1)
        for t, h in self.edges:
            val[t] += 1
            val[h] += 1
        return val[1:]

    def to_json(self):
        return {"d": self.d, "vertices": self.n_vertices,
                "edges": [[t, h] for t, h in self.edges]}

    @classmethod
    def from_json(cls, rec):
        return cls(rec["d"], rec["vertices"],
                   tuple((t, h) for t, h in rec["edges"]))


@dataclass(frozen=True)
class SignedCanonical:
    canonical: OrientedGraph
    sign: int  # +1, -1, or 0 (ZERO)

    def is_zero(self):
        return self.sign == 0


def _sort_sign(seq):
    """Stable sort with permutation parity; parity is None on ties."""
    indexed = sorted(range(len(seq)), key=lambda i: seq[i])
    items = [seq[i] for i in indexed]
    for a, b in zip(items, items[1:]):
        if a == b:
            return items, None
    return items, perm_sign(indexed)


def perm_sign(perm):
    """Sign of a permutation given as a sequence of its values."""
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return (-1) ** inv


def _normal_form(d, n, edges, sigma):
    """Relabel by sigma (map old -> new) and normalize orientation data.

    Returns (edge_tuple, sign) or (edge_tuple, None) for a zero graph.
    """
    relabeled = [(sigma[t], sigma[h]) for t, h in edges]
    if d % 2 == 0:
        norm = [(min(t, h), max(t, h)) for t, h in relabeled]
        items, par = _sort_sign(norm)
        if par is None:  # parallel edges: odd automorphism
            return tuple(items), None
        return tuple(items), par
    flips = sum(1 for t, h in relabeled if t > h)
    norm = sorted((min(t, h), max(t, h)) for t, h in relabeled)
    return tuple(norm), (-1) ** flips


def _vertex_classes(g):
    """Partition vertices by a relabeling-invariant key, coarsest first."""
    val = g.valences()
    adj = {v: [] for v in range(1, g.n_vertices + 1)}
    for t, h in g.edges:
        adj[t].append(val[h - 1])
        adj[h].append(val[t - 1])
    key = {v: (val[v - 1], tuple(sorted(adj[v]))) for v in adj}
    classes = {}
    for v in sorted(adj):
        classes.setdefault(key[v], []).append(v)
    return [classes[k] for k in sorted(classes)]


def _class_permutations(g):
    """All relabelings respecting the invariant partition, as dicts."""
    classes = _vertex_classes(g)
    blocks = []
    pos = 1
    for cls in classes:
        blocks.append(list(range(pos, pos + len(cls))))
        pos += len(cls)
    for choice in _product_perms(blocks):
        sigma = {}
        for cls, perm in zip(classes, choice):
            for old, new in zip(cls, perm):
                sigma[old] = new
        yield sigma


def _product_perms(blocks):
    if not blocks:
        yield ()
        return
    for head in permutations(blocks[0]):
        for tail in _product_perms(blocks[1:]):
            yield (head,) + tail


def canonicalize(g, permute_vertices=True):
    """Canonical representative with sign; sign 0 means the graph is zero.

    The input equals sign * canonical as elements of the orientation
    quotient.  With permute_vertices=False the labeling is kept fixed.
    """
    n = g.n_vertices
    if permute_vertices:
        sigmas = _class_permutations(g)
    else:
        sigmas = [{v: v for v in range(1, n + 1)}]
    odd = g.d % 2 == 1
    best = None
    best_signs = set()
    for sigma in sigmas:
        form, s = _normal_form(g.d, n, g.edges, sigma)
        if s is None:
            return SignedCanonical(OrientedGraph(g.d, n, form), ZERO)
        if odd and permute_vertices:
            s *= perm_sign([sigma[v] for v in range(1, n + 1)])
        if best is None or form < best:
            best = form
            best_signs = {s}
        elif form == best:
            best_signs.add(s)
    if len(best_signs) == 2:
        return SignedCanonical(OrientedGraph(g.d, n, best), ZERO)
    return SignedCanonical(OrientedGraph(g.d, n, best), best_signs.pop())


def _components(n, edges):
    """Number of connected components of a graph on vertices 1..n."""
    label = list(range(n + 1))
    for t, h in edges:
        a, b = label[t], label[h]
        if a != b:
            label = [a if x == b else x for x in label]
    return len(set(label[1:]))


def is_connected(g):
    return _components(g.n_vertices, g.edges) <= 1


def enumerate_graphs(n_vertices, n_edges, d, min_valence=0, connected=True):
    """Duplicate-free canonical basis of a (v, e) slice; deterministic order.

    For d even only simple graphs occur (parallel edges are zero); for
    d odd parallel edges are kept, each directed low -> high.

    The slice is built one edge at a time over isomorphism classes
    (McKay, "Isomorph-free exhaustive generation", 1998): each class of
    k-edge graphs is extended by every vertex pair, and each child is
    reduced to its unsigned class, the canonical form of its underlying
    multigraph (the d = 1 form, which ignores signs).  A graph is kept
    only while it can still reach the slice: every vertex needs
    min_valence edge ends (at least one when n_vertices > 1), and the
    graph must be connected when asked; each edge left adds two ends
    and joins at most two components.
    """
    if n_vertices > 8 or n_edges > 14:
        raise ValueError("out of desk-scale bounds (v <= 8, e <= 14)")
    if n_edges < 0:
        raise ValueError("negative edge count")
    n = n_vertices
    pairs = list(combinations(range(1, n + 1), 2))
    need = max(min_valence, 1 if n > 1 else 0)

    def viable(edges, left):
        val = [0] * (n + 1)
        for t, h in edges:
            val[t] += 1
            val[h] += 1
        if sum(max(0, need - x) for x in val[1:]) > 2 * left:
            return False
        return not connected or _components(n, edges) - 1 <= left

    level = {()} if viable((), n_edges) else set()
    for left in range(n_edges - 1, -1, -1):
        children, tried = set(), set()
        for edges in level:
            for pair in pairs:
                if d % 2 == 0 and pair in edges:
                    continue
                child = tuple(sorted(edges + (pair,)))
                # several classes can give the same labelled child
                if child in tried or not viable(child, left):
                    continue
                tried.add(child)
                children.add(canonicalize(
                    OrientedGraph(1, n, child)).canonical.edges)
        level = children
    signed = [canonicalize(OrientedGraph(d, n, edges)) for edges in level]
    return sorted((sc.canonical for sc in signed if not sc.is_zero()),
                  key=lambda g: g.edges)
