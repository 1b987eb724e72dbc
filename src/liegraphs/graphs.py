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

Normal forms work at two levels.  `_normal_form` keeps the vertex
labels fixed (the Gra_d situation) and only normalizes the orientation
data.  `canonicalize` treats vertices as unlabelled (the graph-complex
situation): relabeling by sigma additionally contributes sgn(sigma) when
d is odd — the sign twist of the deformation complex, under which the
vertex ordering is part of the orientation.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations, groupby
from types import MappingProxyType

from . import memo
from .linalg import _add

ZERO = 0


def _check_ints(**values):
    """TypeError unless every value is an int (a bool is not)."""
    for name, x in values.items():
        if type(x) is not int:
            raise TypeError(f"{name} {x!r} is not an int")


def _check_arity(arity, d):
    """The shape check of an operad element: TypeError unless arity
    and d are ints, ValueError for a negative arity."""
    _check_ints(arity=arity, d=d)
    if arity < 0:
        raise ValueError(f"negative arity {arity}")


# A tuple ordered by (d, n_vertices, edges): within one slice, the order
# in which enumerate_graphs lists its canonical graphs.  Hash and
# equality are the tuple's own, so a graph keys a dict without a Python
# call.
class OrientedGraph(namedtuple("OrientedGraph", ("d", "n_vertices", "edges"))):
    __slots__ = ()

    def __new__(cls, d, n_vertices, edges):
        _check_ints(d=d, n_vertices=n_vertices)
        n = n_vertices
        if n < 0:
            raise ValueError("negative vertex count")
        edges = tuple(map(tuple, edges))
        for t, h in edges:
            if type(t) is not int or type(h) is not int:
                raise TypeError(f"vertex label not an int in {(t, h)!r}")
            if t == h:
                raise ValueError("tadpole edge")
            if not (0 < t <= n and 0 < h <= n):
                raise ValueError("vertex label out of range")
        return tuple.__new__(cls, (d, n, edges))

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


def _graph(d, n, form):
    """The OrientedGraph of a form that `_normal_form`, `_coarse_form`
    or `_canonical_form` derived from a valid graph on n vertices,
    wrapped without checking it again."""
    return tuple.__new__(OrientedGraph, (d, n, form))


# sign is +1, -1, or 0 (ZERO)
class SignedCanonical(namedtuple("SignedCanonical", ("canonical", "sign"))):
    __slots__ = ()

    def is_zero(self):
        return self.sign == 0


def perm_sign(perm):
    """Sign of a permutation given as a sequence of its values."""
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return (-1) ** inv


def _check_slot(i, arity):
    """Refuse a composition index: TypeError unless it is an int (a
    bool is not), ValueError outside 1..arity."""
    if type(i) is not int:
        raise TypeError(f"index {i!r} is not an int")
    if not 1 <= i <= arity:
        raise ValueError(f"index {i} out of range 1..{arity}")


def _as_permutation(sigma, n):
    """sigma (a sequence of images) as a tuple; ValueError unless it
    permutes 1..n."""
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {sigma}")
    return sigma


def _normal_form(d, edges):
    """Sort a labelled edge list into (low, high) pairs.

    Returns (edge_tuple, sign), with sign 0 for a zero graph: at even d
    the sign is the parity of the sort and parallel edges are zero; at
    odd d it is -1 to the number of edges that run high -> low.
    """
    norm = [(t, h) if t < h else (h, t) for t, h in edges]
    form = tuple(sorted(norm))
    if d % 2:
        return form, -1 if len([1 for t, h in edges if t > h]) % 2 else 1
    if len(set(form)) < len(form):
        return form, ZERO
    return form, perm_sign(norm)


def _form(edges, a):
    """The sorted (low, high) pairs of the edges relabelled by a
    (a[v] the new label of v): a relabelled graph's unsigned form."""
    pairs = [(a[t], a[h]) for t, h in edges]
    return tuple(sorted([(x, y) if x < y else (y, x) for x, y in pairs]))


def _coarse_form(n, edges):
    """The graph relabelled by its coarse vertex classes: the base
    order that `_canonical_form` starts from.

    Vertices are keyed by valence and the valences of their neighbours;
    the classes go in key order and the members of a class by label,
    and position p gets label p + 1.  Returns (form, a, sizes): the
    relabelled graph's unsigned form (`_form`), the relabeling as a
    list with a[0] = 0 and a[v] the new label of v, and the class sizes
    in order.  The input equals the form with the sign
    `_relabel_sign(d, edges, a)`.  Two labelled graphs with one coarse
    form are one oriented graph, up to their signs, so one search
    serves both.
    """
    nbrs = [[] for _ in range(n + 1)]
    for t, h in edges:
        nbrs[t].append(h)
        nbrs[h].append(t)
    val = [len(a) for a in nbrs]
    keys = [(val[v], sorted(map(val.__getitem__, a)))
            for v, a in enumerate(nbrs)]
    base = sorted(range(1, n + 1), key=keys.__getitem__)
    lab = [0] * (n + 1)
    for p, v in enumerate(base):
        lab[v] = p + 1
    return _form(edges, lab), lab, [
        len(list(cls)) for _, cls in groupby(base, keys.__getitem__)]


def _canonical_form(n, edges, sizes):
    """Orbit-minimal edge tuple of an unlabelled graph, the relabeling
    that gives it and the automorphisms the search found, for a coarse
    form and its class sizes (`_coarse_form`).  The search compares
    edge tuples only; `_signed_class` reads a sign at d off its result.

    The relabelings in play keep each coarse class, a block of
    consecutive labels, on its own block, and the result is the least
    sorted edge tuple among them.

    Position p gets label p + 1, and the relabelings are walked depth
    first as a branch-and-bound.  Read a form as a flat sequence: for
    each label its higher neighbours in order, then the terminator
    n + 1.  The key of a partial relabeling is that sequence as far as
    its labels fix it, then a lower bound for the next entry.  Keys at
    one depth compare as all their completions do.  So where three or
    more vertices of a class are left, only the children of least key
    are walked, and a child whose key exceeds the best leaf's at its
    depth is cut; a last pair is walked in both orders.

    Two leaves with one form differ by an automorphism.  Kept, it cuts
    the children that it maps onto a walked sibling, and the later
    leaf's subtree is left back to the node where the two paths split
    (McKay, "Practical graph isomorphism", 1981).  The automorphisms
    found this way generate the whole group.

    The result is (form, a, automorphisms).  a takes the coarse form's
    labels to the form's, as a tuple with a[0] = 0 and a[v] the new
    label of v; it is None when every coarse class is one vertex, and
    the form is the coarse form.  Each found automorphism is such a
    tuple on the form's labels and maps its edges onto themselves.
    `_layer` tries one new edge per orbit of them, and `_signed_class`
    and `enumerate_graphs` read off the sign of a class at d.
    """
    nbrs = [[] for _ in range(n + 1)]
    for t, h in edges:
        nbrs[t].append(h)
        nbrs[h].append(t)
    top = n + 1
    lab = [top] * (n + 1)  # top marks a vertex not labelled yet
    # a class of one vertex fixes its label; the search has a node at
    # every other position but the last of each class
    nodes, p = [], 0
    for size in sizes:
        cls = list(range(p + 1, p + size + 1))
        if size == 1:
            lab[p + 1] = p + 1
        nodes += [(r, cls) for r in range(p, p + size - 1)]
        p += size
    if not nodes:  # one relabeling: the coarse form itself
        return edges, None, ()
    nodes.append((n, None))
    order = list(range(1, n + 1))  # order[p]: the vertex labelled p + 1
    path = [None] * n  # keys along the current path, by depth
    best = []  # form, order and path of the least leaf so far
    gens = []  # automorphisms found, as lists old -> old

    def key(q):
        """The form's sequence as far as labels 1..q fix it, then a
        lower bound for the next entry."""
        out = []
        for a in range(q):
            later = sorted([x for x in map(lab.__getitem__, nbrs[order[a]])
                            if x > a + 1])
            if later and later[-1] > q:
                out += [x for x in later if x <= q]
                out.append(q + 1)
                return out
            out += later
            out.append(top)
        out.append(q + 2)
        return out

    def leaf():
        """Compare the complete relabeling with the best; return the
        depth to resume at."""
        nonlocal best
        form = _form(edges, lab)
        if not best or form < best[0]:
            best = [form, order[:], path[:]]
            return n
        if form > best[0]:
            return n
        g = [0] * (n + 1)
        for x, y in zip(best[1], order):
            g[x] = y
        gens.append(g)
        return next(r for r in range(n) if order[r] != best[1][r])

    def place(p, v, w):
        """Give v label p + 1 and w, if any, label p + 2."""
        order[p] = v
        lab[v] = p + 1
        if w:
            order[p + 1] = w
            lab[w] = p + 2

    def search(j):
        """Walk the j-th node on the path; return the depth to resume at."""
        p, cls = nodes[j]
        q = nodes[j + 1][0]
        cands = [v for v in cls if lab[v] > p]
        kids = [(i, v, None) for i, v in enumerate(cands)]
        if len(cands) > 2 and q < n:  # keep the children of least key
            for k, (i, v, _) in enumerate(kids):
                place(p, v, None)
                kids[k] = i, v, key(q)
                lab[v] = top
            low = min(kid[2] for kid in kids)
            kids = [kid for kid in kids if kid[2] == low]
        walked = []
        for i, v, k in kids:
            if k:
                path[q] = k
                if best and k > best[2][q]:
                    return p
            if gens and walked and v in _orbit(walked, gens, order[:p]):
                continue
            # of a last pair, the other vertex takes the next label
            w = cands[1 - i] if len(cands) == 2 else None
            place(p, v, w)
            back = search(j + 1) if q < n else leaf()
            lab[v] = top
            if w:
                lab[w] = top
            walked.append(v)
            if back < p:
                return back
        return p

    search(0)
    # label p + 1 went to vertex best[1][p]
    for p, v in enumerate(best[1]):
        lab[v] = p + 1
    return best[0], (0, *lab[1:]), tuple(
        (0, *[lab[g[v]] for v in best[1]]) for g in gens)


def _signed_class(d, n, coarse, sizes):
    """The canonical form of a coarse form and the sign with which the
    coarse form equals it at d: ZERO when a found automorphism is odd,
    since they generate the group and the sign is a homomorphism, else
    the relabeling's sign."""
    form, a, auts = _canonical_form(n, coarse, sizes)
    if any(_relabel_sign(d, form, b) != 1 for b in auts):
        return form, ZERO
    return form, 1 if a is None else _relabel_sign(d, coarse, a)


def _orbit(points, gens, fixed):
    """Orbit of points under the automorphisms fixing `fixed` pointwise."""
    fix = [g for g in gens if all(g[x] == x for x in fixed)]
    orbit, todo = set(points), list(points)
    while todo:
        x = todo.pop()
        for g in fix:
            if g[x] not in orbit:
                orbit.add(g[x])
                todo.append(g[x])
    return orbit


def canonicalize(g):
    """Canonical representative with sign; sign 0 means the graph is zero.

    The input equals sign * canonical as elements of the orientation
    quotient, with the vertices unlabelled.  The graph's coarse form
    (`_coarse_form`) is searched and signed (`_signed_class`), so a zero
    graph gets the least form too; the graph equals its coarse form with
    the sign of that relabeling (`_relabel_sign`).
    """
    d, n = g.d, g.n_vertices
    form, a, sizes = _coarse_form(n, g.edges)
    sign = _relabel_sign(d, g.edges, a)
    form, s = _signed_class(d, n, form, sizes)
    return SignedCanonical(_graph(d, n, form), sign * s)


def classes(d, n, terms):
    """The sum of the (graph, coefficient) pairs `terms`, labelled
    graphs on n vertices at d, as a dict from canonical graphs (those of
    `canonicalize`) to nonzero coefficients.  Terms with one coarse form
    (`_coarse_form`) are one graph up to the sign of their relabelings
    (`_relabel_sign`), so they are summed first, and each nonzero sum
    takes one search (`_signed_class`)."""
    coarse, sizes = {}, {}
    for g, c in terms:
        form, a, sizes[form] = _coarse_form(n, g.edges)
        if sign := _relabel_sign(d, g.edges, a):
            _add(coarse, form, sign * c)
    out = {}
    for form, c in coarse.items():
        form, sign = _signed_class(d, n, form, sizes[form])
        if sign:
            _add(out, _graph(d, n, form), sign * c)
    return out


def _component_labels(n, edges):
    """A label per vertex 0..n, equal on vertices of one component."""
    label = list(range(n + 1))
    for t, h in edges:
        a, b = label[t], label[h]
        if a != b:
            label = [a if x == b else x for x in label]
    return label


def _components(n, edges):
    """Number of connected components of a graph on vertices 1..n."""
    return len(set(_component_labels(n, edges)[1:]))


def is_connected(g):
    return _components(g.n_vertices, g.edges) <= 1


def _pair_orbits(pairs, auts):
    """One pair of each orbit that the group generated by auts makes of
    pairs (a set it maps onto itself), the least one first met."""
    if not auts:
        return pairs
    reps, seen = [], set()
    for pair in pairs:
        if pair in seen:
            continue
        reps.append(pair)
        seen.add(pair)
        todo = [pair]
        while todo:
            t, h = todo.pop()
            for a in auts:
                x, y = a[t], a[h]
                image = (x, y) if x < y else (y, x)
                if image not in seen:
                    seen.add(image)
                    todo.append(image)
    return reps


@memo
def _layer(n, k, m, simple, need, connected):
    """Unsigned classes of the k-edge graphs on n vertices with slack m,
    as a read-only mapping from their canonical forms (simple graphs
    only when `simple`) to the automorphisms `_canonical_form` found
    for each.

    A vertex lacks max(0, need - valence) edge ends.  The slack is the
    least number of edges that can still take a graph into a slice: half
    its missing ends, rounded up, and, when `connected`, its components
    less one.  An edge lowers the slack by at most one and deleting one
    never lowers it, so every class of slack m is a child of a class
    with k - 1 edges and slack m or m + 1, and each child's slack is
    read off its parent's valences and component labels.

    Two prunings keep most children from a canonical search (McKay,
    "Isomorph-free exhaustive generation", J. Algorithms 26, 1998).
    A parent tries one pair of each orbit of its automorphisms, since
    pairs of one orbit give isomorphic children.  A child is kept only
    when its new edge carries the largest valence pair (the sorted
    valences of its ends) among its edges.  No class C is lost: take an
    edge e of C with the largest pair; C - e has slack m or m + 1, so
    its class is a parent, and that parent plus the image of e, or of
    another pair in its orbit, is a child isomorphic to C whose new
    edge has the largest pair.

    A kept child is searched only when its coarse form (`_coarse_form`)
    is new to the layer: children with one coarse form are one graph,
    so the search of the first stands for all.  Isomorphic children with
    different coarse forms still meet in the keys of the mapping.
    """
    if k == 0:
        least = max((n * need + 1) // 2, n - 1 if connected else 0)
        if least != m:
            return MappingProxyType({})
        # the empty graph: one coarse class of n vertices
        return MappingProxyType({(): _canonical_form(n, (), [n])[2]})
    pairs = list(combinations(range(1, n + 1), 2))
    out, coarse = {}, set()
    for parents in (_layer(n, k - 1, m, simple, need, connected),
                    _layer(n, k - 1, m + 1, simple, need, connected)):
        for edges, auts in parents.items():
            val, comp = [0] * (n + 1), _component_labels(n, edges)
            for t, h in edges:
                val[t] += 1
                val[h] += 1
            lack = sum(max(0, need - x) for x in val[1:])
            parts = len(set(comp[1:])) - 1 if connected else 0
            for pair in _pair_orbits(pairs, auts):
                t, h = pair
                if simple and pair in edges:
                    continue
                ends = lack - (val[t] < need) - (val[h] < need)
                joins = connected and comp[t] != comp[h]
                if max((ends + 1) // 2, parts - joins) != m:
                    continue
                val[t] += 1
                val[h] += 1
                top = (val[t], val[h]) if val[t] < val[h] else \
                    (val[h], val[t])
                beaten = any(
                    (val[a], val[b]) > top if val[a] < val[b]
                    else (val[b], val[a]) > top for a, b in edges)
                val[t] -= 1
                val[h] -= 1
                if beaten:
                    continue
                # several labelled children can give the same coarse form
                form, _, sizes = _coarse_form(n, edges + (pair,))
                if form not in coarse:
                    coarse.add(form)
                    form, _, found = _canonical_form(n, form, sizes)
                    out.setdefault(form, found)
    return MappingProxyType(out)


def _relabel_sign(d, edges, a):
    """The sign with which the graph `edges` equals, at d, the normal
    form of its relabelling by a (a[0] = 0, a[v] the new label of v):
    the sign of the sorted edges at even d (0 for parallel edges), and
    at odd d that of the edges it reverses times sgn(a).  The one sign
    of a relabeling in this module: `edges` is any raw edge list, in
    any direction at odd d and in any order at even d, so it signs a
    raw graph's coarse form (`canonicalize`, `classes`), a coarse
    form's class (`_signed_class`) and an automorphism, the sign by
    which a acts on the oriented graph (`_signed_class`,
    `enumerate_graphs`)."""
    sign = _normal_form(d, [(a[t], a[h]) for t, h in edges])[1]
    return sign * perm_sign(a) if d % 2 else sign


def enumerate_graphs(n_vertices, n_edges, d, min_valence=0, connected=True):
    """Duplicate-free canonical basis of a (v, e) slice; deterministic order.

    For d even only simple graphs occur (parallel edges are zero); for
    d odd parallel edges are kept, each directed low -> high.

    The slice is the classes of slack 0 with e edges, built one edge at
    a time over isomorphism classes (McKay, "Isomorph-free exhaustive
    generation", 1998) by `_layer`: every vertex needs min_valence edge
    ends (at least one when n_vertices > 1), and the graph must be
    connected when asked.  A class of one layer adds one edge of each
    orbit of its automorphisms, and a child is searched only when its
    new edge has the largest valence pair of its edges; every class
    still arises, since deleting such an edge from it gives a class of
    the layer below (the argument is in `_layer`).  Each layer (k
    edges, slack m) is memoised, so the slices of one column share the
    layers with k + m below e and build only the new ones.

    A form is its own canonical representative at every d, with sign
    +1 unless the class is zero at d, and no second search is made: a
    class is zero exactly when one of the automorphisms `_layer`
    recorded for it, which generate its whole group, reverses its
    orientation at d (`_relabel_sign`), as in `_signed_class`.  Those
    classes are dropped.
    """
    _check_ints(n_vertices=n_vertices, n_edges=n_edges, d=d,
                min_valence=min_valence)
    if n_vertices > 8 or n_edges > 14:
        raise ValueError("out of desk-scale bounds (v <= 8, e <= 14)")
    if n_vertices < 0 or n_edges < 0:
        raise ValueError("negative vertex or edge count")
    n = n_vertices
    need = max(min_valence, 1 if n > 1 else 0)
    level = _layer(n, n_edges, 0, d % 2 == 0, need, connected)
    return [_graph(d, n, form) for form in sorted(level)
            if all(_relabel_sign(d, form, a) == 1 for a in level[form])]
