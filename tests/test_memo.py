"""The library's memoised functions share one bounded cache policy."""

import importlib
import pkgutil
from fractions import Fraction

import pytest

import liegraphs
from liegraphs import MEMO_MAXSIZE, defcx, graphs, gutt, lie, poly
from liegraphs.graphs import OrientedGraph

MEMOISED = (graphs._layer, lie._word_action, poly.lyndon_tree,
            poly._basis_system, poly.component_normal_form,
            poly._substituted, poly._term_action,
            gutt._straighten, gutt._sigma_basis, gutt._sigma_inv_basis,
            gutt._star_basis)


def test_memoised_lists_every_memo():
    """Every LRU wrapper defined in a liegraphs module is in MEMOISED,
    and nothing else is, so a memo added or dropped without updating the
    list fails here."""
    found = set()
    for info in pkgutil.iter_modules(liegraphs.__path__):
        module = importlib.import_module(f"liegraphs.{info.name}")
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_info", None)) \
                    and obj.__module__ == module.__name__:
                found.add(obj)
    assert found == set(MEMOISED)


def test_every_memo_is_bounded():
    for f in MEMOISED:
        info = f.cache_info()
        assert info.maxsize == MEMO_MAXSIZE, f.__name__
        assert info.currsize <= info.maxsize


def test_memo_counts_hits():
    """lyndon_tree((1, 2, 3)) is (1, (2, 3)): one miss for each of the
    words (1, 2, 3), (1,), (2, 3), (2,) and (3,); the second call is one
    hit."""
    poly.lyndon_tree.cache_clear()
    first = poly.lyndon_tree((1, 2, 3))
    assert first == (1, (2, 3))
    assert poly.lyndon_tree((1, 2, 3)) is first
    info = poly.lyndon_tree.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 5, 5)


def test_memo_results_are_read_only():
    """A memo hands the same result to every caller, so a caller that
    writes to it must fail rather than corrupt the later calls.  The
    oracles are hand-derived: [2, 1] = -[1, 2], and y x = x y - h z on
    the Heisenberg algebra with [x, y] = z."""
    h = gutt.heisenberg()
    xy, z = ((1, 2), 0), ((3,), 1)
    cases = [
        (poly.component_normal_form, ((2, 1), 0), {(1, 2): Fraction(-1)}),
        # through the label-rank pattern
        (poly.component_normal_form, ((5, 3), 0), {(3, 5): Fraction(-1)}),
        # the shape [1, 2] refilled with the leaves 2, 1
        (poly._substituted, ((1, 2), (2, 1), "lie", 0),
         {(1, 2): Fraction(-1)}),
        (poly._substituted, ((1, 2), (2, 1), "ass", 0), {(2, 1): 1}),
        (gutt._straighten, (h, (2, 1)), {xy: 1, z: Fraction(-1)}),
        (gutt._sigma_basis, (h, (1, 2)), {xy: 1, z: Fraction(-1, 2)}),
        (gutt._sigma_inv_basis, (h, (1, 2)), {xy: 1, z: Fraction(1, 2)}),
        (gutt._star_basis, (h, (2,), (1,)), {xy: 1, z: Fraction(-1, 2)}),
    ]
    for f, args, want in cases:
        got = f(*args)
        assert got == want, f.__name__
        with pytest.raises(TypeError):
            got[(9, 9)] = 5
        assert f(*args) == want, f.__name__
    # a graph with a nonzero differential, compared with a copy taken
    # before the write: gc_differential is not memoised and returns a
    # fresh dict, so a write to one does not reach the next call
    g = OrientedGraph(1, 3, ((1, 3), (2, 3), (2, 3), (2, 3)))
    got = defcx.gc_differential(g, 1)
    want = dict(got)
    assert want
    got[g] = 5
    assert defcx.gc_differential(g, 1) == want
    # the one edge on two vertices, both of valence >= 1
    layer = graphs._layer(2, 1, 0, False, 1, True)
    assert layer.keys() == {((1, 2),)}
    with pytest.raises(TypeError):
        layer[()] = ()
    with pytest.raises(TypeError):
        del layer[((1, 2),)]
    words, _ = poly._basis_system((1, 1, 2), 1)
    assert words == ((1, 1, 2),)
