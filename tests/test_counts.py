"""Signed Pólya counts of graph classes, the oracle of the enumeration's
slice sizes.

A class of graphs on v vertices survives at d when no automorphism
reverses its orientation, so the number of surviving classes with e
edges is the average over S_v of the orientation character on the
graphs that a permutation fixes.  Grouped by cycle type, that is the
cycle-index sum below, made from the cycles a permutation makes on
vertex pairs; no graph is enumerated.
"""

from fractions import Fraction
from math import factorial, gcd

import pytest

from liegraphs.graphs import enumerate_graphs

MAX_E = 10  # counts are series in t, truncated after t^MAX_E


def _partitions(v, most=None):
    """The partitions of v, as non-increasing tuples."""
    if v == 0:
        yield ()
        return
    for a in range(min(v, most or v), 0, -1):
        for rest in _partitions(v - a, a):
            yield (a, *rest)


def _pair_cycles(cycle_type):
    """(length, reversed) for each cycle that a permutation of the
    cycle type makes on vertex pairs; reversed when the cycle returns
    its pair with the ends swapped."""
    out = []
    for i, a in enumerate(cycle_type):
        if a % 2:
            out += [(a, False)] * ((a - 1) // 2)
        else:
            out += [(a, False)] * (a // 2 - 1) + [(a // 2, True)]
        for b in cycle_type[i + 1:]:
            out += [(a * b // gcd(a, b), False)] * gcd(a, b)
    return out


def _times(p, q):
    """The product of two truncated series."""
    out = [0] * (MAX_E + 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q[:MAX_E + 1 - i]):
            out[i + j] += x * y
    return out


def _factor(length, reverse, d):
    """A pair-cycle's factor: the edge sets it can add, each with the
    sign by which the permutation acts on them.  At even d a pair-cycle
    is taken once or not at all (parallel edges are zero), and its edges
    are permuted cyclically; at odd d it is taken any number of times,
    and each time flips the orientation when it returns reversed."""
    out = [0] * (MAX_E + 1)
    if d % 2 == 0:
        out[0] = 1
        if length <= MAX_E:
            out[length] = (-1) ** (length - 1)
    else:
        for m in range(MAX_E // length + 1):
            out[m * length] = (-1) ** m if reverse else 1
    return out


def all_graphs(v, d):
    """Classes with e = 0..MAX_E edges on v vertices, isolated ones
    allowed, that are not zero at d.  At odd d a permutation also acts
    by its sign on the vertex ordering."""
    total = [Fraction(0)] * (MAX_E + 1)
    for cycle_type in _partitions(v):
        z = 1
        for k in set(cycle_type):
            m = cycle_type.count(k)
            z *= k ** m * factorial(m)
        weight = (-1) ** (v - len(cycle_type)) if d % 2 else 1
        series = [1] + [0] * MAX_E
        for length, reverse in _pair_cycles(cycle_type):
            series = _times(series, _factor(length, reverse, d))
        total = [t + Fraction(weight * c, z) for t, c in zip(total, series)]
    assert all(t.denominator == 1 for t in total)
    return [int(t) for t in total]


def no_isolated(v, d):
    """Classes with e = 0..MAX_E edges on v vertices, none of them
    isolated, that are not zero at d.  A class of all_graphs is one of
    these on u vertices plus v - u isolated ones.  At even d any u <= v
    gives one; at odd d two isolated vertices are an odd automorphism,
    so only u = v and u = v - 1 do."""
    counts = [[1] + [0] * MAX_E]
    for u in range(1, v + 1):
        below = counts[-1:] if d % 2 else counts
        counts.append([a - sum(b[e] for b in below)
                       for e, a in enumerate(all_graphs(u, d))])
    return counts[v]


@pytest.mark.parametrize("d", [1, 2])
def test_enumeration_matches_the_signed_counts(d):
    """enumerate_graphs without a valence bound or connectivity lists
    exactly as many classes as the counts give, for 2 <= v <= 6 and
    e <= 10."""
    for v in range(2, 7):
        got = [len(enumerate_graphs(v, e, d, 0, connected=False))
               for e in range(MAX_E + 1)]
        assert got == no_isolated(v, d), (v, d)


def test_counts_pin_two_rows():
    assert no_isolated(6, 2) == [0, 0, 0, 0, 0, 2, 6, 8, 9, 10, 6]
    assert no_isolated(6, 1) == [0, 0, 0, 1, 0, 6, 14, 85, 228, 752, 1859]
