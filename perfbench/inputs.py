"""Seeded input generation for the benchmark workloads.

Everything here is a pure function of the seed and returns plain data
(ints, tuples, strings); no library code runs while inputs are made.
The worker turns this data into library objects during set-up.
"""

from __future__ import annotations

import random
from itertools import combinations

# Table workloads: each entry is one CLI call (or one direct slice
# call) run in a fresh interpreter.  The seed only fixes their order,
# so every seed does the same work.  The grids are trimmed so that one
# pass over a workload takes a few seconds.
CSV = ["--format", "csv"]
TABLES = {
    "gc-table": [
        ("gc-d1", ["cohomology", "--complex", "gc", "--d", "1",
                   "--max-vertices", "5", "--max-edges", "7"] + CSV),
        ("gc-d2", ["cohomology", "--complex", "gc", "--d", "2",
                   "--max-vertices", "5", "--max-edges", "8"] + CSV),
        ("fcgc-d1", ["cohomology", "--complex", "fcgc", "--d", "1",
                     "--max-vertices", "4", "--max-edges", "6"] + CSV),
        ("fcgc-d2", ["cohomology", "--complex", "fcgc", "--d", "2",
                     "--max-vertices", "4", "--max-edges", "6"] + CSV),
    ],
    "def-table": [
        ("def-olie-d2-a2", ["cohomology", "--complex", "def-olie", "--d", "2",
                            "--arity", "2", "--internal", "3"] + CSV),
        ("def-olie-d1-a2", ["cohomology", "--complex", "def-olie", "--d", "1",
                            "--arity", "2", "--internal", "3"] + CSV),
        ("def-olie-d2-a4", ["cohomology", "--complex", "def-olie", "--d", "2",
                            "--arity", "4", "--internal", "2"] + CSV),
        ("def-lie-d1", ["cohomology", "--complex", "def-lie", "--d", "1",
                        "--arity", "4"] + CSV),
        ("def-lie-d2", ["cohomology", "--complex", "def-lie", "--d", "2",
                        "--arity", "4"] + CSV),
        # the grid-edge slice: its successor lies outside the grid, so
        # the expected outcome is the ValueError other edge slices raise
        ("def-olie-edge", None),
    ],
}

EDGE_SLICE = ("def-olie", 2, (3, 4))

# each op-stream worker warms up on one stream, then serves up to
# STREAMS_PER_WORKER timed streams; every timed stream is one sample of
# the run
STREAM_LENGTH = 2000
STREAMS_PER_WORKER = 8
# share of timed requests whose result is checked against an identity
CHECK_SHARE = 0.25
# checked requests are those whose identity check stays cheap
MAX_CHECKED_COMPONENT = 4
MAX_CHECKED_DEGREE = 5
ALGEBRAS = ("heisenberg", "two_dim", "sl2")
KINDS = ("gra.compose", "poly.o_compose", "gutt.star", "lie.normalize")


def table_jobs(workload, seed):
    """The workload's table calls in a seeded order."""
    jobs = list(TABLES[workload])
    random.Random(f"{workload}:{seed}").shuffle(jobs)
    return jobs


def _coeff(rng):
    return rng.choice((-3, -2, -1, 1, 2, 3))


def _gra_spec(rng, d, arity, n_terms):
    pairs = list(combinations(range(1, arity + 1), 2))
    terms = []
    for _ in range(n_terms):
        k = rng.randint(1, min(3, len(pairs)))
        if d % 2 == 0:
            edges = rng.sample(pairs, k)
        else:
            edges = [p if rng.random() < 0.5 else (p[1], p[0])
                     for p in (rng.choice(pairs) for _ in range(k))]
        terms.append((_coeff(rng), tuple(edges)))
    return (arity, tuple(terms))


def _is_lyndon(w):
    return all(w < w[k:] for k in range(1, len(w)))


def _lyndon_word(rng, arity, length):
    """A random Lyndon word of the given length over whites 1..arity."""
    while True:
        letters = [rng.randint(1, arity) for _ in range(length)]
        rng.shuffle(letters)
        word = tuple(letters)
        # rotate to the least rotation; a Lyndon word is a strictly
        # least rotation of an aperiodic word
        word = min(word[k:] + word[:k] for k in range(length))
        if _is_lyndon(word):
            return word


def _poly_spec(rng, arity, n_terms):
    terms = []
    for _ in range(n_terms):
        words = (_lyndon_word(rng, arity, rng.randint(2, 3)),)
        terms.append((_coeff(rng), words))
    return (arity, tuple(terms))


def _monomial(rng, dim, degree):
    return tuple(sorted(rng.randint(1, dim) for _ in range(degree)))


def _tree(rng, labels):
    if len(labels) == 1:
        return labels[0]
    cut = rng.randint(1, len(labels) - 1)
    return (_tree(rng, labels[:cut]), _tree(rng, labels[cut:]))


def _request(rng, kind, slot):
    """(kind, checked, request data..., check data).

    slot counts the earlier requests of the same kind.  The sizes
    (parity, arities, degrees, term counts) cycle with it, so every
    stream has the same mix of sizes and only the structure within a
    size is random; this keeps the work of a stream nearly the same
    from seed to seed."""
    checked = rng.random() < CHECK_SHARE
    if kind in ("gra.compose", "poly.o_compose"):
        d = 1 + slot % 2
        m, k = 2 + slot // 2 % 3, 2 + slot // 6 % 3
        n_terms = 1 + slot // 18 % 2
        i = rng.randint(1, m)
        j = rng.randint(i, i + k - 1)
        if kind == "gra.compose":
            a, b = _gra_spec(rng, d, m, n_terms), _gra_spec(rng, d, k, n_terms)
            c = _gra_spec(rng, d, 2, 1)
        else:
            # one component per term: composition cost grows fast
            # with the number of components
            a, b = _poly_spec(rng, m, n_terms), _poly_spec(rng, k, n_terms)
            c = (2, ((_coeff(rng), ((1, 2),)),))
            # the check composes the result again; its components grow
            # with each occurrence of slot i, and so does its cost
            longest_b = max(len(w) for _, ws in b[1] for w in ws)
            grown = max(len(w) + w.count(i) * (longest_b - 1)
                        for _, ws in a[1] for w in ws)
            checked = checked and grown <= MAX_CHECKED_COMPONENT
        # (a o_i b) o_j c against a o_i (b o_{j-i+1} c)
        return (kind, checked, d, a, i, b, (j, c))
    if kind == "gutt.star":
        alg = ALGEBRAS[slot % 3]
        dim = 2 if alg == "two_dim" else 3
        p = _monomial(rng, dim, slot // 3 % 4)
        q = _monomial(rng, dim, slot // 12 % 4)
        r = _monomial(rng, dim, rng.randint(0, 2))
        # (p * q) * r against p * (q * r); the cost of the check grows
        # factorially with the total degree
        checked = checked and len(p) + len(q) + len(r) <= MAX_CHECKED_DEGREE
        return (kind, checked, alg, p, q, r)
    n = 4 + slot % 4
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    tree = _tree(rng, labels)
    return (kind, checked, tree)


def stream(seed, index, warm=False):
    """Timed request stream number index of a run, or the warm-up
    stream of worker number index."""
    tag = "warm" if warm else "timed"
    rng = random.Random(f"op-stream:{seed}:{index}:{tag}")
    kinds = [KINDS[n % len(KINDS)] for n in range(STREAM_LENGTH)]
    rng.shuffle(kinds)
    seen = dict.fromkeys(KINDS, 0)
    out = []
    for kind in kinds:
        out.append(_request(rng, kind, seen[kind]))
        seen[kind] += 1
    return out
