"""Command-line surface: verification suites, cohomology tables, and
composition of user-supplied elements.

All emitted data files carry a "format_version" field; outputs contain
no timestamps so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
import time
from fractions import Fraction
from itertools import combinations, product

from . import defcx, gra, gutt, poly
from .graphs import OrientedGraph, canonicalize, perm_sign
from .lie import BracketParseError

FORMAT_VERSION = "1.0"


def _check_version(rec, what):
    ver = rec.get("format_version")
    if ver is None:
        raise ValueError(f"{what}: missing format_version")
    major = str(ver).split(".")[0]
    if major != FORMAT_VERSION.split(".")[0]:
        raise ValueError(f"{what}: unsupported format_version {ver}")


def _json_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_files(files):
    """Write each (path, text); False, after `error: ...` on stderr,
    when one cannot be written."""
    try:
        for path, text in files:
            with open(path, "w") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    return True


# -- verification checks ----------------------------------------------

def _check_three_term_compose():
    for d in (1, 2):
        corolla = poly.make_term(2, d, [(1, 2)])
        got = poly.o_compose(corolla, 2, corolla)
        if len(got.terms) != 3:
            return False, f"d={d}: {len(got.terms)} terms"
    return True, "corolla o_2 corolla has 3 terms for d=1,2"


def _check_square_component_compose():
    d = 2
    a = poly.make_term(3, d, [(1, 2), (3, 3)])
    got = poly.o_compose(a, 1, poly.make_term(2, d, [(1, 2)]))
    want = poly.OElement(4, d, {}, "lie")
    for w, c in poly.component_normal_form(((1, 2), 3), 1).items():
        want = want + poly.make_term(4, d, [(4, 4), w], c)
    want = want + poly.make_term(4, d, [(1, 2), (1, 3), (4, 4)]) \
                + poly.make_term(4, d, [(1, 2), (2, 3), (4, 4)])
    return got == want, "doubly-attached component composition, 3 terms"


def _check_gra_four_term():
    for d in (1, 2):
        path = gra.element(OrientedGraph(d, 3, ((1, 2), (1, 3))))
        edge = gra.element(OrientedGraph(d, 2, ((1, 2),)))
        got = gra.compose(path, 1, edge)
        if len(got.terms) != 4:
            return False, f"d={d}: {len(got.terms)} terms"
    return True, "path o_1 edge has 4 terms for d=1,2"


def _check_jacobi_image():
    for d in (1, 2):
        corolla = poly.make_term(2, d, [(1, 2)])
        nested = poly.o_compose(corolla, 1, corolla)
        total = poly.OElement(3, d, {}, "lie")
        for sigma in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            total = total + poly.s_action(nested, sigma)
        if not total.is_zero():
            return False, f"d={d}: nonzero Jacobi image"
    return True, "cyclic corolla sum vanishes for d=1,2"


def _check_ass_residue():
    res = poly.ass_remark_check()
    want = poly.make_term(3, 1, [(1, 2), (1, 3)], kind="ass") \
        - poly.make_term(3, 1, [(1, 3), (2, 3)], kind="ass")
    return res == want, "associator residue equals the 2-term difference"


def _random_gra(rng, d, arity):
    out = gra.GraElement(arity, d, {})
    pairs = list(combinations(range(1, arity + 1), 2))
    for _ in range(2):
        k = rng.randint(1, min(3, len(pairs)))
        edges = tuple(rng.choice(pairs) for _ in range(k))
        out = out + gra.element(OrientedGraph(d, arity, edges),
                                Fraction(rng.randint(-2, 2)))
    return out


def _check_operad_axioms():
    rng = random.Random(2)
    done = 0
    while done < 60:
        d = rng.choice([1, 2])
        m = rng.randint(2, 3)
        a = _random_gra(rng, d, m)
        b = _random_gra(rng, d, 2)
        c = _random_gra(rng, d, 2)
        i = rng.randint(1, m)
        j = rng.randint(i, i + 1)
        lhs = gra.compose(gra.compose(a, i, b), j, c)
        rhs = gra.compose(a, i, gra.compose(b, j - i + 1, c))
        if lhs != rhs:
            return False, f"sequential axiom failed at instance {done}"
        u = gra.unit(d)
        if gra.compose(a, i, u) != a or gra.compose(u, 1, a) != a:
            return False, f"unit axiom failed at instance {done}"
        done += 1
    return True, "60 randomized Gra axiom instances"


def _scramble(g, rng):
    perm = list(range(1, g.n_vertices + 1))
    rng.shuffle(perm)
    sigma = {i + 1: perm[i] for i in range(g.n_vertices)}
    sign = 1
    edges = [(sigma[t], sigma[h]) for t, h in g.edges]
    if g.d % 2 == 1:
        sign *= perm_sign(perm)
        for i in rng.sample(range(len(edges)),
                            rng.randint(0, len(edges))):
            edges[i] = (edges[i][1], edges[i][0])
            sign *= -1
        rng.shuffle(edges)
    else:
        for _ in range(rng.randint(0, 3)):
            if len(edges) >= 2:
                i, j = rng.sample(range(len(edges)), 2)
                edges[i], edges[j] = edges[j], edges[i]
                sign *= -1
    return OrientedGraph(g.d, g.n_vertices, tuple(edges)), sign


def _check_canonicalization():
    rng = random.Random(11)
    done = 0
    while done < 150:
        d = rng.choice([1, 2])
        n = rng.randint(2, 5)
        pairs = list(combinations(range(1, n + 1), 2))
        k = rng.randint(1, min(len(pairs), 6))
        if d % 2 == 0:
            edges = tuple(rng.sample(pairs, k))
        else:
            edges = tuple(rng.choice(pairs) for _ in range(k))
        g = OrientedGraph(d, n, edges)
        h, rel = _scramble(g, rng)
        a, b = canonicalize(g), canonicalize(h)
        if a.canonical != b.canonical:
            return False, "canonical forms diverged under relabeling"
        if a.is_zero() != b.is_zero():
            return False, "zero detection diverged under relabeling"
        if not a.is_zero() and b.sign != rel * a.sign:
            return False, "sign composition failed under relabeling"
        done += 1
    return True, "150 random relabelings congruent"


def _check_gc_d_squared():
    from .graphs import enumerate_graphs
    for d in (1, 2):
        for mv in (1, 3):
            for v in range(1, 5):
                for e in range(1, 7):
                    for g in enumerate_graphs(v, e, d, min_valence=mv):
                        img = defcx.gc_differential(g, mv)
                        if defcx.gc_differential_combo(img, mv):
                            return False, f"d={d} mv={mv} {g.edges}"
    return True, "delta^2 = 0 on all generators, v<=4, e<=6, d=1,2"


def _check_w3():
    ok = defcx.gc_differential(defcx.tetrahedron(), 3) == {}
    k, im, coh = defcx.cohomology_rank("gc", 2, (4, 6))
    return ok and (k, im, coh) == (1, 0, 1), \
        f"tetrahedron closed={ok}, (4,6) slice (ker,im,coh)=({k},{im},{coh})"


def _check_w5():
    w5 = defcx.five_wheel_cocycle()
    ok = defcx.gc_differential_combo(w5, 3) == {}
    k, im, coh = defcx.cohomology_rank("gc", 2, (6, 10))
    return ok and (k, im, coh) == (1, 0, 1), \
        (f"five-wheel with 5/2 correction closed={ok},"
         f" (6,10) slice (ker,im,coh)=({k},{im},{coh})")


def _check_theta():
    th = defcx.theta_graph()
    closed = defcx.gc_differential(th, 3) == {}
    deg = defcx.def_degree(gra.element(th))
    k, im, coh = defcx.cohomology_rank("gc", 1, (2, 3))
    pre = defcx.theta_def_element()
    pre_closed = defcx.def_differential(pre).is_zero()
    ok = closed and deg == 1 and (k, im, coh) == (1, 0, 1) and pre_closed
    return ok, (f"closed={closed} degree={deg} slice=({k},{im},{coh}) "
                f"preimage closed={pre_closed}")


def _check_def_lie_cohomology():
    for d in (1, 2):
        total = sum(defcx.cohomology_rank("def-lie", d, n)[2]
                    for n in (2, 3, 4))
        if total != 1:
            return False, f"d={d}: total {total}"
    return True, "total cohomology 1 through arity 4 for d=1,2"


def _check_chain_map():
    for d in (1, 2):
        for n, k in ((2, 1), (2, 2)):
            sl = defcx.build_slice("def-olie", d, (n, k))
            for x in sl.basis:
                if defcx.map_F(defcx.def_differential(x)) \
                        != defcx.def_differential(defcx.map_F(x)):
                    return False, f"d={d} slice {(n, k)}"
    return True, "F intertwines the differentials on tested slices"


def _check_heisenberg_eq3():
    h = gutt.heisenberg()
    got = gutt.star(h, gutt.monomial([1]), gutt.monomial([2]))
    want = {((1, 2), 0): Fraction(1), ((3,), 1): Fraction(1, 2)}
    return got == want, "x*y = x.y + (h/2) z on the Heisenberg algebra"


def _check_commutator():
    for alg in (gutt.heisenberg(), gutt.two_dim()):
        for i in range(1, alg.dim + 1):
            for j in range(1, alg.dim + 1):
                lhs = gutt.poly_add(
                    gutt.star(alg, gutt.monomial([i]), gutt.monomial([j])),
                    gutt.poly_scale(gutt.star(alg, gutt.monomial([j]),
                                              gutt.monomial([i])), -1))
                want = {((k,), 1): c for k, c in alg.bracket(i, j).items()}
                if lhs != want:
                    return False, f"pair {(i, j)}"
    return True, "x*y - y*x = h[x,y] on all basis pairs"


def _check_star_associativity():
    h = gutt.heisenberg()
    monos = [(), (1,), (2,), (3,), (1, 2)]
    for a, b, c in product(monos, repeat=3):
        pa, pb, pc = (gutt.monomial(m) for m in (a, b, c))
        if gutt.star(h, gutt.star(h, pa, pb), pc) \
                != gutt.star(h, pa, gutt.star(h, pb, pc)):
            return False, f"triple {(a, b, c)}"
    return True, "star associative on sampled low-degree monomials"


def _check_skew_series():
    sk = gutt.skew_symmetrize_series(gutt.gutt_mod_I_series(6))
    coeffs = [gutt.series_coefficient(sk, k) for k in range(7)]
    want = [0, Fraction(1), 0, Fraction(1, 6), 0, Fraction(1, 120), 0]
    return coeffs == want, f"skew coefficients {coeffs[:6]}"


SUITES = {
    "operads": [
        ("three-term-compose", _check_three_term_compose),
        ("square-component-compose", _check_square_component_compose),
        ("gra-four-term-compose", _check_gra_four_term),
        ("jacobi-image-zero", _check_jacobi_image),
        ("ass-associator-residue", _check_ass_residue),
        ("gra-operad-axioms-random", _check_operad_axioms),
        ("canonicalization-relabelings", _check_canonicalization),
    ],
    "complexes": [
        ("gc-delta-squared-small", _check_gc_d_squared),
        ("tetrahedron-witness", _check_w3),
        ("five-wheel-witness", _check_w5),
        ("theta-witness", _check_theta),
        ("def-lie-cohomology", _check_def_lie_cohomology),
        ("chain-map-to-graphs", _check_chain_map),
    ],
    "gutt": [
        ("heisenberg-linear-star", _check_heisenberg_eq3),
        ("commutator-is-bracket", _check_commutator),
        ("star-associativity-sample", _check_star_associativity),
        ("skew-series-coefficients", _check_skew_series),
    ],
}


def cmd_verify(args):
    if args.suite == "all":
        checks = [c for suite in SUITES.values() for c in suite]
    else:
        checks = SUITES[args.suite]
    checks = sorted(checks)
    results = []
    all_ok = True
    for cid, fn in checks:
        t0 = time.monotonic()
        try:
            ok, witness = fn()
        except Exception as exc:  # a crashing check is a failing check
            ok, witness = False, f"exception: {exc}"
        dt = time.monotonic() - t0
        all_ok &= ok
        status = "pass" if ok else "FAIL"
        print(f"{status:4s} {cid:32s} ({dt:6.2f}s)  {witness}")
        results.append({"id": cid, "status": "pass" if ok else "fail",
                        "witness": witness})
    report = {"format_version": FORMAT_VERSION, "suite": args.suite,
              "checks": results, "all_pass": all_ok}
    if args.out and not _write_files([(args.out, _json_text(report))]):
        return 1
    print(f"{'all checks passed' if all_ok else 'FAILURES PRESENT'}"
          f" ({len(results)} checks)")
    return 0 if all_ok else 1


# -- cohomology tables ------------------------------------------------

def _serialize_witness(w):
    """A witness of `defcx.Chain.witness` as JSON."""
    if isinstance(w, dict):
        return [{"coeff": str(c), "graph": g.to_json()}
                for g, c in sorted(w.items(), key=lambda kv: kv[0].edges)]
    if isinstance(w, poly.OElement):
        return w.to_json()
    return {"arity": w.arity, "d": w.d,
            "terms": [{"coeff": str(c), "word": list(word)}
                      for word, c in sorted(w.terms.items())]}


# the options that bound a table, one per component of the slice key
_TABLE_LIMITS = {"fcgc": ("max_vertices", "max_edges"),
                 "gc": ("max_vertices", "max_edges"),
                 "def-olie": ("arity", "internal"), "def-lie": ("arity",)}


def _cohomology_rows(args):
    """The chain of the table and its rows (bidegree, slice, kernel
    dim, image dim, cohomology dim), one per non-empty slice."""
    chain = defcx.Chain(args.complex, args.d)
    limits = [getattr(args, name) for name in _TABLE_LIMITS[args.complex]]
    rows = []
    for key in product(*(range(lo, hi + 1)
                         for lo, hi in zip(chain.lower, limits))):
        sl = chain.slice(key)
        if sl.basis:
            rows.append((":".join(map(str, key)), sl,
                         *chain.cohomology(key)))
    return chain, rows


def cmd_cohomology(args):
    try:
        chain, rows = _cohomology_rows(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    header = ["complex", "d", "bidegree", "basis dim", "kernel dim",
              "image dim", "cohomology dim"]
    table = [[args.complex, args.d, bid, len(sl.basis), k, im, coh]
             for bid, sl, k, im, coh in rows]

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(table)
    csv_text = buf.getvalue()

    # the JSON rows, with their witnesses, only for the outputs that
    # print them
    if args.out or args.format == "json":
        json_rows = []
        for bid, sl, k, im, coh in rows:
            rec = {"complex": args.complex, "d": args.d, "bidegree": bid,
                   "basis_dim": len(sl.basis), "kernel_dim": k,
                   "image_dim": im, "cohomology_dim": coh}
            if coh > 0:
                rec["witness"] = _serialize_witness(chain.witness(sl.key))
            json_rows.append(rec)
        json_obj = {"format_version": FORMAT_VERSION, "rows": json_rows}

    if args.out and not _write_files(
            [(args.out + ".csv", csv_text),
             (args.out + ".json", _json_text(json_obj))]):
        return 1
    if args.format == "csv":
        print(csv_text, end="")
    elif args.format == "json":
        print(_json_text(json_obj), end="")
    else:
        widths = [max(len(str(r[i])) for r in [header] + table)
                  for i in range(len(header))]
        for r in [header] + table:
            print("  ".join(str(x).ljust(w) for x, w in zip(r, widths)))
    return 0


# -- composition ------------------------------------------------------

def _read_operands(path, op):
    """The operands a, b of a compose input file."""
    with open(path) as fh:
        rec = json.load(fh)
    if not isinstance(rec, dict):
        raise ValueError(f"{path}: top level must be a JSON object")
    _check_version(rec, path)
    cls = gra.GraElement if op == "gra" else poly.OElement
    return cls.from_json(rec["a"]), cls.from_json(rec["b"])


def cmd_compose(args):
    try:
        a, b = _read_operands(args.file, args.op)
    except BracketParseError as exc:
        print(f"error: parse failure at line {exc.line}, column"
              f" {exc.column}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (LookupError, TypeError, AttributeError) as exc:
        print(f"error: {args.file}: malformed operands: {exc!r}",
              file=sys.stderr)
        return 1
    try:
        out = a.compose(args.i, b)
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = {"format_version": FORMAT_VERSION, "op": args.op, "i": args.i,
              "result": out.to_json()}
    text = _json_text(result)
    if not args.out:
        print(text, end="")
    elif not _write_files([(args.out, text)]):
        return 1
    return 0


# -- entry point ------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="liegraphs",
        description="exact-arithmetic workbench for graph operads and"
                    " graph complexes")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=[*SUITES, "all"])
    p_verify.add_argument("--out", help="write the JSON report here")
    p_verify.set_defaults(fn=cmd_verify)

    p_coh = sub.add_parser("cohomology", help="slice cohomology table")
    p_coh.add_argument("--complex", required=True, choices=[*_TABLE_LIMITS])
    p_coh.add_argument("--d", type=int, required=True)
    p_coh.add_argument("--max-vertices", type=int, default=4)
    p_coh.add_argument("--max-edges", type=int, default=6)
    p_coh.add_argument("--arity", type=int, default=3)
    p_coh.add_argument("--internal", type=int, default=3)
    p_coh.add_argument("--out", help="basename for .csv/.json outputs")
    p_coh.add_argument("--format", choices=["csv", "json", "text"],
                       default="text")
    p_coh.set_defaults(fn=cmd_cohomology)

    p_comp = sub.add_parser("compose", help="compose two elements")
    p_comp.add_argument("file", help="JSON file with operands a, b")
    p_comp.add_argument("--op", required=True, choices=["gra", "olie"])
    p_comp.add_argument("--i", type=int, required=True,
                        help="composition slot")
    p_comp.add_argument("--out", help="write the result here")
    p_comp.set_defaults(fn=cmd_compose)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
