"""One benchmark worker process: set up, run one timed job, check it.

Usage: python3 perfbench/worker.py '<job as JSON>'

The job carries the monotonic time at which the parent started this
process (the monotonic clock is system-wide on Linux), so set-up time
covers interpreter start, import, input generation and (for the
stream) warm-up.  Every timing comes with the machine's speed sampled
while it ran (perfbench/speed.py).  The last line on standard output
is a JSON object with the timings and outputs.
"""

from __future__ import annotations

import sys
import time

from speed import Speedometer

# set-up is timed from here, before the library is imported
SETUP = Speedometer().start()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from liegraphs import cli, defcx, gra, gutt, lie, poly  # noqa: E402
from liegraphs.graphs import OrientedGraph  # noqa: E402

import inputs  # noqa: E402
from tracer import Tracer  # noqa: E402


def sl2():
    """sl2 on e=1, f=2, h=3: [e,f] = h, [h,e] = 2e, [h,f] = -2f."""
    return gutt.FPLieAlgebra(3, {(1, 2): {3: 1}, (1, 3): {1: -2},
                                 (2, 3): {2: 2}})


def _gra(d, spec):
    arity, terms = spec
    out = gra.GraElement(arity, d, {})
    for coeff, edges in terms:
        out = out + gra.element(OrientedGraph(d, arity, edges),
                                Fraction(coeff))
    return out


def _poly(d, spec):
    arity, terms = spec
    out = poly.OElement(arity, d, {}, "lie")
    for coeff, words in terms:
        out = out + poly.make_term(arity, d, list(words), Fraction(coeff))
    return out


def build(req, algebras):
    """Library objects for one request: (kind, args, check data), with
    check data None when the request's result is not checked."""
    kind, checked = req[:2]
    if kind in ("gra.compose", "poly.o_compose"):
        d, a, i, b, (j, c) = req[2:]
        make = _gra if kind == "gra.compose" else _poly
        extra = (j, make(d, c)) if checked else None
        return kind, (make(d, a), i, make(d, b)), extra
    if kind == "gutt.star":
        alg, p, q, r = req[2:]
        extra = gutt.monomial(r) if checked else None
        return kind, (algebras[alg], gutt.monomial(p), gutt.monomial(q)), \
            extra
    return kind, (req[2],), () if checked else None


def call(kind, args):
    # resolve through the module attribute at call time, so a traced
    # run goes through the tracer's wrappers
    if kind == "gra.compose":
        return gra.compose(*args)
    if kind == "poly.o_compose":
        return poly.o_compose(*args)
    if kind == "gutt.star":
        return gutt.star(*args)
    return lie.normalize(*args)


def check(kind, args, extra, result):
    """An identity that holds for any input; True when it holds."""
    if kind in ("gra.compose", "poly.o_compose"):
        a, i, b = args
        j, c = extra
        return call(kind, (result, j, c)) == \
            call(kind, (a, i, call(kind, (b, j - i + 1, c))))
    if kind == "gutt.star":
        alg, p, q = args
        return call(kind, (alg, result, extra)) == \
            call(kind, (alg, p, call(kind, (alg, q, extra))))
    tree = args[0]
    swapped = call(kind, ((tree[1], tree[0]),))
    if swapped != result.scaled(Fraction(-1)):
        return False
    # the expansion into the free associative algebra is faithful, but
    # its cost grows factorially with the arity
    return result.arity > 5 or \
        result.assoc_expansion() == lie.assoc_expand(tree)


def run_stream(job, tracer):
    """Warm up, then serve up to STREAMS_PER_WORKER timed streams in
    turn.  Each stream is checked right after it is timed, and the next
    one starts only if it should still end before the job's deadline
    (the first one always runs)."""
    algebras = {"heisenberg": gutt.heisenberg(), "two_dim": gutt.two_dim(),
                "sl2": sl2()}
    seed, first = job["seed"], job["worker"] * inputs.STREAMS_PER_WORKER
    warm = [build(r, algebras)
            for r in inputs.stream(seed, job["worker"], warm=True)]
    streams = [[build(r, algebras) for r in inputs.stream(seed, first + k)]
               for k in range(inputs.STREAMS_PER_WORKER)]
    for kind, args, _ in warm:
        call(kind, args)
    if tracer:
        tracer.reset()
    clock = time.perf_counter
    t_first = end_setup()
    samples, errors, first_s = [], [], None
    for timed in streams:
        t_begin = time.monotonic()
        latencies, results = [], []
        with Speedometer() as meter:
            t_start, p_start = clock(), meter.paused
            for kind, args, _ in timed:
                p0, t0 = meter.paused, clock()
                try:
                    res = call(kind, args)
                except Exception as exc:  # counted as a failed operation
                    res = exc
                latencies.append(clock() - t0 - (meter.paused - p0))
                results.append(res)
            timed_s = clock() - t_start - (meter.paused - p_start)
        if tracer:
            tracer.active = False
        failed, wrong = check_stream(timed, results, errors)
        if tracer:
            tracer.active = True
        samples.append({"timed_s": timed_s, "latencies": latencies,
                        "speed": meter.speed(), "failed": failed,
                        "wrong": wrong})
        now = time.monotonic()
        if first_s is None:
            first_s = now - job["t_spawn"]
        if job["deadline"] is not None and \
                now + (now - t_begin) > job["deadline"]:
            break
    return {"t_first": t_first, "first_s": first_s, "samples": samples,
            "wrong": sum(x["wrong"] for x in samples), "errors": errors,
            "trace": tracer.raw() if tracer else None}


def check_stream(timed, results, errors):
    """(failed, wrong) for one stream; notes the first few failures in
    errors."""
    failed = wrong = 0
    for (kind, args, extra), res in zip(timed, results):
        if isinstance(res, Exception):
            why = f"{kind}: {type(res).__name__}: {res}"
        elif extra is None:
            continue
        else:
            try:
                if check(kind, args, extra, res):
                    continue
                why = f"{kind}: identity does not hold"
                wrong += 1
            except Exception as exc:
                why = f"{kind} check: {type(exc).__name__}: {exc}"
        failed += 1
        if len(errors) < 5:
            errors.append(why)
    return failed, wrong


def end_setup():
    """Stop timing set-up; the monotonic time at which it ended."""
    SETUP.stop()
    return time.monotonic()


def run_table(job, tracer):
    out, err = io.StringIO(), io.StringIO()
    error = None
    t_first = end_setup()
    with Speedometer() as meter:
        t_start, p_start = time.perf_counter(), meter.paused
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                if job["argv"] is None:
                    defcx.build_slice(*inputs.EDGE_SLICE)
                else:
                    rc = cli.main(job["argv"])
                    if rc != 0:
                        error = f"exit status {rc}: {err.getvalue().strip()}"
        except Exception as exc:  # the outcome is what the parent checks
            error = type(exc).__name__
        timed_s = time.perf_counter() - t_start - (meter.paused - p_start)
    return {"t_first": t_first, "timed_s": timed_s, "speed": meter.speed(),
            "stdout": out.getvalue(), "error": error,
            "trace": tracer.raw() if tracer else None}


def main():
    job = json.loads(sys.argv[1])
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install()
    run = run_stream if job["kind"] == "stream" else run_table
    res = run(job, tracer)
    res["setup_s"] = res.pop("t_first") - job["t_spawn"] - SETUP.paused
    res["setup_speed"] = SETUP.speed()
    res["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(res))


if __name__ == "__main__":
    main()
