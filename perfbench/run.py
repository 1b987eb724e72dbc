"""Benchmark for liegraphs: one command, three workloads.

    python3 perfbench/run.py --workload {gc-table,def-table,op-stream} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
./src, nothing is installed.  All load comes from one client process
with one thread (closed loop).  A run repeats passes over the
workload's fixed work until the next pass would overrun --seconds
(at least one pass).  Each pass runs its work in fresh worker
processes (perfbench/worker.py):

* gc-table, def-table: one fresh interpreter per cohomology table (a
  CLI user pays cold caches on every call);
* op-stream: one long-lived worker per pass that warms up on a stream
  made from another seed, then serves up to 8 timed streams of small
  requests, and stops early when the next one would overrun --seconds.

With --trace 0 the last output line carries the end-to-end metrics,
with --trace 1 the per-layer metrics of one traced pass (and the
tracing overhead against one untraced pass).  Outputs are checked
outside the timed part: table rows against perfbench/expected.json,
stream results against identities that hold for any seed.  An
exception or a wrong result counts as a failed operation and the run
goes on.
"""

from __future__ import annotations

import argparse
import compileall
import csv
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import tracer  # noqa: E402
from speed import REFERENCE_S  # noqa: E402

WORKLOADS = ("gc-table", "def-table", "op-stream")
WORKER_TIMEOUT_S = 150


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def compile_sources():
    """Write the bytecode of the library and of the benchmark before any
    worker starts, so that every worker imports from bytecode, whatever
    the environment says about writing it (PYTHONDONTWRITEBYTECODE)."""
    for path in (ROOT / "src", HERE):
        compileall.compile_dir(path, quiet=1)


def spawn(job):
    """Run one worker to completion and return its result object."""
    job["t_spawn"] = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
        cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        # string hashing is seeded per process; fix it so that every
        # worker iterates its sets of strings in the same order
        env=dict(os.environ, PYTHONHASHSEED="0"))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker failed ({proc.returncode}):"
                           f" {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def scaled(seconds, speed):
    """A time measured while the calibration job took speed seconds,
    as it would read on the reference machine (perfbench/speed.py)."""
    return seconds * REFERENCE_S / speed


def check_table(table_id, res, expected):
    """(attempted, failed, wrong, note) for one table job."""
    want = expected[table_id]
    if isinstance(want, str):  # an expected exception
        got = res["error"]
        return 1, int(got != want), 0, f"{table_id}: {got} (want {want})"
    want_rows = {r[0]: r[1:] for r in want}
    if res["error"] is not None:
        return len(want_rows), len(want_rows), 0, \
            f"{table_id}: {res['error']}"
    rows = list(csv.reader(io.StringIO(res["stdout"])))[1:]
    got_rows = {r[2]: [int(x) for x in r[3:]] for r in rows}
    keys = set(want_rows) | set(got_rows)
    wrong = sum(1 for k in keys if want_rows.get(k) != got_rows.get(k))
    return len(keys), wrong, wrong, f"{table_id}: {wrong} wrong rows"


def table_pass(workload, seed, trace):
    """One pass: every table of the workload, each in a fresh worker."""
    expected = json.loads((HERE / "expected.json").read_text())
    out = {"attempted": 0, "failed": 0, "wrong": 0, "notes": [],
           "setup": [], "calls": [], "rss": 0.0, "traces": [],
           "wall_s": 0.0, "speeds": []}
    for table_id, argv in inputs.table_jobs(workload, seed):
        res = spawn({"kind": "table", "argv": argv, "trace": trace})
        attempted, failed, wrong, note = check_table(table_id, res, expected)
        out["attempted"] += attempted
        out["failed"] += failed
        out["wrong"] += wrong
        if failed:
            out["notes"].append(note)
        out["setup"].append(scaled(res["setup_s"], res["setup_speed"]))
        out["calls"].append(scaled(res["timed_s"], res["speed"]))
        out["rss"] = max(out["rss"], res["rss_mb"])
        out["traces"].append(res["trace"])
        out["wall_s"] += res["timed_s"]
        out["speeds"].append(res["speed"])
    out["timed_s"] = sum(out["calls"])
    return out


def stream_pass(seed, index, trace, deadline):
    """One pass: one worker that warms up and serves several streams."""
    res = spawn({"kind": "stream", "seed": seed, "worker": index,
                 "trace": trace, "deadline": deadline})
    samples = res["samples"]
    wall_s = statistics.median(s["timed_s"] for s in samples)
    for s in samples:
        s["timed_s"] = scaled(s["timed_s"], s["speed"])
        s["latencies"] = [scaled(x, s["speed"]) for x in s["latencies"]]
    return {"attempted": sum(len(s["latencies"]) for s in samples),
            "failed": sum(s["failed"] for s in samples),
            "wrong": res["wrong"], "notes": res["errors"],
            "setup": [scaled(res["setup_s"], res["setup_speed"])],
            "samples": samples,
            "timed_s": statistics.median(s["timed_s"] for s in samples),
            "rss": res["rss_mb"], "traces": [res["trace"]],
            "wall_s": wall_s, "speeds": [s["speed"] for s in samples],
            "min_s": res["first_s"]}


def one_pass(workload, seed, index, trace=False, deadline=None):
    """One pass; its min_s is how long a pass takes at the least (a
    whole table pass, or a stream worker's set-up and first stream).
    A stream worker stops serving streams at the deadline."""
    if workload == "op-stream":
        return stream_pass(seed, index, trace, deadline)
    t0 = time.monotonic()
    out = table_pass(workload, seed, trace)
    out["min_s"] = time.monotonic() - t0
    return out


def timings(workload, passes):
    """(run_s, ops_per_s, p50_s, p99_s) from the passes of one run.

    Every time here is already scaled to the reference machine's speed
    (perfbench/speed.py), which removes the drift of a shared machine's
    speed; each figure is also a median over several short samples,
    which removes what is left of it.  On op-stream a sample is one
    timed stream of at least 2000 requests, so each has more than 10
    requests beyond its p99; the figures are medians over streams.  On a
    table workload every pass makes the same CLI calls: a call's latency
    is its median over passes, run_s is the sum of those, and the
    latency percentiles are taken over the few calls (p99 is the
    slowest call)."""
    if workload == "op-stream":
        samples = [s for p in passes for s in p["samples"]]
        med = statistics.median
        return (med(s["timed_s"] for s in samples),
                med((len(s["latencies"]) - s["failed"]) / s["timed_s"]
                    for s in samples),
                med(percentile(s["latencies"], 0.50) for s in samples),
                med(percentile(s["latencies"], 0.99) for s in samples))
    per_call = [statistics.median(calls)
                for calls in zip(*(p["calls"] for p in passes))]
    run_s = sum(per_call)
    done = statistics.median(p["attempted"] - p["failed"] for p in passes)
    return (run_s, done / run_s, percentile(per_call, 0.50),
            percentile(per_call, 0.99))


def end_to_end(workload, seed, seconds):
    start = time.monotonic()
    passes = []
    while True:
        passes.append(one_pass(workload, seed, len(passes),
                               deadline=start + seconds))
        if time.monotonic() - start + passes[-1]["min_s"] > seconds:
            break
    run_s, ops_per_s, p50, p99 = timings(workload, passes)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "setup_s": (statistics.median(
            [x for p in passes for x in p["setup"]]), "s"),
        "run_s": (run_s, "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_ms": (1e3 * p50, "ms"),
        "op_p99_ms": (1e3 * p99, "ms"),
        "peak_rss_mb": (statistics.median(p["rss"] for p in passes), "MB"),
    }
    # the unscaled time and the machine's speed behind the scaled ones
    speed = statistics.median(x for p in passes for x in p["speeds"])
    info = {"passes": len(passes),
            "fail_frac": f"{failed / attempted:.6f} (1)",
            "wall run_s": f"{statistics.median(p['wall_s'] for p in passes):.6g}"
                          " s (median over passes, unscaled)",
            "calibration job": f"{1e3 * speed:.4f} ms (median; reference"
                               f" {1e3 * REFERENCE_S:g} ms)"}
    return passes, metrics, info


def per_layer(workload, seed):
    plain = one_pass(workload, seed, 0)
    traced = one_pass(workload, seed, 0, trace=True)
    metrics = {k: (v, unit_of(k))
               for k, v in tracer.combine(traced["traces"]).items()}
    metrics["trace.run_s"] = (traced["timed_s"], "s")
    metrics["trace.overhead_s"] = (traced["timed_s"] - plain["timed_s"], "s")
    return [plain, traced], metrics, {"untraced run_s": plain["timed_s"]}


def unit_of(name):
    stat = name.rsplit(".", 1)[1]
    return {"calls": "count", "self_s": "s"}.get(stat, "frac")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "liegraphs" / "__init__.py").is_file():
        print(f"error: no liegraphs sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    compile_sources()

    if args.trace:
        passes, metrics, info = per_layer(args.workload, args.seed)
    else:
        passes, metrics, info = end_to_end(args.workload, args.seed,
                                           args.seconds)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    wrong = sum(p["wrong"] for p in passes)
    notes = sorted({n for p in passes for n in p["notes"]})

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for key, value in info.items():
        print(f"  {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"  {name}: {value:.6g} {unit}")
    for note in notes:
        print(f"  failed: {note}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
