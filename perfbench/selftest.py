"""Self-test of the benchmark's own inputs and declarations.

    python3 perfbench/selftest.py

Checks that input generation is a pure function of the seed that never
touches the library, that the expected tables cover every table job and
hold the paper's witness classes, and that BENCHMARK.json names exactly
the metrics run.py reports.  Exits with status 1 on the first failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import tracer  # noqa: E402


def expect(cond, what):
    if not cond:
        print(f"FAIL {what}")
        sys.exit(1)
    print(f"ok   {what}")


def main():
    for seed in (0, 1, 12345):
        for k in (0, 3):
            expect(inputs.stream(seed, k) == inputs.stream(seed, k),
                   f"seed {seed} pass {k}: same requests twice")
            expect(inputs.stream(seed, k, warm=True)
                   != inputs.stream(seed, k),
                   f"seed {seed} pass {k}: warm-up differs from timed")
    expect(inputs.stream(1, 0) != inputs.stream(2, 0),
           "different seeds give different requests")
    expect(inputs.stream(1, 0) != inputs.stream(1, 1),
           "different passes give different requests")
    expect("liegraphs" not in sys.modules,
           "input generation does not import the library")

    expected = json.loads((HERE / "expected.json").read_text())
    for workload, jobs in inputs.TABLES.items():
        for seed in (0, 1):
            order = inputs.table_jobs(workload, seed)
            expect(order == inputs.table_jobs(workload, seed)
                   and sorted(order, key=str) == sorted(jobs, key=str),
                   f"{workload} seed {seed}: same jobs, seeded order")
        expect(all(tid in expected for tid, _ in jobs),
               f"{workload}: every table has an expected result")
    rows = {tid: {r[0]: r[1:] for r in v} for tid, v in expected.items()
            if isinstance(v, list)}
    # basis, kernel, image, cohomology
    expect(rows["gc-d1"]["2:3"] == [1, 1, 0, 1],
           "theta witness: gc d=1 (2,3) has cohomology 1")
    expect(rows["gc-d2"]["4:6"] == [1, 1, 0, 1],
           "tetrahedron witness: gc d=2 (4,6) has cohomology 1")
    expect(expected["def-olie-edge"] == "ValueError",
           "grid-edge slice expects ValueError")

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer = [m["name"] for m in spec["per_layer"]]
    expect(layer == tracer.metric_names() + ["trace.run_s",
                                             "trace.overhead_s"],
           "BENCHMARK.json per_layer matches the tracer")
    names = [w["name"] for w in spec["workloads"]]
    expect(sorted(names) == sorted(inputs.TABLES) + ["op-stream"],
           "BENCHMARK.json workloads match the generators")
    print("selftest passed")


if __name__ == "__main__":
    main()
