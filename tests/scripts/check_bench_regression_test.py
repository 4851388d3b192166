#!/usr/bin/env python3
"""Self-test for scripts/check_bench_regression.py.

Feeds the gate synthetic google-benchmark reports and checks its verdict:
a median within the threshold passes even when one repetition was slow, a
regressed median fails, a report without aggregates falls back to its
single run, and a baseline of single runs is judged against a current
report of medians. Runs the script as a subprocess, as CI does.

Usage: python3 tests/scripts/check_bench_regression_test.py
"""
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SCRIPT = ROOT / "scripts" / "check_bench_regression.py"
CONTEXT = {"tcb_cache_l1d": "49152", "tcb_cache_l2": "2097152"}


def run(name, time_ns):
    return {"name": name, "run_name": name, "run_type": "iteration",
            "real_time": time_ns, "time_unit": "ns"}


def aggregates(name, median_ns, mean_ns):
    return [{"name": f"{name}_{agg}", "run_name": name,
             "run_type": "aggregate", "aggregate_name": agg,
             "real_time": t, "time_unit": "ns"}
            for agg, t in (("mean", mean_ns), ("median", median_ns),
                           ("stddev", 0.1 * median_ns))]


def report(benchmarks):
    return {"context": CONTEXT, "benchmarks": benchmarks}


def gate(tmp, baseline, current):
    base, cur = Path(tmp) / "base.json", Path(tmp) / "cur.json"
    base.write_text(json.dumps(baseline))
    cur.write_text(json.dumps(current))
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--baseline", str(base), "--current",
         str(cur), "--filter", "BM_Splice", "--threshold", "0.25"],
        capture_output=True, text=True).returncode


def main():
    single_base = report([run("BM_Splice/tokens:20", 100.0)])
    median_base = report(aggregates("BM_Splice/tokens:20", 100.0, 100.0))
    cases = [
        # (what, baseline, current, expected exit code)
        ("median within threshold, mean dragged up by a slow repetition",
         median_base, report(aggregates("BM_Splice/tokens:20", 110.0, 400.0)),
         0),
        ("median regressed past the threshold",
         median_base, report(aggregates("BM_Splice/tokens:20", 140.0, 140.0)),
         1),
        ("no aggregates: the single run within threshold",
         single_base, report([run("BM_Splice/tokens:20", 120.0)]), 0),
        ("no aggregates: the single run regressed",
         single_base, report([run("BM_Splice/tokens:20", 130.0)]), 1),
        ("single-run baseline judged against a current median",
         single_base, report(aggregates("BM_Splice/tokens:20", 90.0, 300.0)),
         0),
        ("nothing matches the filter",
         report([run("BM_Matmul/64", 1.0)]),
         report([run("BM_Matmul/64", 1.0)]), 2),
    ]
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for what, baseline, current, want in cases:
            got = gate(tmp, baseline, current)
            ok = got == want
            failed += not ok
            print(f"{'ok' if ok else 'FAIL':4} {what}: exit {got}, want {want}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
