#!/usr/bin/env python3
"""Gate kernel benchmarks against the committed baseline.

Compares per-benchmark real_time of a fresh google-benchmark run against a
committed baseline (BENCH_kernels.json, possibly wrapped by run-bench.sh) and
fails when any matching benchmark regressed by more than the threshold. The
default gate covers the attention kernels plus the GEMM and whole-encoder-
layer benches and the continuous-batching splice, so a blocking, fusion or
fork-join regression cannot hide behind a healthy attention number.

Each benchmark is judged on its median: scripts/run-bench.sh runs every
benchmark five times and keeps only the aggregates, and the gate reads the
`_median` aggregate when a report carries one. A report without aggregates
(a plain single run, or repetitions recorded without them) is judged on the
median of its iteration runs, which for a single run is that run. One run
per entry against one committed number could not tell a regression from a
noisy neighbour on a shared VM.

Benchmark numbers are only comparable on the machine they were recorded on,
so the gate is conditional: the bench binary records the detected cache
geometry in its context (tcb_cache_l1d / tcb_cache_l2, see
bench/micro_kernels.cpp), and when the current run's geometry differs from
the baseline's — a CI runner judging a baseline recorded on a dev box — the
gate prints what it skipped and exits 0. A baseline recorded in smoke mode
is likewise not judged.

A second, machine-independent mode gates the continuous-batching sweep
(bench/continuous_batching.cpp). The serving simulator is analytical and
deterministic, so its CSV reproduces bit-for-bit anywhere: at every rate at
or above the saturation knee (--saturation-rate, default 200 req/s) the
continuous pipeline must beat run-to-completion on both goodput and utility,
or the iteration-level splicing machinery has regressed.

Usage:
  scripts/check_bench_regression.py --baseline BENCH_kernels.json \
      --current bench-results/BENCH_kernels.json \
      [--filter BM_Attention,BM_Matmul,BM_Splice] [--threshold 0.25]
  scripts/check_bench_regression.py --continuous-csv continuous_batching.csv \
      [--saturation-rate 200]

Exit codes: 0 pass/skip, 1 regression, 2 bad input.
"""

import argparse
import csv
import json
import statistics
import sys

TIME_UNITS_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_report(path):
    """Returns (context, benchmarks, wrapper) from a raw or wrapped report."""
    with open(path) as f:
        doc = json.load(f)
    wrapper = {}
    if "benchmark" in doc and "context" not in doc:  # run-bench.sh wrapper
        wrapper = doc
        doc = doc["benchmark"]
    if "context" not in doc or "benchmarks" not in doc:
        raise ValueError(f"{path}: not a google-benchmark JSON report")
    return doc["context"], doc["benchmarks"], wrapper


def real_time_ns(entry):
    return entry["real_time"] * TIME_UNITS_NS[entry.get("time_unit", "ns")]


def gated_times(benches, prefixes):
    """Maps each benchmark (run name) matching `prefixes` to the real_time,
    in ns, the gate judges: its median aggregate when the report has one,
    else the median of its iteration runs."""
    medians, runs = {}, {}
    for b in benches:
        name = b.get("run_name", b["name"])
        if not name.startswith(prefixes):
            continue
        aggregate = b.get("aggregate_name")
        if aggregate == "median":
            medians[name] = real_time_ns(b)
        elif aggregate is None:
            runs.setdefault(name, []).append(real_time_ns(b))
    times = {name: statistics.median(v) for name, v in runs.items()}
    times.update(medians)
    return times


def geometry(context):
    return {k: context.get(k) for k in ("tcb_cache_l1d", "tcb_cache_l2")}


def check_continuous_csv(path, saturation_rate):
    """Gates the continuous-batching sweep: cont > rtc beyond saturation."""
    required = {"rate", "rtc_goodput", "cont_goodput", "rtc_utility",
                "cont_utility"}
    try:
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
    except OSError as e:
        print(f"check_bench_regression: {e}", file=sys.stderr)
        return 2
    if not rows or not required.issubset(rows[0].keys()):
        print(f"check_bench_regression: {path}: expected columns {sorted(required)}",
              file=sys.stderr)
        return 2

    failures = []
    gated = 0
    for row in rows:
        rate = float(row["rate"])
        rtc_g, cont_g = float(row["rtc_goodput"]), float(row["cont_goodput"])
        rtc_u, cont_u = float(row["rtc_utility"]), float(row["cont_utility"])
        if rate < saturation_rate:
            print(f"  skip rate={rate:g}: below saturation knee "
                  f"({saturation_rate:g} req/s)")
            continue
        gated += 1
        ok = cont_g > rtc_g and cont_u > rtc_u
        print(f"  {'ok' if ok else 'FAIL':4} rate={rate:g}: goodput "
              f"{rtc_g:.1f} -> {cont_g:.1f} ({cont_g / rtc_g:.2f}x), utility "
              f"{rtc_u:.1f} -> {cont_u:.1f} ({cont_u / rtc_u:.2f}x)")
        if not ok:
            failures.append(rate)

    if gated == 0:
        print(f"check_bench_regression: no rates at or above "
              f"{saturation_rate:g} req/s in {path}", file=sys.stderr)
        return 2
    if failures:
        print(f"check_bench_regression: continuous batching lost to "
              f"run-to-completion at rate(s) "
              + ", ".join(f"{r:g}" for r in failures))
        return 1
    print(f"check_bench_regression: PASS — continuous beats "
          f"run-to-completion on goodput and utility at all {gated} "
          f"saturated rate(s)")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline")
    ap.add_argument("--current")
    ap.add_argument("--filter",
                    default="BM_Attention,BM_Matmul,BM_EncoderLayer,BM_Splice",
                    help="comma-separated benchmark name prefixes to gate "
                         "(default: BM_Attention,BM_Matmul,BM_EncoderLayer,"
                         "BM_Splice)")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="max tolerated slowdown fraction (default: 0.25)")
    ap.add_argument("--continuous-csv",
                    help="gate a continuous_batching.csv sweep instead of a "
                         "google-benchmark report")
    ap.add_argument("--saturation-rate", type=float, default=200.0,
                    help="gate only rates at or above this (default: 200)")
    args = ap.parse_args()

    if args.continuous_csv:
        return check_continuous_csv(args.continuous_csv, args.saturation_rate)
    if not args.baseline or not args.current:
        ap.error("--baseline and --current are required unless "
                 "--continuous-csv is given")

    try:
        base_ctx, base_benches, base_wrap = load_report(args.baseline)
        cur_ctx, cur_benches, _ = load_report(args.current)
    except (OSError, ValueError, KeyError) as e:
        print(f"check_bench_regression: {e}", file=sys.stderr)
        return 2

    if base_wrap.get("smoke"):
        print("check_bench_regression: SKIP — baseline was recorded in smoke "
              "mode, numbers are not comparable")
        return 0

    base_geo, cur_geo = geometry(base_ctx), geometry(cur_ctx)
    if None in base_geo.values() or None in cur_geo.values():
        print("check_bench_regression: SKIP — cache geometry missing from "
              f"context (baseline={base_geo}, current={cur_geo}); cannot "
              "establish same-machine comparability")
        return 0
    if base_geo != cur_geo:
        print("check_bench_regression: SKIP — cache geometry differs "
              f"(baseline={base_geo}, current={cur_geo}); the baseline was "
              "recorded on a different machine class")
        return 0

    prefixes = tuple(p.strip() for p in args.filter.split(",") if p.strip())
    if not prefixes:
        print("check_bench_regression: --filter matched no prefixes",
              file=sys.stderr)
        return 2
    base_times = gated_times(base_benches, prefixes)
    if not base_times:
        print(f"check_bench_regression: no baseline benchmarks match "
              f"'{args.filter}'", file=sys.stderr)
        return 2

    failures = []
    compared = 0
    for name, cur_ns in gated_times(cur_benches, prefixes).items():
        if name not in base_times:
            continue
        compared += 1
        base_ns = base_times[name]
        ratio = cur_ns / base_ns if base_ns > 0 else float("inf")
        status = "FAIL" if ratio > 1.0 + args.threshold else "ok"
        print(f"  {status:4} {name}: {base_ns / 1e6:.3f} ms -> "
              f"{cur_ns / 1e6:.3f} ms ({ratio:.2f}x baseline)")
        if status == "FAIL":
            failures.append(name)

    if compared == 0:
        print(f"check_bench_regression: current run has no benchmarks "
              f"matching '{args.filter}'", file=sys.stderr)
        return 2
    if failures:
        print(f"check_bench_regression: {len(failures)}/{compared} gated "
              f"benchmark(s) regressed more than {args.threshold:.0%}: "
              + ", ".join(failures))
        return 1
    print(f"check_bench_regression: PASS — {compared} benchmark(s) within "
          f"{args.threshold:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
