#!/usr/bin/env python3
"""Serving benchmark: the real ServingPipeline on three workloads.

Usage (from the repository root):

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 servebench/run.py --selftest

Builds servebench/ (a standalone CMake package over src/) into
$CARGO_TARGET_DIR or .bench_build on first use, then runs measured passes of
the workload until --seconds have passed. Each pass is a fresh process: set
up (model, trace, warm-up), serve the whole trace through the timing
decorators, check the outputs. With --trace 1 it runs one untraced and one
traced pass instead; the traced pass records spans (written to .bench_out/)
and replays captured batches layer by layer, and the difference between the
two passes is reported as the tracing overhead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics (end-to-end metrics untraced, per-layer metrics traced).
The exit code is non-zero when any output check failed. README.md defines
every metric and says why each workload exists.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = Path(".bench_out")
PASS_TIMEOUT_S = 170
# Medians over at least three passes shrug off one disturbed pass.
MIN_PASSES = 3
WORKLOADS = ("offline_rtc", "stream_cont", "paper_sim")

# Percentile metrics: (sample key, nominal quantile), computed per pass.
PERCENTILES = {
    "batch_p50_ms": ("batch_ms", 0.50),
    "batch_p90_ms": ("batch_ms", 0.90),
    "tbt_p50_ms": ("tbt_ms", 0.50),
    "tbt_p99_ms": ("tbt_ms", 0.99),
    "ttft_p50_ms": ("ttft_ms", 0.50),
    "ttft_p99_ms": ("ttft_ms", 0.99),
    "latency_p50_ms": ("latency_ms", 0.50),
    "latency_p99_ms": ("latency_ms", 0.99),
}
E2E_UNITS = {
    "setup_s": "s",
    "gen_tok_per_s": "tok/s",
    "req_per_s": "req/s",
    "batch_p50_ms": "ms",
    "batch_p90_ms": "ms",
    "tbt_p50_ms": "ms",
    "tbt_p99_ms": "ms",
    "ttft_p50_ms": "ms",
    "ttft_p99_ms": "ms",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "completed_share": "ratio",
    "utility": "1/tok",
    "goodput_rps": "req/s",
    "peak_rss_mb": "MiB",
}
LAYER_UNITS = {
    "serving.batches": "count",
    "serving.requests_per_batch": "count",
    "serving.batch_occupancy": "ratio",
    "serving.queue_depth_p50": "count",
    "serving.spliced_share": "ratio",
    "serving.slot_occupancy": "ratio",
    "serving.admission_ms": "ms",
    "serving.formation_ms": "ms",
    "sched.select_calls": "count",
    "sched.select_ms": "ms",
    "sched.select_us_p50": "us",
    "sched.slots_calls": "count",
    "sched.slots_ms": "ms",
    "nn.prologue_ms_p50": "ms",
    "nn.splice_calls": "count",
    "nn.splice_ms": "ms",
    "nn.active_tracks_mean": "count",
    "nn.encode_ms": "ms",
    "nn.decode_ms": "ms",
    "nn.decode_share": "ratio",
    "nn.enc_attn_ms": "ms",
    "nn.enc_ffn_ms": "ms",
    "nn.layernorm_ms": "ms",
    "nn.attn_score_entries": "count",
    "nn.dec_proj_ms": "ms",
    "nn.dec_ffn_ms": "ms",
    "nn.logits_ms": "ms",
    "nn.dec_attn_rest_ms": "ms",
    "nn.kv_peak_mb": "MiB",
    "nn.kv_early_freed_share": "ratio",
    "tensor.ws_chunk_allocs": "count",
    "tensor.ws_reserved_mb": "MiB",
    "tensor.gemm_gflops": "GFLOP/s",
    "cost_model.decode_share": "ratio",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    """Configures (once) and builds `target`; returns (binary, build type)."""
    bdir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not bdir.is_absolute():
        bdir = Path.cwd() / bdir
    cache = bdir / "CMakeCache.txt"
    if not cache.exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, stderr=sys.stderr, check=True)
    build_type = ""
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    # A measurement from an unoptimized tree is worse than none.
    if build_type not in ("Release", "RelWithDebInfo"):
        log(f"servebench: refusing build type '{build_type}' in {bdir}")
        sys.exit(3)
    subprocess.run(["cmake", "--build", str(bdir), "-j",
                    str(os.cpu_count() or 1), "--target", target],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    return bdir / target, build_type


def revision():
    """Git revision when run from a clone, else a digest of the sources."""
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0:
            return "git:" + rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def run_pass(binary, workload, seed, traced, spans=None):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0"]
    if spans:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"pass exited with {proc.returncode}")
    return json.loads(proc.stdout)


def quantile(values, q):
    """Linear-interpolated quantile of a non-empty list."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def percentile(values, nominal):
    """The nominal quantile, lowered to the highest one that still has at
    least ten samples beyond it (never below the median)."""
    n = len(values)
    if n == 0:
        return 0.0, 0.0
    q = max(0.5, min(nominal, 1.0 - 10.0 / n))
    return quantile(values, q), q


def end_to_end(passes):
    """Metric values plus, per percentile metric, (quantile used, fewest
    samples in a pass)."""
    per_pass = {
        "setup_s": lambda p: p["setup_s"],
        "gen_tok_per_s": lambda p: p["generated_tokens"] / p["serve_s"],
        "req_per_s": lambda p: p["completed"] / p["serve_s"],
        "completed_share": lambda p: p["completed"] / p["arrived"],
        "utility": lambda p: p["utility"],
        "goodput_rps": lambda p: p["goodput_rps"],
        "peak_rss_mb": lambda p: p["peak_rss_mb"],
    }
    m = {k: statistics.median([f(p) for p in passes])
         for k, f in per_pass.items()}
    used = {}
    for name, (key, nominal) in PERCENTILES.items():
        per = [percentile(p["samples"][key], nominal) for p in passes]
        m[name] = statistics.median([v for v, _ in per])
        used[name] = (min(q for _, q in per),
                      min(len(p["samples"][key]) for p in passes))
    return {k: m[k] for k in E2E_UNITS}, used


def report_e2e(title, metrics, used):
    print(f"-- {title}")
    for name, unit in E2E_UNITS.items():
        note = ""
        if name in used:
            q, n = used[name]
            note = f"  (p{q * 100:.4g}; >= {n} samples per pass)"
        print(f"   {name:<16} {metrics[name]:>14.6g} {unit}{note}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the decorator transparency test")
    args = ap.parse_args()

    if args.selftest:
        binary, _ = build("servebench_selftest")
        sys.exit(subprocess.run([str(binary)]).returncode)
    if args.workload is None:
        ap.error("--workload is required")

    binary, build_type = build("servebench")
    seed = args.seed
    t0 = time.monotonic()
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans_{args.workload}_seed{seed}.json"
        untraced = run_pass(binary, args.workload, seed, False)
        traced = run_pass(binary, args.workload, seed, True, spans)
        passes = [untraced, traced]
        base, used = end_to_end([untraced])
        with_spans, _ = end_to_end([traced])
        overhead = {k: with_spans[k] - base[k] for k in E2E_UNITS}
        metrics = {k: {"value": traced["layers"][k], "unit": u}
                   for k, u in LAYER_UNITS.items()}
    else:
        overhead = None
        passes = []
        while len(passes) < MIN_PASSES or time.monotonic() - t0 < args.seconds:
            passes.append(run_pass(binary, args.workload, seed, False))
        values, used = end_to_end(passes)
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in E2E_UNITS.items()}

    errors = [p["checks"]["errors"] for p in passes if not p["checks"]["ok"]]
    correct = not errors
    attempted = int(sum(p["arrived"] for p in passes))
    failed = int(sum(p["failed_requests"] for p in passes))
    machine = dict(passes[0]["machine"], build_type=build_type,
                   revision=revision(), seed=seed, workload=args.workload)

    # ---- human-readable report ----------------------------------------------
    first = passes[0]
    print(f"servebench {args.workload} seed={seed} trace={args.trace} "
          f"passes={len(passes)} wall={time.monotonic() - t0:.1f}s")
    print("   machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"   per pass: arrived={first['arrived']:.0f} "
          f"completed={first['completed']:.0f} failed={first['failed']:.0f} "
          f"failed_share={first['failed'] / first['arrived']:.6g} "
          f"episodes={first['episodes']:.0f} "
          f"checked_alone={first['checks']['resampled']:.0f}")
    if args.trace:
        report_e2e("untraced pass", base, used)
        report_e2e("traced pass", with_spans, used)
        print("-- tracing overhead (traced - untraced)")
        for k, v in overhead.items():
            print(f"   {k:<16} {v:>+14.6g} {E2E_UNITS[k]}")
        print("-- per layer (traced pass)")
        for k, u in LAYER_UNITS.items():
            print(f"   {k:<26} {traced['layers'][k]:>14.6g} {u}")
        print(f"   spans: {traced['spans']:.0f} written to {spans} "
              f"({traced['spans_dropped']:.0f} beyond the cap dropped); "
              f"replayed batches: {traced['replayed_batches']:.0f}")
    else:
        report_e2e("end to end (untraced)", values, used)
    for e in errors:
        print(f"   CHECK FAILED: {e}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {"machine": machine, "metrics": metrics, "overhead": overhead,
              "passes": len(passes), "errors": errors}
    (OUT_DIR / f"result_{args.workload}_seed{seed}_trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    try:
        main()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, OSError, ValueError, KeyError) as exc:
        log(f"servebench: {exc}")
        sys.exit(2)
