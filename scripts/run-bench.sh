#!/usr/bin/env bash
# Builds the `release` preset and records the reproducible benchmark
# baseline: micro-benchmarks (bench/micro_kernels, five repetitions each,
# mean/median/stddev/cv aggregates kept) into BENCH_kernels.json, the raw
# google-benchmark JSON wrapped with machine metadata (CPU model, core
# count, git revision, UTC date) so a committed baseline states exactly what
# it was measured on.
#
# Usage:
#   scripts/run-bench.sh [--smoke] [--min-time SECS] [--before FILE]
#                        [--out-dir DIR] [--build-dir DIR]
#
#   --smoke           fast sanity pass (min-time 0.05); use in CI to prove
#                     the benches run, not to produce comparable numbers
#   --min-time SECS   per-benchmark measuring time (default: 0.2)
#   --before FILE     embed a pre-change google-benchmark JSON under the
#                     "before" key of BENCH_kernels.json so the speedup the
#                     change delivered stays recorded next to the new numbers
#   --out-dir DIR     where to write BENCH_kernels.json (default: repo root)
#   --build-dir DIR   reuse an existing release build tree
#                     (default: build-release, the preset's binaryDir)
set -euo pipefail

cd "$(dirname "$0")/.."

min_time=0.2
smoke=0
before_file=""
out_dir=.
build_dir=build-release
while [[ $# -gt 0 ]]; do
  case "$1" in
    --smoke)     smoke=1; min_time=0.05; shift ;;
    --min-time)  min_time="$2"; shift 2 ;;
    --before)    before_file="$2"; shift 2 ;;
    --out-dir)   out_dir="$2"; shift 2 ;;
    --build-dir) build_dir="$2"; shift 2 ;;
    *) echo "run-bench: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

if [[ ! -f "$build_dir/CMakeCache.txt" ]]; then
  cmake --preset release -B "$build_dir" >/dev/null
fi

# A committed baseline measured from a debug tree is worse than none: every
# later comparison against it reports phantom regressions or phantom wins.
# (The old BENCH_kernels.json silently recorded library_build_type=debug.)
# Refuse anything but an optimized build type up front.
build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$build_dir/CMakeCache.txt")
case "$build_type" in
  Release|RelWithDebInfo) ;;
  *)
    echo "run-bench: refusing to record a baseline from build type" \
         "'${build_type:-<unset>}' in $build_dir (need Release or" \
         "RelWithDebInfo). Use --build-dir or the release preset." >&2
    exit 3
    ;;
esac

cmake --build "$build_dir" -j "$(nproc)" --target micro_kernels >/dev/null

# google-benchmark changed the --benchmark_min_time syntax: up to 1.7 it is a
# plain double ("0.2"), from 1.8 it requires a unit suffix ("0.2s"). Probe
# with the plain form and fall back, so the script works against whichever
# the toolchain ships.
min_time_flag="--benchmark_min_time=${min_time}"
if ! "$build_dir/bench/micro_kernels" --benchmark_list_tests=true \
     "$min_time_flag" >/dev/null 2>&1; then
  min_time_flag="--benchmark_min_time=${min_time}s"
fi

run_bench() {  # run_bench <binary> <raw-json-out> [extra flags...]
  local bin=$1 out=$2
  shift 2
  "$bin" "$min_time_flag" --benchmark_format=console \
    --benchmark_out_format=json --benchmark_out="$out" "$@"
}

wrap_json() {  # wrap_json <raw-json> <final-json> <label>
  python3 - "$1" "$2" "$3" "$smoke" "$before_file" "$build_type" <<'EOF'
import json, platform, subprocess, sys

raw_path, out_path, label, smoke, before_path, build_type = sys.argv[1:7]

def sh(*cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True,
                              check=True).stdout.strip()
    except Exception:
        return ""

cpu_model = ""
for line in sh("lscpu").splitlines():
    if line.startswith("Model name:"):
        cpu_model = line.split(":", 1)[1].strip()
        break

doc = {
    "label": label,
    "smoke": smoke == "1",
    # The tcb build type (the guard above enforces Release/RelWithDebInfo);
    # distinct from the benchmark library's own library_build_type field.
    "tcb_build_type": build_type,
    "machine": {
        "cpu_model": cpu_model,
        "nproc": sh("nproc"),
        "platform": platform.platform(),
    },
    "git_revision": sh("git", "rev-parse", "HEAD"),
    "git_describe": sh("git", "log", "-1", "--format=%cI %h %s"),
    "date_utc": sh("date", "-u", "+%Y-%m-%dT%H:%M:%SZ"),
    "benchmark": json.load(open(raw_path)),
}
if before_path:
    doc["before"] = json.load(open(before_path))
json.dump(doc, open(out_path, "w"), indent=1)
print(f"run-bench: wrote {out_path}")
EOF
}

mkdir -p "$out_dir"
tmp_kernels=$(mktemp)
trap 'rm -f "$tmp_kernels"' EXIT

# Five repetitions per kernel, aggregates only: the regression gate
# (scripts/check_bench_regression.py) judges each benchmark's median, which a
# single run on a shared host cannot stand in for.
echo "== micro kernels (min_time=${min_time}, 5 repetitions) =="
run_bench "$build_dir/bench/micro_kernels" "$tmp_kernels" \
  --benchmark_repetitions=5 --benchmark_report_aggregates_only=true
wrap_json "$tmp_kernels" "$out_dir/BENCH_kernels.json" micro_kernels
