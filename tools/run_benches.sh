#!/usr/bin/env sh
# Runs every bench binary in a build tree, writing one Google-Benchmark
# JSON report per binary: <outdir>/BENCH_<name>.json
#
#   tools/run_benches.sh [build-dir] [outdir] [extra benchmark args...]
#
# Example:
#   tools/run_benches.sh build bench-out --benchmark_min_time=0.05
#
# Unless the extra args name --benchmark_repetitions, every bench runs 5
# repetitions and reports only their aggregates (mean, median, stddev,
# cv), so each archived row carries its own spread.
#
# Exits non-zero when a bench binary fails or emits an empty/missing
# JSON report, so CI archives only real measurements.
set -eu

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-bench-out}"
if [ $# -ge 1 ]; then shift; fi
if [ $# -ge 1 ]; then shift; fi

case " $* " in
  *" --benchmark_repetitions"*) ;;
  *) set -- --benchmark_repetitions=5 --benchmark_report_aggregates_only=true "$@" ;;
esac

if [ ! -d "$BUILD_DIR" ]; then
  echo "run_benches.sh: build dir '$BUILD_DIR' not found (configure first)" >&2
  exit 1
fi

mkdir -p "$OUT_DIR"
found=0
ran_collectives=0
failed=""
for bin in "$BUILD_DIR"/bench_*; do
  [ -x "$bin" ] || continue
  case "$bin" in *.json|*.txt) continue ;; esac
  found=1
  name=$(basename "$bin")
  [ "$name" = "bench_collectives" ] && ran_collectives=1
  out_json="$OUT_DIR/BENCH_${name#bench_}.json"
  echo "== $name =="
  if ! "$bin" --benchmark_format=json \
              --benchmark_out="$out_json" \
              --benchmark_out_format=json "$@"; then
    echo "  (failed: $name)" >&2
    failed="$failed $name"
    continue
  fi
  if [ ! -s "$out_json" ]; then
    echo "  (empty report: $out_json)" >&2
    failed="$failed $name"
  fi
done

if [ "$found" -eq 0 ]; then
  echo "run_benches.sh: no bench_* binaries in '$BUILD_DIR' (is Google Benchmark installed?)" >&2
  exit 1
fi

# Observability overhead guard: when a metrics-compiled-out tree exists
# next to the main one (cmake -B <build>-noobs -DLOL_OBS=OFF), rerun the
# barrier bench from it. BENCH_collectives_noobs.json is the zero-cost
# baseline the instrumented numbers are compared against — which only
# makes sense when the instrumented bench_collectives actually ran
# above; otherwise the baseline would be archived with nothing to
# compare it to, so skip it.
noobs_bin="$BUILD_DIR-noobs/bench_collectives"
if [ "$ran_collectives" -eq 0 ] && [ -x "$noobs_bin" ]; then
  echo "== skipping noobs baseline (bench_collectives not in this run) =="
fi
if [ "$ran_collectives" -eq 1 ] && [ -x "$noobs_bin" ]; then
  out_json="$OUT_DIR/BENCH_collectives_noobs.json"
  echo "== bench_collectives (LOL_OBS=OFF baseline) =="
  if ! "$noobs_bin" --benchmark_format=json \
                    --benchmark_out="$out_json" \
                    --benchmark_out_format=json "$@"; then
    echo "  (failed: bench_collectives noobs baseline)" >&2
    exit 1
  fi
  [ -s "$out_json" ] || { echo "  (empty report: $out_json)" >&2; exit 1; }
fi
if [ -n "$failed" ]; then
  echo "run_benches.sh: failed or empty:$failed" >&2
  exit 1
fi
echo "JSON reports in $OUT_DIR/"
