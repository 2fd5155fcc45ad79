#!/usr/bin/env bash
# Builds the benchmark suite from this checkout into build-bench/ and runs
# one workload (see README.md).
#
#   bash bench/suite/run.sh --workload W --seed N --seconds S --trace 0|1
#                           [--trace-out PATH]
#   bash bench/suite/run.sh --smoke
#
# --trace 0 first runs three fresh `--cold` processes, one after another,
# for setup_s and peak_rss_mb, then the end-to-end loop. --trace 1 runs the
# traced per-layer rounds and writes Chrome trace-event JSON (default
# build-bench/trace-W.json). Build output goes to stderr; the last stdout
# line is the JSON result.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
build="$root/build-bench"

workload="" seed=1 seconds=10 trace=0 trace_out="" smoke=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --trace) trace=$2; shift 2 ;;
    --trace-out) trace_out=$2; shift 2 ;;
    --smoke) smoke=1; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

# Hermetic: no calibration file from outside the checkout reaches the
# library, since a calibration changes nb, ib and scheduler priorities.
unset TBSVD_TUNE_FILE
export XDG_CACHE_HOME="$build/cache"

ncpu=$(nproc)
cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j "$(( ncpu < 4 ? ncpu : 4 ))" >&2
bin="$build/tbsvd_suite"

if [ "$smoke" = 1 ]; then
  cd "$build"
  exec "$bin" --smoke
fi

sha=unknown
if [ -e "$root/.git" ]; then
  sha=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
fi

cold=()
if [ "$trace" = 0 ]; then
  for _ in 1 2 3; do
    # A failed check still prints its sample; the main run counts it.
    line=$("$bin" --cold "$workload" --seed "$seed") || true
    cold+=(--cold-sample "$line")
  done
fi

exec "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
  --trace "$trace" --trace-out "${trace_out:-$build/trace-$workload.json}" \
  --git-sha "$sha" ${cold[@]+"${cold[@]}"}
