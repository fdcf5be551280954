#!/usr/bin/env bash
# bench_layers: builds ftsched and the benchmark from source, runs the
# workloads, checks their outputs and prints their metrics.
#
#   bench/layers/run.sh [--seconds S] [--seed N] [--repeat N] [--out DIR]
#       Every workload, end to end (--trace 0) and then traced (--trace 1),
#       each run in its own process.  With --repeat N, N rounds on seeds
#       N, N+1, ...  The records are merged into DIR/bench_layers.json and
#       printed as a table: median and quartiles of every metric per
#       workload.  S defaults to 3 here, which keeps one round under 90 s.
#
#   bench/layers/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#                       [--out DIR]
#       One run of one workload (S defaults to 10).  The last line of
#       standard output is the result: {"correct", "attempted", "failed",
#       "metrics"} with the metrics BENCHMARK.json declares for that mode.
#
# Everything is written under DIR (default build/bench_layers) and the
# build directory .bench_build, both inside the repository root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
workloads=(fig1-grid repair-policies socket-fleet table1-n1000)

die() {
  echo "run.sh: $*" >&2
  exit 2
}

workload="" seed=42 seconds="" trace=0 repeat=1 out="$root/build/bench_layers"
while [[ $# -gt 0 ]]; do
  [[ $# -ge 2 ]] || die "missing value for $1"
  case "$1" in
    --workload) workload="$2" ;;
    --seed) seed="$2" ;;
    --seconds) seconds="$2" ;;
    --trace) trace="$2" ;;
    --repeat) repeat="$2" ;;
    --out) out="$2" ;;
    *) die "unknown option $1" ;;
  esac
  shift 2
done
[[ "$seed" =~ ^[0-9]+$ ]] || die "--seed takes a whole number"
[[ "$repeat" =~ ^[1-9][0-9]*$ ]] || die "--repeat takes a positive number"
[[ "$trace" == 0 || "$trace" == 1 ]] || die "--trace takes 0 or 1"
[[ -f "$root/CMakeLists.txt" && -d "$root/src" && -f "$root/BENCHMARK.json" ]] ||
  die "no ftsched source tree with a BENCHMARK.json at $root"

mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export TMPDIR="$out/tmp"

# ---------------------------------------------------------------- build
build_dir="$root/.bench_build"
log="$build_dir/build.log"
bin="$build_dir/bench_layers"
mkdir -p "$build_dir"
if ! {
  cmake -S "$root" -B "$build_dir" -DCMAKE_BUILD_TYPE=Release \
    -DFTSCHED_BUILD_TESTS=OFF -DFTSCHED_BUILD_BENCHES=OFF \
    -DFTSCHED_BUILD_EXAMPLES=OFF &&
    cmake --build "$build_dir" -j "$(nproc 2>/dev/null || echo 2)" \
      --target ftsched ftsched_cli
} >"$log" 2>&1; then
  tail -n 40 "$log" >&2
  die "build failed (log: $log)"
fi
if [[ ! -x "$bin" || "$build_dir/libftsched.a" -nt "$bin" ||
  -n "$(find "$here" -maxdepth 1 \( -name '*.cpp' -o -name '*.hpp' \) -newer "$bin")" ]]; then
  if ! g++ -O3 -DNDEBUG -std=c++20 -I"$root/include" "$here"/*.cpp \
    "$build_dir/libftsched.a" -pthread -o "$bin" >>"$log" 2>&1; then
    tail -n 40 "$log" >&2
    die "benchmark build failed (log: $log)"
  fi
fi

# ------------------------------------------------------------------ run
# run_one WORKLOAD SEED TRACE SECONDS: one process; sets $record, returns
# the process's exit status.
run_one() {
  record="$out/record-$1-seed$2-trace$3.json"
  rm -f "$record"
  "$bin" --workload "$1" --seed "$2" --trace "$3" --seconds "$4" \
    --out "$out" --cli "$build_dir/ftsched_cli"
}

if [[ -n "$workload" ]]; then
  status=0
  run_one "$workload" "$seed" "$trace" "${seconds:-10}" || status=$?
  [[ -f "$record" ]] || exit "$(( status == 0 ? 1 : status ))"
  python3 "$here/summarize.py" line "$record" "$root/BENCHMARK.json"
  exit "$status"
fi

status=0
records=()
for ((r = 0; r < repeat; r++)); do
  for w in "${workloads[@]}"; do
    for t in 0 1; do
      run_one "$w" "$((seed + r))" "$t" "${seconds:-3}" >&2 || status=1
      [[ -f "$record" ]] && records+=("$record")
    done
  done
done
python3 "$here/summarize.py" merge "$out/bench_layers.json" \
  "$root/BENCHMARK.json" "${records[@]}" || status=1
exit "$status"
