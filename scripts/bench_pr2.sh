#!/usr/bin/env bash
# Regenerate BENCH_PR2.json — the perf-trajectory snapshot for the
# prefix-resumed critical-value payment path.
#
# Replays one contended epoch (guard-limited winners) of a fixed seeded
# trace at three batch sizes under all three payment policies, recording
# each run's deterministic totals and wall-clock. The "critical" and
# "critical-naive" rows of a batch size must agree on every deterministic
# field (bit-identical payments); only the timing differs. Expect the
# naive 10^4 row to take on the order of ten minutes — that is the point.
#
# History only: `--payments critical-naive` and the bisection behind
# `--payments critical` were replaced by exact critical values, so this
# script runs only on a revision that still has them.
#
# Usage: cargo build --release && scripts/bench_pr2.sh
set -euo pipefail
cd "$(dirname "$0")/.."
BIN=./target/release/engine_sim
COMMON="--nodes 100 --edges 400 --eps 0.7 --hotspots 2 --epochs 1 --seed 7"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for mean in 100 1000 10000; do
  for pay in none critical critical-naive; do
    echo >&2 "bench_pr2: mean=$mean payments=$pay ..."
    $BIN $COMMON --mean "$mean" --payments "$pay" --json \
      >"$tmp/run_${mean}_${pay}.json" 2>/dev/null
  done
  # Payments must be bit-identical across the two pricing paths: every
  # deterministic field of the documents must match.
  if ! diff <(grep -v '"timing"\|"payments"' "$tmp/run_${mean}_critical.json") \
            <(grep -v '"timing"\|"payments"' "$tmp/run_${mean}_critical-naive.json") \
            >/dev/null; then
    echo >&2 "bench_pr2: resumed vs naive mismatch at mean=$mean"
    exit 1
  fi
done

elapsed() {
  grep -o '"elapsed_s": [0-9.]*' "$tmp/run_$1_$2.json" | grep -o '[0-9.]*'
}

{
  echo '{'
  echo '  "bench": "PR2 perf trajectory: prefix-resumed critical-value payments",'
  echo '  "network": "gnm_digraph, 100 nodes, 400 edges, eps 0.7, 2 hotspot pairs, seed 7",'
  echo '  "workload": "1 epoch, Poisson arrivals at the stated mean, demands in [0.2, 1.0]",'
  echo '  "host": "'"$(uname -srm)"', '"$(nproc)"' core(s)",'
  echo '  "note": "critical and critical-naive rows are bit-identical on every deterministic field (verified by this script); timing objects are wall-clock and machine-dependent",'
  echo '  "speedup_resumed_vs_naive": {'
  for mean in 100 1000 10000; do
    sep=','
    [ "$mean" = 10000 ] && sep=''
    awk -v n="$(elapsed "$mean" critical-naive)" \
        -v r="$(elapsed "$mean" critical)" -v m="$mean" -v s="$sep" \
        'BEGIN { printf "    \"batch_%s\": %.1f%s\n", m, n / r, s }'
  done
  echo '  },'
  echo '  "runs": ['
  first=1
  for mean in 100 1000 10000; do
    for pay in none critical critical-naive; do
      [ "$first" = 1 ] || echo '    ,'
      first=0
      sed 's/^/    /' "$tmp/run_${mean}_${pay}.json"
    done
  done
  echo '  ]'
  echo '}'
} >BENCH_PR2.json
echo >&2 "bench_pr2: wrote BENCH_PR2.json"
