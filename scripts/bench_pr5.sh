#!/usr/bin/env bash
# Regenerate BENCH_PR5.json — the perf snapshot for the sharded engine
# (ufp_shard: capacity leases + merge-replay reconciliation) against one
# global engine on the same stream.
#
# Network: the BENCH_PR4 scale (1000 nodes, 5000 edges, 32 hotspot
# pairs, eps 0.5, seed 7) restructured into 4 communities so a
# block partition is component-aligned — the regime where the sharded
# engine is bit-identical to the single engine, which this script
# verifies byte-for-byte before trusting any timing.
#
# Rows:
#   * critical-value payments on, churned arrivals, at two epoch sizes —
#     the headline speedup. Sharding cuts every payment probe's resume
#     suffix and every iteration's O(remaining) bookkeeping to one
#     shard's share, so the win holds even on a single core; on
#     multi-core hosts the four shard epochs additionally run in
#     parallel (shards plan/commit via ufp_par's nested-safe pool).
#   * payments off at a bulk epoch size (3·10^4 requests/epoch) — the
#     allocation-only trajectory. On one core this is Dijkstra-bound
#     (identical work either way), so the recorded speedup is modest;
#     the row exists to keep the trajectory honest across hosts.
#
# In-script checks (all fatal):
#   * shards=4 vs shards=1 byte-identical on every deterministic field
#     (strip timing, the config echo, and the shards_detail block that
#     only the sharded run emits);
#   * shards=4 rerun byte-identical to itself (determinism);
#   * "feasible": true in every document;
#   * headline paid speedup >= 2.0 at 4 shards.
#
# Usage: cargo build --release && scripts/bench_pr5.sh
#
# Pinned to --payment-scope shard-local: this snapshot measures PR 5's
# sharding win as shipped (per-shard payment probes). PR 8 made the
# global merged-trace pass the default and prices its extra probe cost
# separately in scripts/bench_pr8.sh. On these zero-cross, guard-free
# traces both scopes are byte-identical to the single engine.
#
# History only: `--payment-scope` was removed with the per-shard
# payment pass (the sharded engine now keeps one book and prices every
# winner on the merged trace), so this script runs only on a revision
# that still has the flag.
set -euo pipefail
cd "$(dirname "$0")/.."
BIN=./target/release/engine_sim
COMMON="--nodes 1000 --edges 5000 --eps 0.5 --hotspots 32 --communities 4 --seed 7 --payment-scope shard-local"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

run_pair() { # run_pair <tag> <mean> <epochs> <payments> <extra...>
  local tag=$1 mean=$2 epochs=$3 pay=$4
  shift 4
  for shards in 1 4; do
    echo >&2 "bench_pr5: $tag mean=$mean epochs=$epochs payments=$pay shards=$shards ..."
    $BIN $COMMON --mean "$mean" --epochs "$epochs" --payments "$pay" \
      --shards "$shards" "$@" --json \
      >"$tmp/run_${tag}_${mean}_${shards}.json" 2>/dev/null
    grep -q '"feasible": true' "$tmp/run_${tag}_${mean}_${shards}.json" || {
      echo >&2 "bench_pr5: infeasible output at $tag shards=$shards"
      exit 1
    }
  done
  # Zero-cross equivalence: the sharded run must reproduce the single
  # engine byte for byte on every deterministic field.
  if ! diff <(grep -v '"timing"\|"config"\|"shards_detail"' "$tmp/run_${tag}_${mean}_1.json") \
            <(grep -v '"timing"\|"config"\|"shards_detail"' "$tmp/run_${tag}_${mean}_4.json") \
            >/dev/null; then
    echo >&2 "bench_pr5: sharded vs single mismatch at $tag mean=$mean"
    exit 1
  fi
  # Determinism of the sharded replay itself.
  $BIN $COMMON --mean "$mean" --epochs "$epochs" --payments "$pay" \
    --shards 4 "$@" --json >"$tmp/rerun_${tag}_${mean}.json" 2>/dev/null
  if ! diff <(grep -v '"timing"' "$tmp/run_${tag}_${mean}_4.json") \
            <(grep -v '"timing"' "$tmp/rerun_${tag}_${mean}.json") >/dev/null; then
    echo >&2 "bench_pr5: sharded replay nondeterministic at $tag mean=$mean"
    exit 1
  fi
}

run_pair pay 300 6 critical --churn 2,4
run_pair pay 600 4 critical --churn 2,4
run_pair alloc 30000 2 none

elapsed() { # elapsed <tag> <mean> <shards>
  grep -o '"elapsed_s": [0-9.]*' "$tmp/run_$1_$2_$3.json" | grep -o '[0-9.]*'
}

speedup() { # speedup <tag> <mean>
  awk -v a="$(elapsed "$1" "$2" 1)" -v b="$(elapsed "$1" "$2" 4)" \
    'BEGIN { printf "%.2f", a / b }'
}

headline=$(speedup pay 300)
headline2=$(speedup pay 600)
awk -v s="$headline" -v t="$headline2" 'BEGIN { exit !(s >= 2.0 || t >= 2.0) }' || {
  echo >&2 "bench_pr5: paid epoch-allocation speedup below 2x (got $headline / $headline2)"
  exit 1
}

{
  echo '{'
  echo '  "bench": "PR5: sharded engine (4 shards, capacity leases, merge-replay reconciliation) vs one global engine",'
  echo '  "network": "community_digraph, 1000 nodes, 5000 edges, 4 disconnected communities, eps 0.5, 8 hotspot pairs per community, seed 7",'
  echo '  "workload": "Poisson arrivals at the stated per-epoch mean, demands in [0.2, 1.0]; paid rows add TTL churn 2-4 and critical-value payments",'
  echo '  "host": "'"$(uname -srm)"', '"$(nproc)"' core(s)",'
  echo '  "note": "shards=4 output is byte-identical to shards=1 on every deterministic field and deterministic across reruns (both verified by this script). The paid speedup is algorithmic — per-shard payment-probe suffixes and selection bookkeeping are a quarter of the global ones — and multi-core hosts add parallel shard epochs on top. The payment-free bulk row is Dijkstra-bound on one core.",'
  echo '  "speedup_4_shards_vs_single": {'
  echo '    "paid_mean_300_x6_epochs": '"$headline"','
  echo '    "paid_mean_600_x4_epochs": '"$headline2"','
  echo '    "alloc_mean_30000_x2_epochs": '"$(speedup alloc 30000)"
  echo '  },'
  echo '  "runs": ['
  first=1
  for spec in pay_300 pay_600 alloc_30000; do
    tag=${spec%_*}
    mean=${spec##*_}
    for shards in 1 4; do
      [ "$first" = 1 ] || echo '    ,'
      first=0
      sed 's/^/    /' "$tmp/run_${tag}_${mean}_${shards}.json"
    done
  done
  echo '  ]'
  echo '}'
} >BENCH_PR5.json
echo >&2 "bench_pr5: wrote BENCH_PR5.json (paid speedups ${headline}x / ${headline2}x at 4 shards)"
