#!/usr/bin/env bash
# Regenerate BENCH_PR8.json — what the global payment pass costs.
#
# PR 8 moved critical-value pricing off the shard-local traces and onto
# the merged global replay trace (ShardConfig::payment_scope =
# GlobalTrace), which upgraded the sharded engine's zero-cross
# bit-identity contract to the full contract: payments now match a
# single engine unconditionally, guard-stopping probes and unroutable
# cross-shard arrivals included. The price is longer probes — a probe
# resumes the *global* trace's suffix instead of one shard's — and this
# script measures that cost against the legacy per-shard pass
# (--payment-scope shard-local), which survives only as this baseline.
#
# Scenarios:
#   * guard: small capacities (eps 0.8 over 160 edges), every epoch
#     guard-stops mid-run, 20% unroutable cross arrivals — the regime
#     the old pass documented as divergent. Identity is verified here.
#   * bulk: the BENCH_PR5-scale paid workload (1000 nodes, 5000 edges,
#     4 communities, churned) — the headline cost ratio at scale.
#
# History only: the per-shard payment pass and `--payment-scope` were
# removed when the sharded engine moved to one book with stateless
# shard planners, so this script runs only on a revision that still
# has them.
#
# In-script checks (all fatal), before any timing is trusted:
#   * global scope at shards=4 is byte-identical to shards=1 on every
#     deterministic field (payments INCLUDED — no zero-cross filter),
#     in both scenarios;
#   * the guard scenario actually guard-stops and actually charges;
#   * the shard-local baseline is deterministic across reruns;
#   * "feasible": true in every document.
#
# Usage: cargo build --release && scripts/bench_pr8.sh
set -euo pipefail
cd "$(dirname "$0")/.."
BIN=./target/release/engine_sim

GUARD="--nodes 80 --edges 160 --eps 0.8 --communities 4 --hotspots 4 \
  --mean 90 --epochs 8 --churn 1,3 --cross-fraction 0.2 --cross-unroutable \
  --payments critical --seed 7"
BULK="--nodes 1000 --edges 5000 --eps 0.5 --communities 4 --hotspots 32 \
  --mean 300 --epochs 6 --churn 2,4 --payments critical --seed 7"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

strip() { grep -v '"timing"\|"config"\|"shards_detail"\|"leases"' "$1"; }

run_scenario() { # run_scenario <tag> <flags...>
  local tag=$1
  shift
  for variant in single global local; do
    case $variant in
      single) args="--shards 1" ;;
      global) args="--shards 4 --payment-scope global" ;;
      local) args="--shards 4 --payment-scope shard-local" ;;
    esac
    echo >&2 "bench_pr8: $tag/$variant ..."
    # shellcheck disable=SC2086
    $BIN "$@" $args --json >"$tmp/${tag}_${variant}.json" 2>/dev/null
    grep -q '"feasible": true' "$tmp/${tag}_${variant}.json" || {
      echo >&2 "bench_pr8: infeasible output at $tag/$variant"
      exit 1
    }
  done
  # Payment bit-identity: the global-scope sharded run must reproduce
  # the single engine byte for byte — payments included, no filter.
  if ! diff <(strip "$tmp/${tag}_single.json") \
            <(strip "$tmp/${tag}_global.json") >/dev/null; then
    echo >&2 "bench_pr8: global-scope payments diverged from single engine at $tag"
    exit 1
  fi
  # The legacy baseline must still be deterministic (it is allowed to
  # misprice vs the single engine under guard pressure — that is the
  # bug PR 8 fixed — but never to be flaky).
  # shellcheck disable=SC2086
  $BIN "$@" --shards 4 --payment-scope shard-local --json \
    >"$tmp/${tag}_local_rerun.json" 2>/dev/null
  if ! diff <(grep -v '"timing"' "$tmp/${tag}_local.json") \
            <(grep -v '"timing"' "$tmp/${tag}_local_rerun.json") >/dev/null; then
    echo >&2 "bench_pr8: shard-local baseline nondeterministic at $tag"
    exit 1
  fi
}

# shellcheck disable=SC2086
run_scenario guard $GUARD
# shellcheck disable=SC2086
run_scenario bulk $BULK

# The guard scenario must exercise the hard regime: guard stops AND
# nonzero payments, or the identity check above proved nothing new.
guard_stops=$(grep -o '"guard": [0-9]*' "$tmp/guard_global.json" | grep -o '[0-9]*')
[ "${guard_stops:-0}" -gt 0 ] || {
  echo >&2 "bench_pr8: guard scenario never tripped the guard"
  exit 1
}
grep -o '"revenue": [0-9.]*' "$tmp/guard_global.json" | head -1 \
  | grep -qv '"revenue": 0\.0*$' || {
  echo >&2 "bench_pr8: guard scenario charged nothing"
  exit 1
}

elapsed() { # elapsed <tag> <variant>
  grep -o '"elapsed_s": [0-9.]*' "$tmp/$1_$2.json" | grep -o '[0-9.]*'
}

ratio() { # ratio <tag> <num-variant> <den-variant>
  awk -v a="$(elapsed "$1" "$2")" -v b="$(elapsed "$1" "$3")" \
    'BEGIN { printf "%.2f", a / b }'
}

{
  echo '{'
  echo '  "bench": "PR8: global merged-trace payment pass (PaymentScope::GlobalTrace) vs the legacy per-shard pass, 4 shards",'
  echo '  "scenarios": {'
  echo '    "guard": "80 nodes, 160 edges, eps 0.8 (guard-stopping epochs), 4 disconnected communities, 20% unroutable cross arrivals, churn 1-3, critical payments, seed 7",'
  echo '    "bulk": "1000 nodes, 5000 edges, eps 0.5, 4 disconnected communities, mean 300, churn 2-4, critical payments, seed 7"'
  echo '  },'
  echo '  "host": "'"$(uname -srm)"', '"$(nproc)"' core(s)",'
  echo '  "note": "global scope at 4 shards is byte-identical to a single engine on every deterministic field, payments included, in both scenarios (verified by this script; the guard scenario had '"$guard_stops"' guard-stopped epochs and nonzero revenue). The ratios price that contract: a global probe resumes the merged trace suffix where the legacy pass resumed one shard-local suffix.",'
  echo '  "global_pass_cost_vs_shard_local": {'
  echo '    "guard": '"$(ratio guard global local)"','
  echo '    "bulk": '"$(ratio bulk global local)"
  echo '  },'
  echo '  "sharded_global_speedup_vs_single": {'
  echo '    "guard": '"$(ratio guard single global)"','
  echo '    "bulk": '"$(ratio bulk single global)"
  echo '  },'
  echo '  "runs": ['
  first=1
  for tag in guard bulk; do
    for variant in single global local; do
      [ "$first" = 1 ] || echo '    ,'
      first=0
      sed 's/^/    /' "$tmp/${tag}_${variant}.json"
    done
  done
  echo '  ]'
  echo '}'
} >BENCH_PR8.json
echo >&2 "bench_pr8: wrote BENCH_PR8.json (global/local cost: guard $(ratio guard global local)x, bulk $(ratio bulk global local)x)"
