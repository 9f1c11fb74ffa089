#!/usr/bin/env bash
# Committed mutation checks: each row of the table below breaks one proof
# obligation with a one-line `sed` edit and names the test that must see
# it. For every row the script applies the edit to a scratch copy of the
# tree, builds, runs only the named test, and requires that test to fail.
# A row whose edit no longer applies, or whose mutant does not compile,
# is an error too: the table must track the code it breaks.
#
# All rows share one CARGO_TARGET_DIR (default: inside the scratch dir),
# so each row rebuilds only the crates its edit touches. Without a
# SCRATCH_DIR argument a temporary one is made and removed at exit.
#
# Usage: scripts/mutants.sh [SCRATCH_DIR]
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
if [ $# -gt 0 ]; then
  work=$1
else
  work=$(mktemp -d)
  trap 'rm -rf "$work"' EXIT
fi
tree=$work/tree
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$work/target}

# file | sed edit | cargo test target | test name (exact)
ROWS=(
  # Invariant 4: the goal-directed search prunes against the upper bound
  # with a proven slack; pruning at half of it loses the target's path.
  "crates/netgraph/src/dijkstra.rs|s#let limit = (goal.upper \*#let limit = (goal.upper / 2.0 *#|-p ufp-netgraph --test proptests|bounded_query_equals_plain"
  # The shard merge-replay checks the global guard before every step.
  "crates/core/src/bounded_ufp.rs|s#if ln_d1 > lp.ln_guard {#if false \&\& ln_d1 > lp.ln_guard {#|-p ufp-core --lib|bounded_ufp::tests::merge_trips_the_global_guard_where_a_single_run_stops"
  # The merge applies each recorded step's bumps bit for bit.
  "crates/core/src/bounded_ufp.rs|s#state.apply(instance, record, step.path.clone(), &step.bumps);#state.apply(instance, record, step.path.clone(), \&step.bumps.iter().map(|b| b + 1e-15).collect::<Vec<_>>());#|-p ufp-core --test selection_equivalence|one_part_merge_reproduces_the_recorded_run"
  # Without cross-shard traffic the book keeps the merged carry.
  "crates/shard/src/engine.rs|s#let mut carry = merged.outcome.carry;#let mut carry = ctx.carry.to_vec();#|-p ufp-shard --test proptests|zero_cross_is_bit_identical_to_single_engine"
  # A re-centering must re-key every class at -inf, not only dirty it:
  # stale keys in the old scale are not lower bounds.
  "crates/core/src/selection.rs|s# self.invalidate();# for c in 0..self.classes.len() as u32 { self.mark_dirty(c); }#|-p ufp-core --test selection_equivalence|tie_heavy_recenter_bit_identical"
  "crates/core/src/selection.rs|s# self.invalidate();# for c in 0..self.classes.len() as u32 { self.mark_dirty(c); }#|-p ufp-core --test selection_equivalence|goal_directed_queries_cross_a_recenter_inside_a_pass"
)

mkdir -p "$tree"
tar -C "$root" --exclude=./.git --exclude=target -cf - . | tar -C "$tree" -xf -

status=0
for row in "${ROWS[@]}"; do
  # Split from both ends: an edit may itself contain `|`.
  name=${row##*|} && rest=${row%|*}
  target=${rest##*|} && rest=${rest%|*}
  file=${rest%%|*} && edit=${rest#*|}
  sed "$edit" "$root/$file" >"$tree/$file"
  if cmp -s "$root/$file" "$tree/$file"; then
    echo "mutants: ERROR $file: edit did not apply: $edit" >&2
    status=1
    continue
  fi
  # shellcheck disable=SC2086 # $target is a list of cargo arguments
  if ! (cd "$tree" && cargo test --offline -q $target --no-run 2>"$work/build.log"); then
    echo "mutants: ERROR $file: mutant does not compile ($name)" >&2
    tail -20 "$work/build.log" >&2
    status=1
  elif (cd "$tree" && cargo test --offline -q $target -- --exact "$name" >"$work/test.log" 2>&1); then
    echo "mutants: SURVIVED $name ($file: $edit)" >&2
    status=1
  elif ! grep -qxF "    $name" "$work/test.log"; then
    echo "mutants: ERROR $name: the run failed without failing the test" >&2
    tail -20 "$work/test.log" >&2
    status=1
  else
    echo "mutants: killed by $name ($file)"
  fi
  # A fresh mtime, so the next row rebuilds this crate from the original.
  cp "$root/$file" "$tree/$file"
done
exit $status
