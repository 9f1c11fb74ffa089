#!/usr/bin/env bash
# Crash-recovery smoke for the engine snapshot/restore path, end to end
# on the release binary:
#
#   1. unbroken reference run (--json, deterministic fields recorded);
#   2. the same run snapshotting every 5 epochs and "crashing" after
#      epoch 13 (--stop-after — snapshots at epochs 5 and 10 survive),
#      done twice into separate directories: the two runs' snapshot
#      files must be byte-identical (a snapshot is a pure function of
#      the input stream — no wall-clock value is persisted);
#   3. restore from the newest snapshot and replay the remaining epochs;
#   4. byte-compare restored vs unbroken output (minus the wall-clock
#      "timing" object, the one documented non-deterministic field);
#   5. corrupt the newest snapshot and restore again: recovery must fall
#      back to the older snapshot, report the torn file on stderr, and
#      STILL reproduce the unbroken run byte for byte.
#
# Usage: cargo build --release && scripts/snapshot_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."
BIN=./target/release/engine_sim
FLAGS="--nodes 120 --edges 480 --eps 0.6 --hotspots 4 --epochs 24 --mean 80 \
       --seed 11 --churn 2,6 --payments critical"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo >&2 "snapshot_smoke: unbroken reference run ..."
$BIN $FLAGS --json >"$tmp/full.json"

echo >&2 "snapshot_smoke: snapshotting run (twice), simulated crash after epoch 13 ..."
for dir in snaps snaps-again; do
  $BIN $FLAGS --snapshot-every 5 --snapshot-dir "$tmp/$dir" --stop-after 13 \
    >"$tmp/crash.out" 2>"$tmp/crash.log"
  test -s "$tmp/crash.out" && { echo >&2 "snapshot_smoke: crashed run must not print a summary"; exit 1; }
  test -f "$tmp/$dir/snap-000000000010.ufpsnap" || { echo >&2 "snapshot_smoke: expected snapshot at epoch 10"; exit 1; }
done
for epoch in 000000000005 000000000010; do
  if ! cmp "$tmp/snaps/snap-$epoch.ufpsnap" "$tmp/snaps-again/snap-$epoch.ufpsnap"; then
    echo >&2 "snapshot_smoke: two identical runs wrote different snapshots at epoch $epoch"
    exit 1
  fi
done

echo >&2 "snapshot_smoke: restore + replay ..."
$BIN $FLAGS --restore-from "$tmp/snaps" --json >"$tmp/restored.json" 2>"$tmp/restore.log"
grep -q "restored epoch 10" "$tmp/restore.log"
if grep -q "topology migration" "$tmp/restore.log"; then
  echo >&2 "snapshot_smoke: a pristine-topology restore must not migrate"
  exit 1
fi
if ! diff <(grep -v '"timing"' "$tmp/full.json") \
          <(grep -v '"timing"' "$tmp/restored.json"); then
  echo >&2 "snapshot_smoke: restored run diverged from the unbroken run"
  exit 1
fi

echo >&2 "snapshot_smoke: corrupting newest snapshot, restore must fall back ..."
printf '\xde\xad\xbe\xef' | dd of="$tmp/snaps/snap-000000000010.ufpsnap" \
  bs=1 seek=64 conv=notrunc 2>/dev/null
$BIN $FLAGS --restore-from "$tmp/snaps" --json >"$tmp/fallback.json" 2>"$tmp/fallback.log"
grep -q "skipped unreadable snapshot" "$tmp/fallback.log"
grep -q "restored epoch 5" "$tmp/fallback.log"
if ! diff <(grep -v '"timing"' "$tmp/full.json") \
          <(grep -v '"timing"' "$tmp/fallback.json"); then
  echo >&2 "snapshot_smoke: fallback-restored run diverged from the unbroken run"
  exit 1
fi

echo >&2 "snapshot_smoke: PASS (deterministic snapshots; kill -> restore -> byte-identical, incl. torn-file fallback)"
