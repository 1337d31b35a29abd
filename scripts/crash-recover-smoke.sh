#!/usr/bin/env bash
# crash-recover-smoke.sh — kill-and-recover smoke for `ses serve --state-dir`.
#
# Each pass drives a request script against a fresh state directory,
# SIGKILLs the server mid-transcript (after its responses for the first
# part have been flushed), restarts it on the same directory, feeds the
# remaining requests, and byte-compares the stitched response log against
# a reference. Any divergence — a lost acknowledged mutation, a replayed
# duplicate, a silent fresh start — is a diff failure.
#
# 1. Cold pass: the committed durable script at 40 users, cut halfway
#    (past its first Persist), against the committed golden.
# 2. Warm compressed pass: a 1 024-user `--storage compressed` session arms
#    the repairer, churns users and interest, folds a warm snapshot with
#    Persist and repairs on top of it; the kill lands after that, so the
#    restart loads the warm snapshot and replays the log tail. The
#    reference is the same script run uninterrupted.
#
# Usage: scripts/crash-recover-smoke.sh [path-to-ses-binary]
# (defaults to target/release/ses; run `cargo build --release -p ses-cli`
# first). Honors SES_THREADS like every other entry point.
set -euo pipefail

SES="${1:-target/release/ses}"

WORK="$(mktemp -d)"
trap 'kill -9 "${SERVE_PID:-}" 2>/dev/null || true; rm -rf "$WORK"' EXIT

# kill_and_recover NAME SCRIPT REFERENCE CUT SHAPE...
# Answers the first CUT requests of SCRIPT, SIGKILLs, restarts, answers
# the rest, and diffs the stitched responses against REFERENCE.
kill_and_recover() {
  local name="$1" script="$2" reference="$3" cut="$4"
  shift 4
  local dir="$WORK/$name" total
  mkdir -p "$dir"
  grep -v '^\s*#' "$script" | grep -v '^\s*$' > "$dir/requests.jsonl"
  total=$(wc -l < "$dir/requests.jsonl")
  head -n "$cut" "$dir/requests.jsonl" > "$dir/part1.jsonl"
  tail -n +"$((cut + 1))" "$dir/requests.jsonl" > "$dir/part2.jsonl"

  # Phase 1: serve from a FIFO so stdin stays open after part1 is written —
  # the server must die from SIGKILL, not a clean EOF.
  mkfifo "$dir/in"
  "$SES" serve "$@" --state-dir "$dir/state" \
    < "$dir/in" > "$dir/out1.jsonl" 2> "$dir/serve1.log" &
  SERVE_PID=$!
  disown "$SERVE_PID" 2>/dev/null || true
  exec 3> "$dir/in"
  cat "$dir/part1.jsonl" >&3

  # Wait until every part-1 request is answered (responses are flushed per
  # line), then kill without ceremony.
  for _ in $(seq 1 600); do
    [ "$(wc -l < "$dir/out1.jsonl")" -ge "$cut" ] && break
    sleep 0.1
  done
  [ "$(wc -l < "$dir/out1.jsonl")" -ge "$cut" ] || {
    echo "crash-recover-smoke [$name]: server answered $(wc -l < "$dir/out1.jsonl")/$cut before timeout" >&2
    exit 1
  }
  kill -9 "$SERVE_PID"
  wait "$SERVE_PID" 2>/dev/null || true
  SERVE_PID=""
  exec 3>&-

  # Phase 2: restart on the same state directory; recovery must pick up
  # exactly where the acknowledged transcript left off.
  "$SES" serve "$@" --state-dir "$dir/state" \
    < "$dir/part2.jsonl" > "$dir/out2.jsonl" 2> "$dir/serve2.log"
  grep -q "recovered generation" "$dir/serve2.log" || {
    echo "crash-recover-smoke [$name]: restart did not report a recovery" >&2
    cat "$dir/serve2.log" >&2
    exit 1
  }

  # The stitched transcript must be byte-identical to the reference.
  cat "$dir/out1.jsonl" "$dir/out2.jsonl" | diff - "$reference" || {
    echo "crash-recover-smoke [$name]: stitched transcript diverged from $reference" >&2
    exit 1
  }
  echo "crash-recover-smoke [$name]: OK (killed after $cut/$total requests, recovery byte-identical)"
}

# Cold pass: split at a request boundary past the first Persist, so the
# kill exercises snapshot + WAL-tail recovery, not just the WAL.
DURABLE="scripts/serve-durable-smoke.jsonl"
DURABLE_TOTAL=$(grep -v '^\s*#' "$DURABLE" | grep -cv '^\s*$')
kill_and_recover cold "$DURABLE" tests/golden/serve_durable.jsonl "$((DURABLE_TOTAL / 2))" \
  --dataset unf --users 40 --events 12 --intervals 6 --seed 1509

# Warm compressed pass: the kill lands after the Persist (request 5) and
# two more mutations, so the restart loads a warm snapshot plus a log tail.
WARM="scripts/serve-warm-compressed-smoke.jsonl"
WARM_SHAPE=(--dataset unf --users 1024 --events 12 --intervals 6 --seed 1509 --storage compressed)
"$SES" serve "${WARM_SHAPE[@]}" --state-dir "$WORK/warm-reference" \
  < "$WARM" > "$WORK/warm-reference.jsonl" 2> "$WORK/warm-reference.log"
kill_and_recover warm-compressed "$WARM" "$WORK/warm-reference.jsonl" 7 "${WARM_SHAPE[@]}"
