#!/usr/bin/env bash
# Crash-torture harness (DESIGN.md "Durability"): repeatedly SIGKILL a
# serving `lce` process while clients are writing, then require
# `lce replay` to verify the surviving data dir — recovery must succeed,
# two independent replays must agree byte-for-byte, and every surviving
# log record's response must reproduce. The same dir is reused across
# cycles, so each round also proves the previous crash's debris (torn
# tails, half-rotated epochs) does not poison the next recovery.
#
# Timer mode (TIMERS=1) serves a hand-written delayed-transition spec
# under --virtual-time and mixes /admin/tick advances into the write
# stream, so the SIGKILL lands with timers armed and mid-countdown.
# Recovery must rebuild the wheel from the journaled _AdvanceClock
# records: `lce replay --spec` re-executes the log on fresh twins and
# requires byte-identical dumps plus every response (including each
# tick's {failed, fired, now}) to reproduce.
#
# Record mode (RECORD=1) serves `--record DIR`: a data dir that journals
# reads too and never snapshots. The load mixes reads with writes, each a
# call that succeeds: CreateVpc, CreateSubnet in that vpc, DescribeSubnet
# and ModifySubnetAttribute. After every kill, `lce replay` must verify the
# dir, `lce trace import DIR/wal-00000001.lcw` must turn the session into a
# script, and `lce run` of that script must print no ERR line.
#
# Usage: scripts/crash_torture.sh [LCE_BINARY]
# Env:   CYCLES        kill cycles to run (default 10)
#        TIMERS        1 = virtual-time lane (timer spec + tick load)
#        RECORD        1 = recording lane (--record, reads and writes)
#        ARTIFACT_DIR  where failing data dirs are preserved for upload
#                      (default crash-torture-artifacts)
set -euo pipefail
cd "$(dirname "$0")/.."

LCE="${1:-build/tools/lce}"
CYCLES="${CYCLES:-10}"
TIMERS="${TIMERS:-0}"
RECORD="${RECORD:-0}"
ARTIFACT_DIR="${ARTIFACT_DIR:-crash-torture-artifacts}"

if [[ ! -x "$LCE" ]]; then
  echo "crash_torture: $LCE not found or not executable (build the lce target)" >&2
  exit 2
fi

DATA_DIR="$(mktemp -d)"
LOG="$(mktemp)"
SPEC_FILE="$(mktemp --suffix=.spec 2>/dev/null || mktemp)"
SCRIPT_FILE="$(mktemp)"
RUN_LOG="$(mktemp)"
cleanup() { rm -rf "$DATA_DIR" "$LOG" "$SPEC_FILE" "$SCRIPT_FILE" "$RUN_LOG"; }
trap cleanup EXIT

if [[ "$TIMERS" -eq 1 ]]; then
  # Two clauses — an unconditional launch countdown and a conditional stop
  # countdown — so kills land with both periodic-free and `when`-guarded
  # timers armed.
  cat > "$SPEC_FILE" <<'SPEC'
sm Instance {
  service "ec2";
  id_prefix "i";
  states {
    status: enum(PENDING, RUNNING, STOPPING, STOPPED) = "PENDING"
        after 3 -> FinishLaunch
        after 2 -> FinishStop when "STOPPING";
    zone: str;
  }
  transitions {
    create RunInstance(zone: str) {
      write(zone, zone);
    }
    modify FinishLaunch() {
      write(status, RUNNING);
    }
    modify StopInstance() {
      write(status, STOPPING);
    }
    modify FinishStop() {
      write(status, STOPPED);
    }
    describe DescribeInstance() {
    }
    destroy TerminateInstance() {
    }
  }
}
SPEC
fi

cycle=0
fail() {
  # Preserve the evidence: the data dir that failed verification plus the
  # server log of the killed process.
  mkdir -p "$ARTIFACT_DIR"
  cp -r "$DATA_DIR" "$ARTIFACT_DIR/data-dir-cycle-$cycle" 2>/dev/null || true
  cp "$LOG" "$ARTIFACT_DIR/serve-cycle-$cycle.log" 2>/dev/null || true
  echo "crash_torture: cycle $cycle FAILED: $1" >&2
  echo "crash_torture: failing data dir preserved under $ARTIFACT_DIR/" >&2
  exit 1
}

SERVE_ARGS=(--data-dir "$DATA_DIR" --snapshot-every 40 --no-stdin)
REPLAY_ARGS=("$DATA_DIR")
if [[ "$RECORD" -eq 1 ]]; then
  SERVE_ARGS=(--record "$DATA_DIR" --no-stdin)
fi
if [[ "$TIMERS" -eq 1 ]]; then
  SERVE_ARGS+=(--spec "$SPEC_FILE" --virtual-time)
  REPLAY_ARGS+=(--spec "$SPEC_FILE")
fi

# Start the server and wait for it to announce its ephemeral port (this
# includes recovery of whatever the previous cycle's kill left behind).
# Sets SERVE_PID and PORT.
start_server() {
  : > "$LOG"
  # A tight snapshot cadence makes kills land in rotation windows too
  # (except under RECORD=1, which never snapshots).
  "$LCE" serve "${SERVE_ARGS[@]}" > "$LOG" 2>&1 &
  SERVE_PID=$!
  PORT=""
  for _ in $(seq 1 200); do
    PORT="$(sed -n 's#.*serving on http://127\.0\.0\.1:\([0-9]*\).*#\1#p' "$LOG" | head -1)"
    [[ -n "$PORT" ]] && break
    kill -0 "$SERVE_PID" 2>/dev/null || fail "server died during startup/recovery"
    sleep 0.05
  done
  [[ -n "$PORT" ]] || fail "server never announced a port"
}

stop_server() {
  kill -9 "$SERVE_PID" 2>/dev/null || true
  wait "$SERVE_PID" 2>/dev/null || true
}

# POST one call; prints the response body, fails when the server is gone.
invoke() {
  curl -sf -X POST "http://127.0.0.1:$PORT/invoke" \
    -d "{\"Action\":\"$1\",\"Params\":$2}" 2>/dev/null
}

# The id of the resource a response names, e.g. `created_id vpc "$body"`.
created_id() {
  sed -n "s/.*\"id\":\"\($1-[0-9]*\)\".*/\1/p" <<< "$2"
}

for ((cycle = 1; cycle <= CYCLES; cycle++)); do
  start_server

  # Hammer journaled writes until the kill interrupts one mid-commit.
  (
    i=0
    while :; do
      if [[ "$TIMERS" -eq 1 && $((i % 3)) -eq 2 ]]; then
        # Advance the virtual clock mid-stream: the kill interleaves with
        # journaled timer fires, not just plain writes.
        curl -s -o /dev/null -X POST "http://127.0.0.1:$PORT/admin/tick" \
          -d "{\"Ticks\":1}" 2>/dev/null || exit 0
      elif [[ "$TIMERS" -eq 1 && $((i % 7)) -eq 5 ]]; then
        # Cancel a launch countdown / arm a stop countdown in flight.
        curl -s -o /dev/null -X POST "http://127.0.0.1:$PORT/invoke" \
          -d "{\"Action\":\"StopInstance\",\"Params\":{\"id\":\"i-0000000$((i % 9 + 1))\"}}" \
          2>/dev/null || exit 0
      elif [[ "$TIMERS" -eq 1 ]]; then
        curl -s -o /dev/null -X POST "http://127.0.0.1:$PORT/invoke" \
          -d "{\"Action\":\"RunInstance\",\"Params\":{\"zone\":\"us-east\"}}" \
          2>/dev/null || exit 0
      elif [[ "$RECORD" -eq 1 ]]; then
        # Each step needs the id the previous one minted; a call the kill
        # cut off ends the load.
        body="$(invoke CreateVpc "{\"cidr_block\":\"10.$((i % 200)).0.0/16\"}")" || exit 0
        vpc="$(created_id vpc "$body")"
        [[ -n "$vpc" ]] || exit 0
        body="$(invoke CreateSubnet "{\"vpc\":\"$vpc\",\"cidr_block\":\"10.$((i % 200)).1.0/24\",\"zone\":\"us-east\"}")" || exit 0
        subnet="$(created_id subnet "$body")"
        [[ -n "$subnet" ]] || exit 0
        invoke DescribeSubnet "{\"id\":\"$subnet\"}" > /dev/null || exit 0
        invoke ModifySubnetAttribute \
          "{\"id\":\"$subnet\",\"map_public_ip_on_launch\":true}" > /dev/null || exit 0
      else
        curl -s -o /dev/null -X POST "http://127.0.0.1:$PORT/invoke" \
          -d "{\"Action\":\"CreateVpc\",\"Params\":{\"cidr_block\":\"10.$((i % 200)).0.0/16\"}}" \
          2>/dev/null || exit 0
      fi
      i=$((i + 1))
    done
  ) &
  LOAD_PID=$!

  # Kill at a random point in the write stream (0.1s - 0.5s of load).
  sleep "0.$((RANDOM % 5 + 1))"
  stop_server
  kill "$LOAD_PID" 2>/dev/null || true
  wait "$LOAD_PID" 2>/dev/null || true

  "$LCE" replay "${REPLAY_ARGS[@]}" > /dev/null || fail "replay rejected the data dir"
  if [[ "$RECORD" -eq 1 ]]; then
    "$LCE" trace import "$DATA_DIR/wal-00000001.lcw" "$SCRIPT_FILE" > /dev/null 2>&1 ||
      fail "trace import rejected the recording"
    "$LCE" run "$SCRIPT_FILE" > "$RUN_LOG" || fail "lce run rejected the imported recording"
    if grep -q -- ' -> ERR ' "$RUN_LOG"; then
      fail "the imported recording replayed with an ERR line: $(grep -m1 -- ' -> ERR ' "$RUN_LOG")"
    fi
  fi
done

if [[ "$RECORD" -eq 1 ]]; then
  echo "crash_torture: $CYCLES kill -9 cycle(s) of a recording replayed, imported and re-ran without an error"
elif [[ "$TIMERS" -eq 1 ]]; then
  echo "crash_torture: $CYCLES kill -9 cycle(s) with timers in flight recovered and replayed byte-identically"
else
  echo "crash_torture: $CYCLES kill -9 cycle(s) recovered and verified"
fi
