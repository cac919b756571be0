#!/bin/sh
# crash_e2e.sh — end-to-end crash-recovery check against a real radiod
# process. Two runs of the same 2×2 sweep:
#
#   reference: fresh daemon + fresh -data dir, sweep runs uninterrupted,
#              CSV report captured;
#   crashed:   fresh daemon + its own -data dir, daemon killed with SIGKILL
#              mid-sweep (after at least one child finished, before all
#              did), then restarted on the same dir. The journal replay
#              must resume the sweep under its original id — finished
#              children served from the persistent store, the rest
#              re-simulated — and the final CSV report must be
#              byte-identical to the uninterrupted run's.
#
# A trial-delay fault spec slows trials so the kill reliably lands
# mid-sweep; delays never change results. Set FAULT_SPEC to override (e.g.
# scripts/chaos_fault.json via `make chaos` adds transient errors and
# panics, which retry/panic-isolation must absorb without changing the
# report). Run from the repo root; used by CI and runnable locally.
set -eu

. "$(dirname "$0")/lib.sh"

ADDR="${ADDR:-127.0.0.1:18081}"
BASE="http://$ADDR"
WORK="$(mktemp -d)"
PID=""

cleanup() {
	[ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true
	rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

go build -o "$WORK/radiod" ./cmd/radiod

if [ -z "${FAULT_SPEC:-}" ]; then
	FAULT_SPEC="$WORK/delay.json"
	printf '{"rules": [{"kind": "trial-delay", "delay_ms": 120}]}\n' >"$FAULT_SPEC"
fi

# -workers 1 serializes the children so "some done, some not" is a wide,
# reliable kill window; -retry-backoff keeps chaos-spec retries fast.
start_daemon() {
	data="$1"
	"$WORK/radiod" -addr "$ADDR" -data "$data" -workers 1 \
		-fault-spec "$FAULT_SPEC" -retry-backoff 20ms >>"$WORK/radiod.log" 2>&1 &
	PID=$!
	poll "radiod health" 15 healthy "$BASE"
}

stop_daemon() {
	kill "$PID"
	wait "$PID" 2>/dev/null || true
	PID=""
}

SWEEP='{
  "name": "crash-e2e",
  "base": {"algorithm": "mis", "network": {"n": 24}, "trials": 2, "stop_when_decided": true},
  "axes": {"n": {"values": [16, 24]}, "gray_prob": {"values": [0.1, 0.3]}}
}'

submit_sweep() {
	curl -sf -X POST "$BASE/v1/sweeps" -d "$SWEEP"
}

# The detail view also renders each child's "status", so the sweep's own
# completion is detected through its status-counts rollup: all 4 children
# done.
sweep_done() {
	curl -sf "$BASE/v1/sweeps/$1" | grep -q '"done": 4'
}

wait_done() {
	poll "sweep $1 completion" 60 sweep_done "$1"
}

fetch_report() {
	curl -sf "$BASE/v1/sweeps/$1/report?metric=mean_rounds&format=csv"
}

# Reference run: uninterrupted, its own store.
start_daemon "$WORK/data-ref"
REF_ID="$(sweep_id "$(submit_sweep)")"
[ -n "$REF_ID" ] || { echo "FAIL: reference sweep not accepted" >&2; exit 1; }
wait_done "$REF_ID"
fetch_report "$REF_ID" >"$WORK/report_ref.csv"
stop_daemon

# Crash run: kill -9 once the sweep is strictly mid-flight.
start_daemon "$WORK/data-crash"
ID="$(sweep_id "$(submit_sweep)")"
[ -n "$ID" ] || { echo "FAIL: crash-run sweep not accepted" >&2; exit 1; }
KILLED=0
DEADLINE=$(($(date +%s) + 60))
while [ "$(date +%s)" -lt "$DEADLINE" ]; do
	COUNTS="$(curl -sf "$BASE/v1/sweeps/$ID" || true)"
	if printf '%s' "$COUNTS" | grep -q '"done": 4'; then
		break
	fi
	if printf '%s' "$COUNTS" | grep -Eq '"done": [1-3]'; then
		kill -9 "$PID"
		wait "$PID" 2>/dev/null || true
		PID=""
		KILLED=1
		break
	fi
	sleep 0.05
done
[ "$KILLED" -eq 1 ] || { echo "FAIL: sweep finished before the kill window" >&2; exit 1; }

# Restart on the crashed store: the journal must resume the sweep.
start_daemon "$WORK/data-crash"
curl -sf "$BASE/metrics" | grep -q '^radiod_replayed_sweeps 1$' \
	|| { echo "FAIL: restart did not replay the sweep" >&2; curl -sf "$BASE/metrics" >&2; exit 1; }
curl -sf "$BASE/v1/sweeps/$ID" >/dev/null \
	|| { echo "FAIL: resumed sweep lost its id $ID" >&2; exit 1; }
wait_done "$ID"
fetch_report "$ID" >"$WORK/report_crash.csv"
stop_daemon

cmp -s "$WORK/report_ref.csv" "$WORK/report_crash.csv" || {
	echo "FAIL: post-crash report differs from the uninterrupted run" >&2
	diff "$WORK/report_ref.csv" "$WORK/report_crash.csv" >&2 || true
	exit 1
}

echo "OK: sweep $ID survived kill -9 mid-run; resumed report is byte-identical to the uninterrupted run"
