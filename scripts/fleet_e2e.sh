#!/bin/sh
# fleet_e2e.sh — end-to-end check of distributed sweep execution with a
# mid-sweep worker crash. Two runs of the same 2×2 sweep:
#
#   reference: single-node radiod (-workers 1), sweep runs locally, CSV
#              report captured;
#   fleet:     coordinator-only radiod (-workers -1) plus two -worker
#              processes. A trial-delay fault slows the workers so every
#              child holds its lease for a while; worker w1 is killed with
#              SIGKILL while it holds a lease. The coordinator must declare
#              it dead, re-dispatch its in-flight child to the survivor,
#              and the final CSV report must be byte-identical to the
#              single-node run's.
#
# The re-dispatch is asserted observably: the journal records the
# redispatch op (checked before graceful shutdown compacts it away) and
# /metrics counts at least one redispatch of w1's leases. Run from the repo
# root; used by CI (`make fleet-e2e`) and runnable locally.
set -eu

. "$(dirname "$0")/lib.sh"

ADDR="${ADDR:-127.0.0.1:18082}"
BASE="http://$ADDR"
WORK="$(mktemp -d)"
PID=""
W1PID=""
W2PID=""

cleanup() {
	for p in "$PID" "$W1PID" "$W2PID"; do
		[ -n "$p" ] && kill -9 "$p" 2>/dev/null || true
	done
	rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

go build -o "$WORK/radiod" ./cmd/radiod
go build -o "$WORK/promlint" ./cmd/promlint

# Slow every trial on the workers so the kill reliably lands while w1
# holds a lease; delays never change results.
FAULT_SPEC="$WORK/delay.json"
printf '{"rules": [{"kind": "trial-delay", "delay_ms": 400}]}\n' >"$FAULT_SPEC"

SWEEP='{
  "name": "fleet-e2e",
  "base": {"algorithm": "mis", "network": {"n": 24}, "trials": 2, "stop_when_decided": true},
  "axes": {"n": {"values": [16, 24]}, "gray_prob": {"values": [0.1, 0.3]}}
}'

submit_sweep() {
	curl -sf -X POST "$BASE/v1/sweeps" -d "$SWEEP"
}

sweep_done() {
	curl -sf "$BASE/v1/sweeps/$1" | grep -q '"done": 4'
}

fetch_report() {
	curl -sf "$BASE/v1/sweeps/$1/report?metric=mean_rounds&format=csv"
}

# Reference run: plain single-node daemon, no fleet, no faults.
"$WORK/radiod" -addr "$ADDR" -data "$WORK/data-ref" -workers 1 \
	>"$WORK/radiod.log" 2>&1 &
PID=$!
poll "radiod health" 15 healthy "$BASE"
REF_ID="$(sweep_id "$(submit_sweep)")"
[ -n "$REF_ID" ] || { echo "FAIL: reference sweep not accepted" >&2; exit 1; }
poll "reference sweep completion" 60 sweep_done "$REF_ID"
fetch_report "$REF_ID" >"$WORK/report_ref.csv"
kill "$PID"
wait "$PID" 2>/dev/null || true
PID=""

# Fleet run: coordinator dispatches only to remote workers.
"$WORK/radiod" -addr "$ADDR" -data "$WORK/data-fleet" -workers -1 \
	-fleet-heartbeat 100ms >>"$WORK/radiod.log" 2>&1 &
PID=$!
poll "coordinator health" 15 healthy "$BASE"
"$WORK/radiod" -worker "$BASE" -worker-name w1 -worker-slots 1 \
	-fault-spec "$FAULT_SPEC" >"$WORK/w1.log" 2>&1 &
W1PID=$!
"$WORK/radiod" -worker "$BASE" -worker-name w2 -worker-slots 1 \
	-fault-spec "$FAULT_SPEC" >"$WORK/w2.log" 2>&1 &
W2PID=$!

ID="$(sweep_id "$(submit_sweep)")"
[ -n "$ID" ] || { echo "FAIL: fleet sweep not accepted" >&2; exit 1; }

# Kill -9 w1 the moment the fleet view shows it holding a lease. The
# snapshot is single-line JSON with a fixed field order per worker.
w1_leased() {
	curl -sf "$BASE/v1/fleet" | grep -q '"name":"w1","live":true,"active_leases":[1-9]'
}
poll "w1 to hold a lease" 30 w1_leased
kill -9 "$W1PID"
wait "$W1PID" 2>/dev/null || true
W1PID=""

poll "fleet sweep completion" 120 sweep_done "$ID"

# The re-dispatch must be observable before graceful shutdown compacts the
# journal: a redispatch record on disk and a nonzero counter in /metrics.
grep -q '"op":"redispatch"' "$WORK/data-fleet/journal.ndjson" \
	|| { echo "FAIL: journal holds no redispatch record" >&2; cat "$WORK/data-fleet/journal.ndjson" >&2; exit 1; }
curl -sf "$BASE/metrics" | grep -Eq '^radiod_fleet_worker_redispatched_total\{worker="w1"\} [1-9]' \
	|| { echo "FAIL: /metrics shows no redispatch" >&2; curl -sf "$BASE/metrics" >&2; exit 1; }
curl -sf "$BASE/metrics" | grep -Eq '^radiod_fleet_workers_dead [1-9]' \
	|| { echo "FAIL: /metrics shows no dead worker" >&2; curl -sf "$BASE/metrics" >&2; exit 1; }

# The exposition must lint strictly and carry per-worker labeled series:
# both workers leased and polled, the survivor finished work, and only the
# survivor still reports a heartbeat age (dead workers' gauges are dropped
# at scrape time).
METRICS="$WORK/metrics.txt"
curl -sf "$BASE/metrics" >"$METRICS"
"$WORK/promlint" -min-histograms 1 \
	-require '^radiod_fleet_worker_leases_granted_total\{worker="w1"\} [1-9]' \
	-require '^radiod_fleet_worker_leases_granted_total\{worker="w2"\} [1-9]' \
	-require '^radiod_fleet_worker_rpc_total\{worker="w1",rpc="lease"\} [1-9]' \
	-require '^radiod_fleet_worker_completed_total\{worker="w2"\} [1-9]' \
	-require '^radiod_fleet_worker_heartbeat_age_seconds\{worker="w2"\}' \
	"$METRICS" \
	|| { echo "FAIL: fleet /metrics lacks per-worker series or fails lint" >&2; cat "$METRICS" >&2; exit 1; }
grep -q '^radiod_fleet_worker_heartbeat_age_seconds{worker="w1"}' "$METRICS" \
	&& { echo "FAIL: dead worker w1 still reports a heartbeat age" >&2; cat "$METRICS" >&2; exit 1; }

fetch_report "$ID" >"$WORK/report_fleet.csv"

cmp -s "$WORK/report_ref.csv" "$WORK/report_fleet.csv" || {
	echo "FAIL: fleet report differs from the single-node run" >&2
	diff "$WORK/report_ref.csv" "$WORK/report_fleet.csv" >&2 || true
	exit 1
}

echo "OK: sweep $ID survived kill -9 of a leased worker; re-dispatched to the survivor with a byte-identical report"
