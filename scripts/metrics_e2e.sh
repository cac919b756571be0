#!/bin/sh
# metrics_e2e.sh — end-to-end observability check against a real radiod.
#
#   1. Boot a daemon with a temp -data dir and run the mis-quick preset
#      twice: the first run simulates, the identical resubmission must be
#      served from the result cache.
#   2. Lint the /metrics exposition with cmd/promlint: strict format
#      (HELP/TYPE, escapes, no duplicates, coherent cumulative histograms),
#      at least three histogram families, and the instance-memo gauges
#      (the preset's instances are resident).
#   3. Assert the cache hit/miss counters moved, the latency histograms
#      observed the run (positive counts and sums), and the job's phase
#      breakdown is monotone (each phase >= 0, parts sum <= total).
#   4. Run a 2x2 sweep and assert /v1/sweeps/{id}/stats rolls all four
#      children up into per-phase stats.
#
# Run from the repo root; used by CI (`make metrics-e2e`) and runnable
# locally.
set -eu

. "$(dirname "$0")/lib.sh"

ADDR="${ADDR:-127.0.0.1:18083}"
BASE="http://$ADDR"
WORK="$(mktemp -d)"
PID=""

cleanup() {
	[ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true
	rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

go build -o "$WORK/radiod" ./cmd/radiod
go build -o "$WORK/promlint" ./cmd/promlint

"$WORK/radiod" -addr "$ADDR" -data "$WORK/data" -workers 1 \
	>"$WORK/radiod.log" 2>&1 &
PID=$!
poll "radiod health" 15 healthy "$BASE"

job_id() {
	printf '%s' "$1" | sed -n 's/.*"id": "\(j[0-9]*\)".*/\1/p' | head -n 1
}
job_done() {
	curl -sf "$BASE/v1/jobs/$1" | grep -q '"status": "done"'
}

# Run 1 simulates; run 2 is the same canonical spec and must hit the cache.
J1="$(job_id "$(curl -sf -X POST "$BASE/v1/jobs" -d '{"preset":"mis-quick"}')")"
[ -n "$J1" ] || { echo "FAIL: first job not accepted" >&2; exit 1; }
poll "first job completion" 60 job_done "$J1"
J2="$(job_id "$(curl -sf -X POST "$BASE/v1/jobs" -d '{"preset":"mis-quick"}')")"
[ -n "$J2" ] || { echo "FAIL: second job not accepted" >&2; exit 1; }
poll "second job completion" 30 job_done "$J2"
curl -sf "$BASE/v1/jobs/$J2" | grep -q '"cached": true' \
	|| { echo "FAIL: identical resubmission was not cache-served" >&2; exit 1; }

# Strict exposition lint: format, >=3 histogram families, the latency
# histograms, and the instance-memo gauges.
METRICS="$WORK/metrics.txt"
curl -sf "$BASE/metrics" >"$METRICS"
"$WORK/promlint" -min-histograms 3 \
	-require '^radiod_queue_wait_seconds_count' \
	-require '^radiod_trial_duration_seconds_count' \
	-require '^radiod_job_duration_seconds_sum' \
	-require '^radiod_journal_append_seconds_count [1-9]' \
	-require '^radiod_store_put_seconds_count [1-9]' \
	-require '^radiod_instance_cache_bytes [1-9]' \
	-require '^radiod_instance_cache_entries [1-9]' \
	"$METRICS" \
	|| { echo "FAIL: /metrics fails lint" >&2; cat "$METRICS" >&2; exit 1; }

# The cache tiers were both exercised: run 1 missed, run 2 hit.
grep -Eq '^radiod_cache_hits_total [1-9]' "$METRICS" \
	|| { echo "FAIL: no cache hit counted" >&2; cat "$METRICS" >&2; exit 1; }
grep -Eq '^radiod_cache_misses_total [1-9]' "$METRICS" \
	|| { echo "FAIL: no cache miss counted" >&2; cat "$METRICS" >&2; exit 1; }

# The run job landed in the latency histograms with a positive sum.
grep -Eq '^radiod_job_duration_seconds_count\{[^}]*\} [1-9]' "$METRICS" \
	|| { echo "FAIL: job-duration histogram observed nothing" >&2; cat "$METRICS" >&2; exit 1; }
awk '/^radiod_job_duration_seconds_sum/ { if ($NF + 0 > 0) found = 1 }
	END { exit !found }' "$METRICS" \
	|| { echo "FAIL: job-duration histogram sum is not positive" >&2; cat "$METRICS" >&2; exit 1; }

# Phase breakdown: present on the terminal job, every phase non-negative,
# parts sum bounded by the total (1ms slack for clock rounding).
curl -sf "$BASE/v1/jobs/$J1" >"$WORK/job.json"
awk -F': ' '
	/"queue_wait_ms"/ { qw = $2 + 0 }
	/"trials_ms"/     { tr = $2 + 0 }
	/"reduce_ms"/     { rd = $2 + 0 }
	/"persist_ms"/    { ps = $2 + 0 }
	/"total_ms"/      { tot = $2 + 0; seen = 1 }
	END {
		if (!seen) { print "no phase breakdown"; exit 1 }
		if (qw < 0 || tr < 0 || rd < 0 || ps < 0 || tot <= 0) { print "negative phase"; exit 1 }
		if (qw + tr + rd + ps > tot + 1) { print "phases exceed total"; exit 1 }
	}' "$WORK/job.json" \
	|| { echo "FAIL: phase breakdown missing or incoherent" >&2; cat "$WORK/job.json" >&2; exit 1; }
curl -sf "$BASE/v1/jobs/$J1/events" | grep -q '"type":"phases"' \
	|| { echo "FAIL: event stream has no phases event" >&2; exit 1; }

# Sweep stats: all four children fold into every phase rollup.
SWEEP='{
  "base": {"algorithm": "mis", "network": {"n": 16}, "trials": 2, "stop_when_decided": true},
  "axes": {"n": {"values": [12, 16]}, "gray_prob": {"values": [0.1, 0.3]}}
}'
SID="$(sweep_id "$(curl -sf -X POST "$BASE/v1/sweeps" -d "$SWEEP")")"
[ -n "$SID" ] || { echo "FAIL: sweep not accepted" >&2; exit 1; }
sweep_done() {
	curl -sf "$BASE/v1/sweeps/$1" | grep -q '"status": "done"'
}
poll "sweep completion" 60 sweep_done "$SID"
curl -sf "$BASE/v1/sweeps/$SID/stats" >"$WORK/stats.json"
grep -q '"terminal": 4' "$WORK/stats.json" \
	|| { echo "FAIL: sweep stats do not cover all children" >&2; cat "$WORK/stats.json" >&2; exit 1; }
for phase in queue_wait trials reduce persist total; do
	grep -q "\"$phase\"" "$WORK/stats.json" \
		|| { echo "FAIL: sweep stats lack phase $phase" >&2; cat "$WORK/stats.json" >&2; exit 1; }
done

echo "OK: /metrics lints with histograms, cache counters and phase timings are coherent, sweep stats roll up"
