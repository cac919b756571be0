package server

import (
	"encoding/json"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"dualradio/internal/harness"
	"dualradio/internal/metrics"
)

// TestMetricsExpositionLints: after real traffic — a run job, a cache hit,
// a sweep — the /metrics exposition must pass the strict format linter and
// carry the instrument families the e2e tooling asserts on: the latency
// histograms, the cache counters, and the gauges.
func TestMetricsExpositionLints(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, DataDir: t.TempDir()})
	job, err := svc.Submit(quickSpec(2, 71))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, job, StatusDone)
	again, err := svc.Submit(quickSpec(2, 71)) // cache hit
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, again, StatusDone)
	sw, err := svc.SubmitSweep(quickSweep(2))
	if err != nil {
		t.Fatal(err)
	}
	waitSweep(t, sw)

	code, body := getText(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("GET /metrics: status %d", code)
	}
	stats, err := metrics.Lint([]byte(body))
	if err != nil {
		t.Fatalf("exposition fails lint: %v\n%s", err, body)
	}
	if stats.Histograms < 3 {
		t.Fatalf("exposition has %d histograms, want >= 3", stats.Histograms)
	}
	for _, want := range []string{
		"# TYPE radiod_queue_wait_seconds histogram",
		"# TYPE radiod_job_duration_seconds histogram",
		"# TYPE radiod_trial_duration_seconds histogram",
		"# TYPE radiod_journal_append_seconds histogram",
		"# TYPE radiod_store_put_seconds histogram",
		"# TYPE radiod_cache_hits_total counter",
		"radiod_trials_completed_total ",
		"radiod_queued ",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition lacks %q:\n%s", want, body)
		}
	}
	// Two scrapes must agree on line order (values may move). A series may
	// first appear between the scrapes — a sweep child's job-duration
	// observation can land after waitSweep returns — so order is compared
	// over the series present in both.
	_, body2 := getText(t, ts.URL+"/metrics")
	names := func(s string) []string {
		var out []string
		for _, line := range strings.Split(s, "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			out = append(out, line[:strings.LastIndexByte(line, ' ')])
		}
		return out
	}
	// common returns the names in a that b also has, in a's order.
	common := func(a, b []string) []string {
		inB := make(map[string]bool, len(b))
		for _, n := range b {
			inB[n] = true
		}
		var out []string
		for _, n := range a {
			if inB[n] {
				out = append(out, n)
			}
		}
		return out
	}
	first, second := names(body), names(body2)
	if a, b := common(first, second), common(second, first); !reflect.DeepEqual(a, b) {
		t.Fatalf("scrape order unstable:\n%v\nvs\n%v", a, b)
	}
	// The cache counters moved: the resubmission and the sweep recheck hit.
	if !strings.Contains(body, "radiod_cache_hits_total") {
		t.Fatal("no cache-hit counter after a cached resubmission")
	}
}

// TestInstanceCacheGauges: after a sweep has run, /metrics reports the
// instance memo it drew its networks from — some instances resident, and
// their bytes positive and within the memo's budget.
func TestInstanceCacheGauges(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 2})
	sw, err := svc.SubmitSweep(quickSweep(3))
	if err != nil {
		t.Fatal(err)
	}
	waitSweep(t, sw)
	_, body := getText(t, ts.URL+"/metrics")
	gauge := func(name string) float64 {
		t.Helper()
		for _, line := range strings.Split(body, "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatalf("%s: %v", line, err)
				}
				return f
			}
		}
		t.Fatalf("exposition lacks %s:\n%s", name, body)
		return 0
	}
	if b := gauge("radiod_instance_cache_bytes"); b <= 0 || b > harness.InstanceCacheBudget {
		t.Errorf("radiod_instance_cache_bytes = %v, want in (0, %d]", b, harness.InstanceCacheBudget)
	}
	if e := gauge("radiod_instance_cache_entries"); e < 1 {
		t.Errorf("radiod_instance_cache_entries = %v, want >= 1", e)
	}
}

// TestJobPhaseTimingsAndEvent: a finished job exposes a coherent phase
// breakdown in its view and emits it as a "phases" NDJSON event just
// before the terminal event; every event carries a wallclock ts.
func TestJobPhaseTimingsAndEvent(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})
	job, err := svc.Submit(quickSpec(2, 72))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, job, StatusDone)

	v := job.View(false)
	if v.Phases == nil {
		t.Fatal("terminal job has no phase breakdown")
	}
	p := v.Phases
	for name, ms := range map[string]float64{
		"queue_wait": p.QueueWaitMS, "trials": p.TrialsMS,
		"reduce": p.ReduceMS, "persist": p.PersistMS, "total": p.TotalMS,
	} {
		if ms < 0 {
			t.Fatalf("phase %s is negative: %v", name, ms)
		}
	}
	if p.TotalMS <= 0 {
		t.Fatal("total phase must be positive for a run job")
	}
	parts := p.QueueWaitMS + p.TrialsMS + p.ReduceMS + p.PersistMS
	if parts > p.TotalMS+1 { // 1ms slack for clock rounding
		t.Fatalf("phase parts %.3fms exceed total %.3fms", parts, p.TotalMS)
	}

	events := streamEvents(t, ts.URL+"/v1/jobs/"+job.id+"/events")
	var phases *Event
	for i := range events {
		if events[i].TS.IsZero() {
			t.Fatalf("event %q lacks a wallclock ts", events[i].Type)
		}
		if events[i].Type == "phases" {
			phases = &events[i]
		}
	}
	if phases == nil || phases.Phases == nil {
		t.Fatalf("no phases event in %v", eventTypes(events))
	}
	if phases.Phases.TotalMS != p.TotalMS {
		t.Fatalf("phases event total %v != view total %v", phases.Phases.TotalMS, p.TotalMS)
	}
	if last := events[len(events)-1]; last.Type != "done" {
		t.Fatalf("phases event must precede the terminal event, got %v", eventTypes(events))
	}
}

// TestSweepStatsEndpoint: per-sweep phase rollups over the terminal
// children, with cached children counted so readers can interpret the
// near-zero totals they contribute.
func TestSweepStatsEndpoint(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})
	sw, err := svc.SubmitSweep(quickSweep(2))
	if err != nil {
		t.Fatal(err)
	}
	waitSweep(t, sw)

	code, stats := getJSON[SweepStats](t, ts.URL+"/v1/sweeps/"+sw.id+"/stats")
	if code != 200 {
		t.Fatalf("GET stats: status %d", code)
	}
	if stats.ID != sw.id || stats.Total != sw.total {
		t.Fatalf("stats identity wrong: %+v", stats)
	}
	if stats.Terminal != stats.Total {
		t.Fatalf("finished sweep reports %d/%d terminal children", stats.Terminal, stats.Total)
	}
	if stats.Counts[StatusDone] != stats.Total {
		t.Fatalf("status counts %v, want all done", stats.Counts)
	}
	for _, phase := range []string{"queue_wait", "trials", "reduce", "persist", "total"} {
		ps, ok := stats.Phases[phase]
		if !ok {
			t.Fatalf("stats lack phase %q: %+v", phase, stats.Phases)
		}
		if ps.Count != stats.Total {
			t.Fatalf("phase %q folded %d children, want %d", phase, ps.Count, stats.Total)
		}
		if ps.MinMS > ps.MeanMS+1e-9 || ps.MeanMS > ps.MaxMS+1e-9 {
			t.Fatalf("phase %q not min<=mean<=max: %+v", phase, ps)
		}
		if got := ps.SumMS / float64(ps.Count); got != ps.MeanMS {
			t.Fatalf("phase %q mean %v != sum/count %v", phase, ps.MeanMS, got)
		}
	}
	if stats.Phases["total"].MinMS <= 0 {
		t.Fatalf("run children must have positive totals: %+v", stats.Phases["total"])
	}
}

// TestWallclockStampsAreHashNeutral is the differential check behind the
// ts fields: records written at different wallclock times must carry
// different stamps yet identical canonical content — same spec hash, same
// result bytes, same replay behavior.
func TestWallclockStampsAreHashNeutral(t *testing.T) {
	spec := quickSpec(2, 73)

	run := func() (JobView, []Event) {
		svc, ts := newTestServer(t, Config{Workers: 1})
		job, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, job, StatusDone)
		return job.View(true), streamEvents(t, ts.URL+"/v1/jobs/"+job.id+"/events")
	}
	v1, e1 := run()
	time.Sleep(5 * time.Millisecond) // distinct wallclock window
	v2, e2 := run()

	if v1.SpecHash != v2.SpecHash {
		t.Fatalf("spec hash drifted across wallclocks: %s vs %s", v1.SpecHash, v2.SpecHash)
	}
	r1, _ := json.Marshal(v1.Result)
	r2, _ := json.Marshal(v2.Result)
	if string(r1) != string(r2) {
		t.Fatalf("result bytes drifted across wallclocks:\n%s\nvs\n%s", r1, r2)
	}
	if !reflect.DeepEqual(eventTypes(e1), eventTypes(e2)) {
		t.Fatalf("event shapes drifted: %v vs %v", eventTypes(e1), eventTypes(e2))
	}
	if e1[0].TS.Equal(e2[0].TS) {
		t.Fatal("distinct runs share a wallclock stamp; ts is not being stamped")
	}

	// Replay ignores ts entirely: a journal whose stamps are rewritten to a
	// bogus fixed time replays exactly like the original.
	dir := t.TempDir()
	writeJournalLines(t, dir,
		journalRecord{Op: opAccept, ID: "j000004", Spec: rawSpec(t, spec), TS: time.Now()})
	data, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	mangled := strings.ReplaceAll(string(data), time.Now().Format("2006-01-02"), "1999-12-31")
	if mangled == string(data) {
		t.Fatal("journal ts was not rewritten; the differential proves nothing")
	}
	if err := os.WriteFile(journalPath(dir), []byte(mangled), 0o644); err != nil {
		t.Fatal(err)
	}
	svc, _ := newTestServer(t, Config{Workers: 1, DataDir: dir})
	job, ok := svc.Job("j000004")
	if !ok {
		t.Fatal("ts-mangled journal was not replayed")
	}
	waitJob(t, job, StatusDone)
	if job.View(false).SpecHash != v1.SpecHash {
		t.Fatal("replayed job's canonical hash drifted under a mangled ts")
	}
}
