package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dualradio/internal/scenario"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	t.Cleanup(func() {
		svc.Close()
		ts.Close()
	})
	return svc, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, payload
}

func getJSON[T any](t *testing.T, url string) (int, T) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode, v
}

// metricValue scrapes base's /metrics and returns the value of the
// unlabeled series name.
func metricValue(t *testing.T, base, name string) float64 {
	t.Helper()
	_, body := getText(t, base+"/metrics")
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics lacks %s:\n%s", name, body)
	return 0
}

// quickSpec is a fast MIS workload (~ms per trial).
func quickSpec(trials int, seed uint64) scenario.Spec {
	return scenario.Spec{
		Algorithm:       scenario.AlgoMIS,
		Network:         scenario.NetworkSpec{N: 32},
		Trials:          trials,
		Seed:            seed,
		StopWhenDecided: true,
	}
}

func waitForStatus(t *testing.T, url string, want JobStatus) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, view := getJSON[JobView](t, url)
		if code != http.StatusOK {
			t.Fatalf("GET %s: status %d", url, code)
		}
		if view.Status == want {
			return view
		}
		if view.Status.terminal() {
			t.Fatalf("job reached terminal status %q, want %q", view.Status, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q waiting for %q", view.Status, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestJobLifecycleSubmitPollStreamResult(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/jobs", quickSpec(2, 1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, body)
	}
	var accepted JobView
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	if accepted.ID == "" || accepted.Total != 2 || accepted.SpecHash == "" {
		t.Fatalf("bad accepted view: %+v", accepted)
	}

	jobURL := ts.URL + "/v1/jobs/" + accepted.ID
	done := waitForStatus(t, jobURL, StatusDone)
	if done.Result == nil {
		t.Fatal("done job has no result")
	}
	if done.Cached {
		t.Fatal("first run reported as cached")
	}
	if len(done.Result.Trials) != 2 || done.Result.SpecHash != accepted.SpecHash {
		t.Fatalf("bad result: %+v", done.Result)
	}
	if done.Completed != 2 {
		t.Fatalf("completed = %d, want 2", done.Completed)
	}

	// The event stream replays history and ends after the terminal event.
	// Each trial is followed by a streaming "aggregate" event covering the
	// folded prefix (with one trial worker, trials fold in order, so every
	// trial advances the fold).
	events := streamEvents(t, jobURL+"/events")
	types := eventTypes(events)
	want := []string{"queued", "started", "trial", "aggregate", "trial", "aggregate", "phases", "done"}
	if !reflect.DeepEqual(types, want) {
		t.Fatalf("event sequence %v, want %v", types, want)
	}
	var lastAgg *scenario.Aggregate
	for _, e := range events {
		if e.Type == "trial" && e.Trial == nil {
			t.Fatal("trial event without a trial result")
		}
		if e.Type == "aggregate" {
			if e.Aggregate == nil || e.Folded == 0 || e.Aggregate.Trials != e.Folded {
				t.Fatalf("malformed aggregate event: %+v", e)
			}
			lastAgg = e.Aggregate
		}
	}
	// The final streamed aggregate is the result's aggregate exactly.
	if lastAgg == nil || *lastAgg != done.Result.Aggregate {
		t.Fatalf("final streamed aggregate %+v != result aggregate %+v",
			lastAgg, done.Result.Aggregate)
	}

	// The job listing shows the job without the result payload.
	code, list := getJSON[struct{ Jobs []JobView }](t, ts.URL+"/v1/jobs")
	if code != http.StatusOK || len(list.Jobs) != 1 || list.Jobs[0].Result != nil {
		t.Fatalf("bad listing: code %d, %+v", code, list)
	}
}

func TestIdenticalResubmissionServedFromCache(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	_, body := postJSON(t, ts.URL+"/v1/jobs", quickSpec(2, 1))
	var first JobView
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	firstDone := waitForStatus(t, ts.URL+"/v1/jobs/"+first.ID, StatusDone)

	// Same workload, cosmetically different spec: name differs, defaults
	// spelled out. Must hash identically and be served from the cache.
	respec := quickSpec(2, 1)
	respec.Name = "same workload, different JSON"
	respec.Adversary.Kind = scenario.AdvCollision
	_, body = postJSON(t, ts.URL+"/v1/jobs", respec)
	var second JobView
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	secondDone := waitForStatus(t, ts.URL+"/v1/jobs/"+second.ID, StatusDone)
	if !secondDone.Cached {
		t.Fatal("identical resubmission was not served from the cache")
	}
	if !reflect.DeepEqual(firstDone.Result, secondDone.Result) {
		t.Fatal("cached result differs from the original")
	}
	// A cache-served job's stream has no started/trial events.
	types := eventTypes(streamEvents(t, ts.URL+"/v1/jobs/"+second.ID+"/events"))
	if !reflect.DeepEqual(types, []string{"queued", "phases", "done"}) {
		t.Fatalf("cached job events %v, want [queued phases done]", types)
	}
}

func TestCancelMidJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	// Enough trials that the job is still running when the cancel lands.
	_, body := postJSON(t, ts.URL+"/v1/jobs", quickSpec(4000, 1))
	var view JobView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	jobURL := ts.URL + "/v1/jobs/" + view.ID

	// Follow the stream until the first completed trial proves the job is
	// mid-flight.
	resp, err := http.Get(jobURL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sawTrial := false
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		if e.Type == "trial" {
			sawTrial = true
			break
		}
	}
	if !sawTrial {
		t.Fatal("stream ended before any trial completed")
	}

	req, _ := http.NewRequest(http.MethodDelete, jobURL, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", dresp.StatusCode)
	}

	cancelled := waitForStatus(t, jobURL, StatusCancelled)
	if cancelled.Completed >= cancelled.Total {
		t.Fatalf("cancelled job completed all %d trials", cancelled.Total)
	}
	if cancelled.Result != nil {
		t.Fatal("cancelled job carries a result")
	}
	// The open stream observes the terminal event and ends.
	sawCancelled := false
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		if e.Type == "cancelled" {
			sawCancelled = true
		}
	}
	if !sawCancelled {
		t.Fatal("event stream never delivered the cancelled event")
	}
}

func TestCancelQueuedJob(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	// Occupy the only worker...
	blocker, err := svc.Submit(quickSpec(4000, 99))
	if err != nil {
		t.Fatal(err)
	}
	// ...then cancel a job that never leaves the queue.
	queued, err := svc.Submit(quickSpec(2, 100))
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitForStatus(t, ts.URL+"/v1/jobs/"+queued.id, StatusCancelled)
	types := eventTypes(streamEvents(t, ts.URL+"/v1/jobs/"+queued.id+"/events"))
	if !reflect.DeepEqual(types, []string{"queued", "phases", "cancelled"}) {
		t.Fatalf("queued-cancel events %v, want [queued phases cancelled]", types)
	}
	blocker.Cancel()
}

func TestConcurrentSubmissions(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	const submitters = 8
	ids := make([]string, submitters)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Distinct seeds: genuinely different workloads.
			resp, body := postJSON(t, ts.URL+"/v1/jobs", quickSpec(2, uint64(1+g)))
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("submitter %d: status %d, body %s", g, resp.StatusCode, body)
				return
			}
			var view JobView
			if err := json.Unmarshal(body, &view); err != nil {
				t.Errorf("submitter %d: %v", g, err)
				return
			}
			ids[g] = view.ID
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	seen := map[string]bool{}
	for g, id := range ids {
		if id == "" || seen[id] {
			t.Fatalf("submitter %d got duplicate/empty id %q", g, id)
		}
		seen[id] = true
		done := waitForStatus(t, ts.URL+"/v1/jobs/"+id, StatusDone)
		if done.Result == nil || len(done.Result.Trials) != 2 {
			t.Fatalf("job %s: bad result %+v", id, done.Result)
		}
		if done.Result.Aggregate.ValidFraction == 0 {
			t.Errorf("job %s: no valid trials", id)
		}
	}
}

func TestQueueFullRejectsWith503(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	// One long job occupies the worker, a second fills the queue.
	j1, err := svc.Submit(quickSpec(4000, 1))
	if err != nil {
		t.Fatal(err)
	}
	var j2 *Job
	// The worker may briefly not have dequeued j1 yet; retry until the
	// queue slot frees.
	deadline := time.Now().Add(10 * time.Second)
	for {
		j2, err = svc.Submit(quickSpec(4000, 2))
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("second submission never fit the queue: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp, body := postJSON(t, ts.URL+"/v1/jobs", quickSpec(4000, 3))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submission: status %d, body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "queue full") {
		t.Fatalf("overflow error body %s", body)
	}
	// The rejected job must not appear in the listing.
	code, list := getJSON[struct{ Jobs []JobView }](t, ts.URL+"/v1/jobs")
	if code != http.StatusOK || len(list.Jobs) != 2 {
		t.Fatalf("listing after overflow: code %d, %d jobs (want 2)", code, len(list.Jobs))
	}
	j1.Cancel()
	j2.Cancel()
}

func TestSubmitVariantsAndErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	// Preset reference.
	resp, body := postJSON(t, ts.URL+"/v1/jobs", map[string]string{"preset": "mis-quick"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("preset submit: status %d, body %s", resp.StatusCode, body)
	}
	var view JobView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if view.Spec.Name != "mis-quick" || view.Spec.Network.N != 64 {
		t.Fatalf("preset submit spec: %+v", view.Spec)
	}
	waitForStatus(t, ts.URL+"/v1/jobs/"+view.ID, StatusDone)

	// Wrapped spec.
	resp, _ = postJSON(t, ts.URL+"/v1/jobs", map[string]any{"spec": quickSpec(1, 5)})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("wrapped submit: status %d", resp.StatusCode)
	}

	for name, tc := range map[string]struct {
		body any
		want int
	}{
		"unknown preset":  {map[string]string{"preset": "nope"}, http.StatusBadRequest},
		"invalid spec":    {map[string]any{"algorithm": "mis", "network": map[string]int{"n": 0}}, http.StatusBadRequest},
		"preset and spec": {map[string]any{"preset": "mis-quick", "spec": quickSpec(1, 1)}, http.StatusBadRequest},
		"junk field":      {map[string]any{"algorithm": "mis", "network": map[string]int{"n": 32}, "trails": 3}, http.StatusBadRequest},
		// The wrapped form must be exactly as strict as the bare form.
		"junk field wrapped": {map[string]any{"spec": map[string]any{
			"algorithm": "mis", "network": map[string]int{"n": 32}, "trails": 3}}, http.StatusBadRequest},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/jobs", tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d (want %d), body %s", name, resp.StatusCode, tc.want, body)
		}
	}

	// Unknown job id.
	code, _ := getJSON[map[string]string](t, ts.URL+"/v1/jobs/j999999")
	if code != http.StatusNotFound {
		t.Fatalf("unknown job: status %d", code)
	}
}

func TestHealthzAndPresets(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 7})
	code, health := getJSON[map[string]any](t, ts.URL+"/healthz")
	if code != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, health)
	}
	if health["spec_version"] == nil || len(health) != 2 {
		t.Fatalf("healthz %v, want exactly status and spec_version", health)
	}
	if metricValue(t, ts.URL, "radiod_queue_depth") != 7 || metricValue(t, ts.URL, "radiod_workers") != 2 {
		t.Fatal("/metrics lost the configured queue depth or worker count")
	}
	code, presets := getJSON[struct{ Presets []scenario.Preset }](t, ts.URL+"/v1/presets")
	if code != http.StatusOK || len(presets.Presets) == 0 {
		t.Fatalf("presets: %d, %d entries", code, len(presets.Presets))
	}
	for _, p := range presets.Presets {
		if p.Name == "" || p.Description == "" {
			t.Fatalf("preset missing name/description: %+v", p)
		}
	}
}

func TestTerminalJobsPrunedBeyondHistory(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, History: 2})
	var ids []string
	for seed := uint64(1); seed <= 4; seed++ {
		_, body := postJSON(t, ts.URL+"/v1/jobs", quickSpec(1, seed))
		var view JobView
		if err := json.Unmarshal(body, &view); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, view.ID)
		waitForStatus(t, ts.URL+"/v1/jobs/"+view.ID, StatusDone)
	}
	// Submitting the 4th job found 3 terminal jobs, one over History: the
	// oldest was pruned.
	code, _ := getJSON[map[string]string](t, ts.URL+"/v1/jobs/"+ids[0])
	if code != http.StatusNotFound {
		t.Fatalf("oldest terminal job still served: status %d", code)
	}
	code, list := getJSON[struct{ Jobs []JobView }](t, ts.URL+"/v1/jobs")
	if code != http.StatusOK || len(list.Jobs) != 3 {
		t.Fatalf("listing after prune: code %d, %d jobs (want 3)", code, len(list.Jobs))
	}
	for _, j := range list.Jobs {
		if j.ID == ids[0] {
			t.Fatalf("pruned job %s still listed", ids[0])
		}
	}
}

func TestQueueDelayedCacheHitKeepsCachedEventShape(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})
	// Two identical jobs: the second sits queued until the first finishes,
	// then must be cache-served with the queued → done event shape (no
	// "started", no trials).
	first, err := svc.Submit(quickSpec(2, 42))
	if err != nil {
		t.Fatal(err)
	}
	second, err := svc.Submit(quickSpec(2, 42))
	if err != nil {
		t.Fatal(err)
	}
	waitForStatus(t, ts.URL+"/v1/jobs/"+first.id, StatusDone)
	done := waitForStatus(t, ts.URL+"/v1/jobs/"+second.id, StatusDone)
	if !done.Cached {
		t.Fatal("queue-delayed identical job was not cache-served")
	}
	types := eventTypes(streamEvents(t, ts.URL+"/v1/jobs/"+second.id+"/events"))
	if !reflect.DeepEqual(types, []string{"queued", "phases", "done"}) {
		t.Fatalf("queue-delayed cached job events %v, want [queued phases done]", types)
	}
}

func TestCloseCancelsRunningJobs(t *testing.T) {
	svc, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	job, err := svc.Submit(quickSpec(4000, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the job to start.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if v := job.View(false); v.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	svc.Close()
	if v := job.View(false); v.Status != StatusCancelled {
		t.Fatalf("after Close job status = %q, want cancelled", v.Status)
	}
	if _, err := svc.Submit(quickSpec(1, 1)); err == nil {
		t.Fatal("closed server accepted a submission")
	}
}

// TestPruneEvictsOldestTerminalFirst pins pruneLocked's eviction policy:
// strictly oldest-submission-first among terminal jobs, driven by the
// append-only order slice — never map iteration order — with live jobs
// immune regardless of age. The surviving set is therefore deterministic.
func TestPruneEvictsOldestTerminalFirst(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 2, History: 2, MaxPendingCost: 1 << 40})
	// The oldest job overall stays live for the whole test (n=256 × 4096
	// trials takes far longer than the quick jobs below; one worker runs
	// it, the other serves the rest): pruning must skip over it, not
	// protect younger terminal jobs behind it.
	live, err := svc.Submit(scenario.Spec{
		Algorithm:       scenario.AlgoMIS,
		Network:         scenario.NetworkSpec{N: 256},
		Trials:          4096,
		Seed:            50,
		StopWhenDecided: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Cancel()
	var ids []string
	for seed := uint64(51); seed <= 55; seed++ {
		job, err := svc.Submit(quickSpec(1, seed))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.id)
		waitForStatus(t, ts.URL+"/v1/jobs/"+job.id, StatusDone)
	}
	// Pruning runs at submission: the 4th and 5th quick submissions each
	// found three terminal jobs (one over History) and evicted exactly the
	// oldest terminal one — ids[0], then ids[1]. Everything younger
	// survives; nothing else may be touched.
	for i, id := range ids {
		code, _ := getJSON[map[string]any](t, ts.URL+"/v1/jobs/"+id)
		want := http.StatusOK
		if i < 2 {
			want = http.StatusNotFound
		}
		if code != want {
			t.Errorf("job %d (%s): status %d, want %d", i, id, code, want)
		}
	}
	// The live job survived every prune despite being the oldest.
	if v := live.View(false); v.Status.terminal() {
		t.Fatalf("live job reached %q unexpectedly", v.Status)
	}
	if _, ok := svc.Job(live.id); !ok {
		t.Fatal("live job was pruned")
	}
}

// TestCancelledJobNeverPopulatesCacheOrStore locks the cache-insert
// contract: only fully completed runs are stored under the spec hash, so
// cancelling a job mid-run must leave both the LRU and the persistent
// store empty, and resubmitting the same spec must re-simulate from
// scratch to full completion rather than serve the victim's partial state.
func TestCancelledJobNeverPopulatesCacheOrStore(t *testing.T) {
	spec := quickSpec(800, 31)
	svc, ts := newTestServer(t, Config{Workers: 1, DataDir: t.TempDir()})
	_, body := postJSON(t, ts.URL+"/v1/jobs", spec)
	var first JobView
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	jobURL := ts.URL + "/v1/jobs/" + first.ID

	// Follow the stream until a completed trial proves the job mid-flight.
	resp, err := http.Get(jobURL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	sawTrial := false
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		if e.Type == "trial" {
			sawTrial = true
			break
		}
	}
	resp.Body.Close()
	if !sawTrial {
		t.Fatal("stream ended before any trial completed")
	}
	req, _ := http.NewRequest(http.MethodDelete, jobURL, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	cancelled := waitForStatus(t, jobURL, StatusCancelled)
	if cancelled.Completed >= cancelled.Total {
		t.Skip("job finished before the cancel landed; nothing partial to guard")
	}

	// Neither cache nor store may hold anything under the spec hash.
	if _, ok := svc.results.Peek(first.SpecHash); ok {
		t.Fatal("cancelled job's partial result entered the LRU")
	}
	if svc.store.Len() != 0 {
		t.Fatalf("cancelled job persisted %d store entries", svc.store.Len())
	}

	// Resubmission runs fresh and to completion.
	_, body = postJSON(t, ts.URL+"/v1/jobs", spec)
	var second JobView
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	done := waitForStatus(t, ts.URL+"/v1/jobs/"+second.ID, StatusDone)
	if done.Cached {
		t.Fatal("resubmission after cancel was served from the cache")
	}
	if done.Result == nil || len(done.Result.Trials) != done.Total {
		t.Fatalf("resubmission result incomplete: %+v", done.Result)
	}
	if svc.store.Len() != 1 {
		t.Fatalf("completed resubmission persisted %d entries, want 1", svc.store.Len())
	}
}

// TestJobEventsStreamStopsOnClientDisconnect locks the NDJSON handler's
// disconnect behavior: when the client goes away mid-stream — even while
// events keep arriving, so the handler never parks on the wake channel —
// the handler observes r.Context() and returns instead of writing into a
// dead connection until the job ends. Event producers are unaffected
// either way (events append to the job's log; nothing blocks on this
// handler).
func TestJobEventsStreamStopsOnClientDisconnect(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})
	_, body := postJSON(t, ts.URL+"/v1/jobs", quickSpec(4000, 77))
	var view JobView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	waitForStatus(t, ts.URL+"/v1/jobs/"+view.ID, StatusRunning)

	rec := httptest.NewRecorder()
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+view.ID+"/events", nil).WithContext(ctx)
	handlerDone := make(chan struct{})
	go func() {
		svc.ServeHTTP(rec, req)
		close(handlerDone)
	}()
	// Let the stream run mid-job, then disconnect.
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case <-handlerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("events handler kept streaming after client disconnect")
	}
	// The job is unaffected by the departed stream.
	job, ok := svc.Job(view.ID)
	if !ok || job.Status().terminal() {
		t.Fatal("job vanished or terminated when its stream client left")
	}
	job.Cancel()
}

func streamEvents(t *testing.T, url string) []Event {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

func eventTypes(events []Event) []string {
	types := make([]string, len(events))
	for i, e := range events {
		types[i] = e.Type
	}
	return types
}
