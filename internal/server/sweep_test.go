package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"
	"weak"

	"dualradio/internal/scenario"
)

// quickSweep is a 3-axis 2×2×2 grid of fast MIS workloads
// (n × gray_prob × adversary).
func quickSweep(seed uint64) scenario.SweepSpec {
	return scenario.SweepSpec{
		Name: "quick grid",
		Base: scenario.Spec{
			Algorithm:       scenario.AlgoMIS,
			Network:         scenario.NetworkSpec{N: 16},
			Trials:          1,
			Seed:            seed,
			StopWhenDecided: true,
		},
		Axes: scenario.SweepAxes{
			N:        &scenario.Axis{Values: []float64{16, 24}},
			GrayProb: &scenario.Axis{Values: []float64{0.1, 0.3}},
			Adversary: []scenario.AdversarySpec{
				{Kind: scenario.AdvCollision},
				{Kind: scenario.AdvNone},
			},
		},
	}
}

func waitForSweepDone(t *testing.T, sw *Sweep) SweepView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		v := sw.View(true)
		if v.Status == "done" {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep stuck: %+v", v)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSweepLifecycleHTTP(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 2})
	resp, body := postJSON(t, ts.URL+"/v1/sweeps", quickSweep(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep submit: status %d, body %s", resp.StatusCode, body)
	}
	var accepted SweepView
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	if accepted.ID == "" || accepted.Total != 8 || accepted.SweepHash == "" || len(accepted.Children) != 8 {
		t.Fatalf("bad accepted sweep view: %+v", accepted)
	}

	sw, ok := svc.Sweep(accepted.ID)
	if !ok {
		t.Fatalf("sweep %s not registered", accepted.ID)
	}
	done := waitForSweepDone(t, sw)
	if done.Counts[StatusDone] != 8 {
		t.Fatalf("sweep rollup counts %v, want 8 done", done.Counts)
	}

	// Every child is an ordinary job with its own result.
	for _, c := range done.Children {
		code, view := getJSON[JobView](t, ts.URL+"/v1/jobs/"+c.ID)
		if code != http.StatusOK || view.Result == nil {
			t.Fatalf("child %s: code %d result %v", c.ID, code, view.Result)
		}
		if view.Spec.Name == "" {
			t.Errorf("child %s has no coordinate name", c.ID)
		}
	}

	// The event stream: queued, 8 child completions, done; the completed
	// counter reaches the total.
	events := streamSweepEvents(t, ts.URL+"/v1/sweeps/"+accepted.ID+"/events")
	if events[0].Type != "queued" || events[len(events)-1].Type != "done" {
		t.Fatalf("event envelope wrong: %+v", events)
	}
	children := 0
	for _, e := range events {
		if e.Type == "child" {
			children++
			if e.Job == "" || e.SpecHash == "" || e.Status != StatusDone {
				t.Fatalf("bad child event %+v", e)
			}
		}
	}
	if children != 8 {
		t.Fatalf("%d child events, want 8", children)
	}
	if last := events[len(events)-1]; last.Completed != 8 || last.Total != 8 {
		t.Fatalf("final event counters %d/%d, want 8/8", last.Completed, last.Total)
	}

	// Listing shows the sweep without children.
	code, list := getJSON[struct{ Sweeps []SweepView }](t, ts.URL+"/v1/sweeps")
	if code != http.StatusOK || len(list.Sweeps) != 1 || len(list.Sweeps[0].Children) != 0 {
		t.Fatalf("bad sweep listing: %d, %+v", code, list)
	}

	// Resubmitting the identical sweep is served wholly from the cache:
	// same sweep hash, every child cached, terminal immediately.
	resp, body = postJSON(t, ts.URL+"/v1/sweeps", quickSweep(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: status %d", resp.StatusCode)
	}
	var second SweepView
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if second.SweepHash != accepted.SweepHash {
		t.Fatal("identical sweep hashed differently")
	}
	if second.Status != "done" {
		t.Fatalf("cached sweep status %q at submission", second.Status)
	}
	for _, c := range second.Children {
		if !c.Cached {
			t.Fatalf("child %s of cached sweep not cached", c.ID)
		}
	}

	// Malformed sweeps are rejected loudly.
	resp, _ = postJSON(t, ts.URL+"/v1/sweeps", map[string]any{"base": map[string]any{"algorithm": "mis"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid sweep: status %d", resp.StatusCode)
	}
}

func TestSweepResultsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 2, DataDir: dir}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	swp, err := svc.SubmitSweep(quickSweep(7))
	if err != nil {
		t.Fatal(err)
	}
	first := waitForSweepDone(t, swp)
	results := map[string][]byte{} // child spec hash → marshaled result
	for _, c := range first.Children {
		job, _ := svc.Job(c.ID)
		data, err := json.Marshal(job.View(true).Result)
		if err != nil {
			t.Fatal(err)
		}
		results[c.SpecHash] = data
	}
	svc.Close()

	// A fresh daemon over the same data dir must serve the identical sweep
	// entirely from the persistent store: every child cached, results
	// byte-identical, zero re-simulation (nothing ever enters the queue).
	svc2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	swp2, err := svc2.SubmitSweep(quickSweep(7))
	if err != nil {
		t.Fatal(err)
	}
	if swp2.hash != swp.hash {
		t.Fatal("sweep hash changed across restart")
	}
	second := swp2.View(true)
	if second.Status != "done" {
		t.Fatalf("restarted sweep status %q at submission, want done", second.Status)
	}
	if len(second.Children) != len(first.Children) {
		t.Fatalf("child count changed: %d vs %d", len(second.Children), len(first.Children))
	}
	for i, c := range second.Children {
		if !c.Cached {
			t.Fatalf("child %s re-simulated after restart", c.ID)
		}
		if c.SpecHash != first.Children[i].SpecHash {
			t.Fatalf("child order changed across restart at %d", i)
		}
		job, _ := svc2.Job(c.ID)
		data, err := json.Marshal(job.View(true).Result)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(data, results[c.SpecHash]) {
			t.Fatalf("child %s result not byte-identical across restart:\n%s\n%s",
				c.ID, results[c.SpecHash], data)
		}
	}
	if got := len(svc2.queue); got != 0 {
		t.Fatalf("%d jobs queued for a fully stored sweep", got)
	}
}

func TestSweepRejectedWhenQueueCannotFitAllChildren(t *testing.T) {
	// 8 fresh children cannot fit a depth-2 queue: the sweep must be
	// rejected atomically — no children admitted, no sweep registered.
	svc, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	blocker, err := svc.Submit(quickSpec(4000, 99))
	if err != nil {
		t.Fatal(err)
	}
	defer blocker.Cancel()
	resp, body := postJSON(t, ts.URL+"/v1/sweeps", quickSweep(1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("oversized sweep: status %d, body %s", resp.StatusCode, body)
	}
	code, list := getJSON[struct{ Sweeps []SweepView }](t, ts.URL+"/v1/sweeps")
	if code != http.StatusOK || len(list.Sweeps) != 0 {
		t.Fatalf("rejected sweep registered: %+v", list)
	}
	code, jobs := getJSON[struct{ Jobs []JobView }](t, ts.URL+"/v1/jobs")
	if code != http.StatusOK || len(jobs.Jobs) != 1 {
		t.Fatalf("rejected sweep leaked children into the registry: %d jobs", len(jobs.Jobs))
	}
}

func TestOverBudgetRejectedWith429(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxPendingCost: 1})
	resp, body := postJSON(t, ts.URL+"/v1/jobs", quickSpec(2, 1))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget job: status %d, body %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/sweeps", quickSweep(1))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget sweep: status %d, body %s", resp.StatusCode, body)
	}
	// Nothing was admitted.
	code, jobs := getJSON[struct{ Jobs []JobView }](t, ts.URL+"/v1/jobs")
	if code != http.StatusOK || len(jobs.Jobs) != 0 {
		t.Fatalf("over-budget submissions leaked: %d jobs", len(jobs.Jobs))
	}
}

func TestAdmissionBudgetReleasedOnTerminal(t *testing.T) {
	// Budget fits exactly one copy of the workload: the second distinct
	// submission is rejected while the first is pending and admitted once
	// the first terminates (cancellation releases the charge too).
	spec := quickSpec(4000, 1)
	comp, err := scenario.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	svc, ts := newTestServer(t, Config{Workers: 1, MaxPendingCost: comp.CostEstimate()})
	first, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(quickSpec(4000, 2)); err == nil {
		t.Fatal("second workload admitted beyond the budget")
	}
	first.Cancel()
	waitForStatus(t, ts.URL+"/v1/jobs/"+first.id, StatusCancelled)
	second, err := svc.Submit(quickSpec(4000, 2))
	if err != nil {
		t.Fatalf("budget not released on cancellation: %v", err)
	}
	second.Cancel()
}

func streamSweepEvents(t *testing.T, url string) []SweepEvent {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var events []SweepEvent
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var e SweepEvent
		if err := dec.Decode(&e); err != nil {
			t.Fatal(err)
		}
		events = append(events, e)
	}
	if len(events) == 0 {
		t.Fatal("empty sweep event stream")
	}
	return events
}

// TestCancelSweepMidRunHTTP cancels a running sweep with DELETE
// /v1/sweeps/{id}. The reply is the sweep view; every child ends cancelled,
// or done if it finished before the cancel landed; the admission charge
// drains to zero; the partial report covers the finished children; an
// unknown id is a 404. A daemon restarted on the same data dir with the
// full journal (the crash shape, not the compacted one a graceful close
// leaves) must not re-run the cancelled children.
func TestCancelSweepMidRunHTTP(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, DataDir: dir}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	defer ts.Close()
	// 4000 trials per child keep the first child running, and one worker
	// keeps the other three queued, when the cancel lands.
	spec := scenario.SweepSpec{
		Name: "cancel",
		Base: quickSpec(4000, 11),
		Axes: scenario.SweepAxes{
			N:        &scenario.Axis{Values: []float64{32, 40}},
			GrayProb: &scenario.Axis{Values: []float64{0.1, 0.3}},
		},
	}
	resp, body := postJSON(t, ts.URL+"/v1/sweeps", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep submit: status %d, body %s", resp.StatusCode, body)
	}
	var accepted SweepView
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	sw, ok := svc.Sweep(accepted.ID)
	if !ok {
		t.Fatalf("sweep %s not registered", accepted.ID)
	}
	first, _ := svc.Job(accepted.Children[0].ID)
	deadline := time.Now().Add(30 * time.Second)
	for first.View(false).Completed == 0 {
		if first.Status().terminal() || time.Now().After(deadline) {
			t.Fatalf("first child never ran a trial: %+v", first.View(false))
		}
		time.Sleep(2 * time.Millisecond)
	}

	del := func(url string) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodDelete, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		payload, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, payload
	}
	code, body := del(ts.URL + "/v1/sweeps/" + accepted.ID)
	if code != http.StatusOK {
		t.Fatalf("cancel: status %d, body %s", code, body)
	}
	var view SweepView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if view.ID != accepted.ID || view.Total != 4 || len(view.Children) != 4 {
		t.Fatalf("cancel reply is not the sweep view: %+v", view)
	}

	waitSweep(t, sw)
	cancelled, done := 0, 0
	for _, c := range sw.View(true).Children {
		switch c.Status {
		case StatusCancelled:
			cancelled++
		case StatusDone:
			done++
			if c.Completed != c.Total {
				t.Fatalf("child %s done after %d of %d trials", c.ID, c.Completed, c.Total)
			}
		default:
			t.Fatalf("child %s ended %q, want cancelled or done", c.ID, c.Status)
		}
	}
	if cancelled == 0 {
		t.Fatal("no child was cancelled")
	}
	for metricValue(t, ts.URL, "radiod_pending_cost") != 0 {
		if time.Now().After(deadline) {
			t.Fatal("admission cost never drained after the cancel")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The full report refuses the cancelled grid; the partial one covers
	// exactly the children that finished.
	reportURL := ts.URL + "/v1/sweeps/" + accepted.ID + "/report?format=csv"
	if code, body := getText(t, reportURL); code != http.StatusConflict {
		t.Fatalf("full report of a cancelled sweep: status %d, body %s", code, body)
	}
	resp, err = http.Get(reportURL + "&partial=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Complete-Children") != strconv.Itoa(done) ||
		resp.Header.Get("X-Total-Children") != "4" {
		t.Fatalf("partial report: status %d, %s of %s children, want %d of 4", resp.StatusCode,
			resp.Header.Get("X-Complete-Children"), resp.Header.Get("X-Total-Children"), done)
	}
	if code, body := del(ts.URL + "/v1/sweeps/no-such-sweep"); code != http.StatusNotFound {
		t.Fatalf("cancel of an unknown sweep: status %d, body %s", code, body)
	}

	full, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	if err := os.WriteFile(journalPath(dir), full, 0o644); err != nil {
		t.Fatal(err)
	}
	svc2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if jobs, sweeps, dropped := replayGauges(svc2); jobs != 0 || sweeps != 0 || dropped != 0 {
		t.Fatalf("restart replayed %d jobs and %d sweeps, dropped %d; want none", jobs, sweeps, dropped)
	}
	if _, ok := svc2.Sweep(accepted.ID); ok {
		t.Fatal("the cancelled sweep was resumed after restart")
	}
	if got := len(svc2.queue); got != 0 {
		t.Fatalf("%d jobs queued after restart", got)
	}
}

// TestFinishedSweepReleasesChildren pins what a retained sweep keeps: a
// record per finished child, not the child's job. The sweep runs twice:
// the second submission is served from the cache, so its children finish
// inside admission, before the sweep could store them. Once more than
// History later jobs have pruned every child from the registry, nothing
// may hold them, so every weak pointer clears after a GC; and each sweep's
// view, stats and CSV report, read from the records, stay byte-identical.
func TestFinishedSweepReleasesChildren(t *testing.T) {
	const history = 4
	svc, ts := newTestServer(t, Config{Workers: 2, History: history})
	var (
		urls     []string
		want     []string
		childIDs []string
		children []weak.Pointer[Job]
	)
	for run := 0; run < 2; run++ {
		resp, body := postJSON(t, ts.URL+"/v1/sweeps", quickSweep(21))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("sweep submit: status %d, body %s", resp.StatusCode, body)
		}
		var accepted SweepView
		if err := json.Unmarshal(body, &accepted); err != nil {
			t.Fatal(err)
		}
		sw, ok := svc.Sweep(accepted.ID)
		if !ok {
			t.Fatalf("sweep %s not registered", accepted.ID)
		}
		waitForSweepDone(t, sw)
		base := ts.URL + "/v1/sweeps/" + accepted.ID
		for _, url := range []string{base, base + "/stats", base + "/report?format=csv"} {
			code, body := getText(t, url)
			if code != http.StatusOK {
				t.Fatalf("GET %s: status %d, body %s", url, code, body)
			}
			urls, want = append(urls, url), append(want, body)
		}
		for _, c := range accepted.Children {
			job, ok := svc.Job(c.ID)
			if !ok {
				t.Fatalf("child %s not registered", c.ID)
			}
			childIDs, children = append(childIDs, c.ID), append(children, weak.Make(job))
		}
	}

	for seed := uint64(1); seed <= history+2; seed++ {
		job, err := svc.Submit(quickSpec(1, 900+seed))
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, job, StatusDone)
	}
	for _, id := range childIDs {
		if _, ok := svc.Job(id); ok {
			t.Fatalf("child %s survived %d later jobs with History %d", id, history+2, history)
		}
	}
	runtime.GC()
	for i, w := range children {
		if w.Value() != nil {
			t.Errorf("pruned child %s is still reachable", childIDs[i])
		}
	}
	for i, url := range urls {
		if code, body := getText(t, url); code != http.StatusOK || body != want[i] {
			t.Errorf("GET %s after its children were pruned: status %d, body\n%s\nwant\n%s", url, code, body, want[i])
		}
	}
}

// TestResidentJobsBoundedByHistory runs more than History sweeps through
// SubmitSweep. After the last prune, the jobs reachable after a GC are
// exactly the registry's, at most History: no retained sweep pins a
// finished child.
func TestResidentJobsBoundedByHistory(t *testing.T) {
	const history = 16
	svc, _ := newTestServer(t, Config{Workers: 2, History: history})
	var jobs []weak.Pointer[Job]
	for seed := uint64(1); seed <= history+4; seed++ {
		sw, err := svc.SubmitSweep(quickSweep(100 + seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range waitForSweepDone(t, sw).Children {
			job, ok := svc.Job(c.ID)
			if !ok {
				t.Fatalf("child %s not registered", c.ID)
			}
			jobs = append(jobs, weak.Make(job))
		}
	}
	svc.mu.Lock()
	svc.pruneLocked()
	registered := len(svc.jobs)
	svc.mu.Unlock()
	runtime.GC()
	reachable := 0
	for _, w := range jobs {
		if w.Value() != nil {
			reachable++
		}
	}
	if registered > history || reachable != registered {
		t.Fatalf("%d of %d jobs reachable, %d registered; want the registered ones only, at most History %d",
			reachable, len(jobs), registered, history)
	}
	if n := len(svc.Sweeps()); n != history {
		t.Fatalf("%d sweeps retained, want History %d", n, history)
	}
}
