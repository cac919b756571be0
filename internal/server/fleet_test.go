package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"dualradio/internal/faultinject"
	"dualradio/internal/fleet"
	"dualradio/internal/journal"
	"dualradio/internal/scenario"
)

// startWorker runs an in-process fleet worker against the test server's
// URL until the test ends or the returned cancel fires.
func startWorker(t *testing.T, url, name string, fault *faultinject.Injector) context.CancelFunc {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	w := fleet.NewWorker(fleet.WorkerConfig{
		Coordinator: url,
		Name:        name,
		Slots:       1,
		Poll:        10 * time.Millisecond,
		Fault:       fault,
	})
	go func() { _ = w.Run(ctx) }()
	t.Cleanup(cancel)
	return cancel
}

func fleetCfg() fleet.Config {
	return fleet.Config{Heartbeat: 25 * time.Millisecond, DeadAfter: 100 * time.Millisecond}
}

func getText(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestRemoteExecutionMatchesLocal is the distribution core: the same spec
// run through a remote worker must produce a byte-identical marshaled
// result to a local run — determinism in the canonical spec is what makes
// re-dispatch and multi-node merges safe at all.
func TestRemoteExecutionMatchesLocal(t *testing.T) {
	spec := quickSpec(2, 91)

	local, _ := newTestServer(t, Config{Workers: 1})
	lj, err := local.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, lj, StatusDone)

	// Workers -1: the coordinator runs nothing locally; only the fleet
	// worker can complete the job.
	svc, ts := newTestServer(t, Config{Workers: -1, Fleet: fleetCfg()})
	startWorker(t, ts.URL, "w1", nil)
	rj, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, rj, StatusDone)

	lb, _ := json.Marshal(lj.Result())
	rb, _ := json.Marshal(rj.Result())
	if string(lb) != string(rb) {
		t.Fatalf("remote result differs from local:\nlocal:  %s\nremote: %s", lb, rb)
	}
	// The job's "started" event names the worker it ran on.
	events, _, _ := rj.eventsSince(0)
	var started *Event
	for i := range events {
		if events[i].Type == "started" {
			started = &events[i]
		}
	}
	if started == nil || started.Worker == "" {
		t.Fatalf("no worker-attributed started event in %+v", events)
	}
}

// TestDeadWorkerRedispatch kills a worker (context cancel: heartbeats and
// execution stop dead) while it holds a lease; the coordinator must
// declare it dead, re-dispatch the job, and a survivor must finish it.
func TestDeadWorkerRedispatch(t *testing.T) {
	dir := t.TempDir()
	svc, ts := newTestServer(t, Config{Workers: -1, DataDir: dir, Fleet: fleetCfg()})

	// w1 stalls every trial for minutes — it will lease the job and sit on
	// it until killed. w2 (started after the kill) runs clean.
	stall, err := faultinject.New(faultinject.Spec{Rules: []faultinject.Rule{
		{Kind: faultinject.KindTrialDelay, DelayMS: 120000},
	}})
	if err != nil {
		t.Fatal(err)
	}
	cancel1 := startWorker(t, ts.URL, "w1", stall)

	job, err := svc.Submit(quickSpec(1, 92))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for svc.fleet.Snapshot().Counters.LeasesActive == 0 {
		if time.Now().After(deadline) {
			t.Fatal("w1 never leased the job")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel1() // kill w1 mid-run
	startWorker(t, ts.URL, "w2", nil)
	waitJob(t, job, StatusDone)

	counters := svc.fleet.Snapshot().Counters
	if counters.WorkersDead < 1 || counters.Redispatched < 1 {
		t.Fatalf("counters %+v: want a dead worker and a redispatch", counters)
	}
	// The job's event stream shows the re-dispatch with its reason.
	events, _, _ := job.eventsSince(0)
	found := false
	for _, e := range events {
		if e.Type == "redispatch" && strings.Contains(e.Reason, "missed heartbeats") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no redispatch event in %+v", events)
	}
	// And the journal recorded the assignment history (lease + redispatch).
	data, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{fleet.OpLease, fleet.OpRedispatch, fleet.OpWorkerDead} {
		if !strings.Contains(string(data), `"op":"`+op+`"`) {
			t.Fatalf("journal lacks %q record:\n%s", op, data)
		}
	}
}

// TestDuplicateCompletionDedup drives the backend adapter directly: two
// deliveries of the same result must both succeed (idempotent complete,
// write-once store) and a stale requeue for a finished job must refuse.
func TestDuplicateCompletionDedup(t *testing.T) {
	dir := t.TempDir()
	svc, _ := newTestServer(t, Config{Workers: -1, DataDir: dir, Fleet: fleetCfg()})
	job, err := svc.Submit(quickSpec(1, 93))
	if err != nil {
		t.Fatal(err)
	}
	be := fleetBackend{svc}
	unit := be.Next("wX", "l000099")
	if unit == nil || unit.Job != job.id {
		t.Fatalf("Next returned %+v, want job %s", unit, job.id)
	}
	comp, err := unit.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := comp.RunWithOptions(context.Background(), scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := json.Marshal(res)
	if err := be.Complete(job.id, payload); err != nil {
		t.Fatal(err)
	}
	if err := be.Complete(job.id, payload); err != nil {
		t.Fatalf("duplicate completion: %v", err)
	}
	waitJob(t, job, StatusDone)
	if svc.store.Len() != 1 {
		t.Fatalf("store holds %d results, want 1", svc.store.Len())
	}
	if be.Requeue(job.id, "l000099", "wX", "stale expiry") {
		t.Fatal("requeue succeeded on a finished job")
	}
}

// TestRequeueIsLeaseScoped: an expiry for a superseded lease must not
// disturb the current holder's run.
func TestRequeueIsLeaseScoped(t *testing.T) {
	svc, _ := newTestServer(t, Config{Workers: -1, Fleet: fleetCfg()})
	job, err := svc.Submit(quickSpec(1, 94))
	if err != nil {
		t.Fatal(err)
	}
	be := fleetBackend{svc}
	if be.Next("w1", "l1") == nil {
		t.Fatal("no unit leased")
	}
	if !be.Requeue(job.id, "l1", "w1", "worker w1 missed heartbeats") {
		t.Fatal("legitimate requeue refused")
	}
	if be.Next("w2", "l2") == nil {
		t.Fatal("requeued job not leasable")
	}
	// The stale l1 expiry fires again (e.g. a duplicated reap): refused.
	if be.Requeue(job.id, "l1", "w1", "stale") {
		t.Fatal("stale-lease requeue disturbed the current run")
	}
	if job.Status() != StatusRunning {
		t.Fatalf("job status %q, want running under l2", job.Status())
	}
}

// TestGracefulShutdownCompactsJournal: Close on a server whose work all
// finished must leave an empty journal, so the next boot replays nothing.
func TestGracefulShutdownCompactsJournal(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		job, err := svc.Submit(quickSpec(1, 95+uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, job, StatusDone)
	}
	svc.Close()
	recs, err := journal.ReadAll(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("journal holds %d records after graceful shutdown, want 0:\n%s", len(recs), recs)
	}
	svc2, err := New(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if jobs, sweeps, _ := replayGauges(svc2); jobs != 0 || sweeps != 0 {
		t.Fatalf("replayed %d jobs / %d sweeps after graceful shutdown, want none", jobs, sweeps)
	}
}

// TestMetricsEndpoint: the plaintext gauges are served and carry the
// fleet gauges.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, body := getText(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("GET /metrics: status %d", code)
	}
	for _, want := range []string{"radiod_queued ", "radiod_fleet_workers_live 0", "radiod_fleet_leases_active 0"} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics output lacks %q:\n%s", want, body)
		}
	}
}

// TestFleetFailRetriesTransient drives fleetBackend.Fail, the path a
// worker's error report takes. A transient failure with retry budget left
// sends the job back to the queue, and it is leased again as the next
// attempt; once the budget is spent, a transient failure fails the job. A
// permanent failure fails its job at once, and a report for an unknown job
// changes nothing.
func TestFleetFailRetriesTransient(t *testing.T) {
	svc, _ := newTestServer(t, Config{
		Workers: -1, MaxRetries: 1, Fleet: fleetCfg(),
		RetryBackoff: time.Millisecond, RetryMaxBackoff: time.Millisecond,
	})
	be := fleetBackend{svc}
	flaky, err := svc.Submit(quickSpec(1, 96))
	if err != nil {
		t.Fatal(err)
	}
	if unit := be.Next("w1", "l1"); unit == nil || unit.Job != flaky.id || unit.Attempt != 0 {
		t.Fatalf("first lease %+v, want job %s attempt 0", unit, flaky.id)
	}
	be.Fail(flaky.id, "worker flake", true)
	deadline := time.Now().Add(10 * time.Second)
	unit := be.Next("w1", "l2")
	for unit == nil {
		if time.Now().After(deadline) {
			t.Fatalf("transiently failed job never re-entered the queue: %+v", flaky.View(false))
		}
		time.Sleep(time.Millisecond)
		unit = be.Next("w1", "l2")
	}
	if unit.Job != flaky.id || unit.Attempt != 1 {
		t.Fatalf("retry lease %+v, want job %s attempt 1", unit, flaky.id)
	}
	be.Fail(flaky.id, "worker flake again", true)
	if v := flaky.View(false); v.Status != StatusFailed || v.Attempt != 1 || v.Error != "worker flake again" {
		t.Fatalf("job after its retry budget: %+v, want failed at attempt 1", v)
	}
	events, _, _ := flaky.eventsSince(0)
	var retries []Event
	for _, e := range events {
		if e.Type == "retry" {
			retries = append(retries, e)
		}
	}
	if len(retries) != 1 || retries[0].Attempt != 1 || retries[0].Error != "worker flake" {
		t.Fatalf("retry events %+v, want one for attempt 1 carrying the worker's error", retries)
	}

	broken, err := svc.Submit(quickSpec(1, 97))
	if err != nil {
		t.Fatal(err)
	}
	if unit := be.Next("w1", "l3"); unit == nil || unit.Job != broken.id {
		t.Fatalf("lease %+v, want job %s", unit, broken.id)
	}
	be.Fail(broken.id, "bad input on worker", false)
	if v := broken.View(false); v.Status != StatusFailed || v.Attempt != 0 || v.Error != "bad input on worker" {
		t.Fatalf("permanently failed job: %+v, want failed at attempt 0", v)
	}
	be.Fail("j999999", "late report", true)
	if n := len(svc.Jobs()); n != 2 {
		t.Fatalf("%d jobs registered after a report for an unknown job, want 2", n)
	}
}

// TestFleetViewHTTP reads GET /v1/fleet while a worker holds a lease: the
// worker's row names the leased job, and the counters agree.
func TestFleetViewHTTP(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: -1, Fleet: fleetCfg()})
	stall, err := faultinject.New(faultinject.Spec{Rules: []faultinject.Rule{
		{Kind: faultinject.KindTrialDelay, DelayMS: 120000},
	}})
	if err != nil {
		t.Fatal(err)
	}
	startWorker(t, ts.URL, "w1", stall)
	job, err := svc.Submit(quickSpec(1, 98))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for svc.fleet.Snapshot().Counters.LeasesActive == 0 {
		if time.Now().After(deadline) {
			t.Fatal("w1 never leased the job")
		}
		time.Sleep(5 * time.Millisecond)
	}
	code, view := getJSON[fleet.View](t, ts.URL+"/v1/fleet")
	if code != http.StatusOK || len(view.Workers) != 1 {
		t.Fatalf("GET /v1/fleet: status %d, %+v", code, view)
	}
	w := view.Workers[0]
	if w.ID == "" || w.Name != "w1" || !w.Live || w.ActiveLeases != 1 || !reflect.DeepEqual(w.Jobs, []string{job.id}) {
		t.Fatalf("worker row %+v, want live w1 leasing %s", w, job.id)
	}
	if c := view.Counters; c.WorkersLive != 1 || c.LeasesActive != 1 || c.LeasesGranted != 1 || c.Completed != 0 || c.Failed != 0 {
		t.Fatalf("fleet counters %+v, want one live worker holding the one lease granted", c)
	}
}
