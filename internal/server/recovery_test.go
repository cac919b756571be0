package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dualradio/internal/faultinject"
	"dualradio/internal/report"
	"dualradio/internal/scenario"
)

// writeJournalLines hand-writes a journal file, simulating the state a
// crashed daemon left behind.
func writeJournalLines(t *testing.T, dir string, recs ...journalRecord) {
	t.Helper()
	var buf bytes.Buffer
	for _, rec := range recs {
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(data)
		buf.WriteByte('\n')
	}
	if err := os.WriteFile(journalPath(dir), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func rawSpec(t *testing.T, s scenario.Spec) json.RawMessage {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func waitJob(t *testing.T, job *Job, want JobStatus) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := job.Status()
		if st == want {
			return
		}
		if st.terminal() {
			t.Fatalf("job %s reached %q, want %q (error %q)", job.id, st, want, job.View(false).Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q waiting for %q", job.id, st, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func waitSweep(t *testing.T, sw *Sweep) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !sw.terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s never finished", sw.id)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func replayGauges(s *Server) (jobs, sweeps, dropped int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replayedJobs, s.replayedSweeps, s.replayDropped
}

func TestReplayReadmitsAcceptedJob(t *testing.T) {
	dir := t.TempDir()
	writeJournalLines(t, dir,
		journalRecord{Op: opAccept, ID: "j000007", Spec: rawSpec(t, quickSpec(2, 41))})

	svc, _ := newTestServer(t, Config{Workers: 1, DataDir: dir})
	job, ok := svc.Job("j000007")
	if !ok {
		t.Fatal("accepted-but-unstarted job was not replayed under its original id")
	}
	waitJob(t, job, StatusDone)
	if job.Result() == nil {
		t.Fatal("replayed job finished without a result")
	}
	if jobs, _, dropped := replayGauges(svc); jobs != 1 || dropped != 0 {
		t.Fatalf("replayed %d jobs, dropped %d; want 1, 0", jobs, dropped)
	}
	// Id allocation resumes past everything the journal mentioned.
	next, err := svc.Submit(quickSpec(1, 42))
	if err != nil {
		t.Fatal(err)
	}
	if next.id != "j000008" {
		t.Fatalf("post-replay id %q, want j000008", next.id)
	}
}

func TestReplayReadmitsMidRunJob(t *testing.T) {
	dir := t.TempDir()
	// A start record without a terminal one is exactly what a daemon killed
	// mid-simulation leaves behind.
	writeJournalLines(t, dir,
		journalRecord{Op: opAccept, ID: "j000003", Spec: rawSpec(t, quickSpec(2, 43))},
		journalRecord{Op: opStart, ID: "j000003"})

	svc, _ := newTestServer(t, Config{Workers: 1, DataDir: dir})
	job, ok := svc.Job("j000003")
	if !ok {
		t.Fatal("mid-run job was not replayed")
	}
	waitJob(t, job, StatusDone)
	if view := job.View(false); view.Cached {
		t.Fatal("mid-run job had no stored result yet must not be served cached")
	}
}

func TestReplaySkipsTerminalJob(t *testing.T) {
	dir := t.TempDir()
	writeJournalLines(t, dir,
		journalRecord{Op: opAccept, ID: "j000005", Spec: rawSpec(t, quickSpec(2, 44))},
		journalRecord{Op: opStart, ID: "j000005"},
		journalRecord{Op: opTerminal, ID: "j000005", Status: StatusDone})

	svc, _ := newTestServer(t, Config{Workers: 1, DataDir: dir})
	if _, ok := svc.Job("j000005"); ok {
		t.Fatal("terminal-but-uncompacted job was resurrected")
	}
	if jobs, _, dropped := replayGauges(svc); jobs != 0 || dropped != 0 {
		t.Fatalf("replayed %d jobs, dropped %d; want 0, 0", jobs, dropped)
	}
	// Even a finished job's id is burned: new submissions allocate past it.
	next, err := svc.Submit(quickSpec(1, 45))
	if err != nil {
		t.Fatal(err)
	}
	if next.id != "j000006" {
		t.Fatalf("post-replay id %q, want j000006", next.id)
	}
}

func TestReplayToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	writeJournalLines(t, dir,
		journalRecord{Op: opAccept, ID: "j000002", Spec: rawSpec(t, quickSpec(2, 46))})
	// A kill -9 mid-append leaves a torn final line; replay must keep every
	// record before it.
	f, err := os.OpenFile(journalPath(dir), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"start","id":"j0`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	svc, _ := newTestServer(t, Config{Workers: 1, DataDir: dir})
	job, ok := svc.Job("j000002")
	if !ok {
		t.Fatal("job before the torn tail was not replayed")
	}
	waitJob(t, job, StatusDone)
	if _, _, dropped := replayGauges(svc); dropped != 0 {
		t.Fatalf("torn tail dropped %d jobs", dropped)
	}
}

// TestReplayResumesHalfFinishedSweep is the crash-recovery round trip: a
// sweep runs to completion, the journal is rewound to look like the daemon
// died before one child finished (its stored result deleted too), and a
// restarted server must resume the sweep — finished children as store
// cache hits, the lost child re-simulated — and produce a byte-identical
// report.
func TestReplayResumesHalfFinishedSweep(t *testing.T) {
	dir := t.TempDir()
	sweepSpec := scenario.SweepSpec{
		Name: "resume",
		Base: quickSpec(2, 7),
		Axes: scenario.SweepAxes{
			N:        &scenario.Axis{Values: []float64{24, 32}},
			GrayProb: &scenario.Axis{Values: []float64{0, 0.05}},
		},
	}

	svcA, err := New(Config{Workers: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	swA, err := svcA.SubmitSweep(sweepSpec)
	if err != nil {
		t.Fatal(err)
	}
	waitSweep(t, swA)
	exp, aggs, _, _, err := swA.reportData(false)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := report.Build(exp, aggs, report.Options{})
	if err != nil {
		t.Fatal(err)
	}
	refCSV := ref.CSV()
	victim := swA.children[2]
	victimID, victimHash := victim.id, victim.comp.Hash()
	sweepID := swA.id
	// Snapshot the journal before Close: graceful shutdown compacts it to
	// the live set (empty here — the sweep finished), but this test wants
	// the crash shape, where the full generation survives. Restoring the
	// snapshot turns the graceful close back into a kill -9.
	preClose, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	svcA.Close()
	if err := os.WriteFile(journalPath(dir), preClose, 0o644); err != nil {
		t.Fatal(err)
	}

	// Rewind: drop the victim's terminal record and its stored result, as if
	// the crash landed before either was written.
	data, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	var kept [][]byte
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Op == opTerminal && rec.ID == victimID {
			continue
		}
		kept = append(kept, line)
	}
	if err := os.WriteFile(journalPath(dir), append(bytes.Join(kept, []byte("\n")), '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, victimHash+".json")); err != nil {
		t.Fatal(err)
	}

	svcB, _ := newTestServer(t, Config{Workers: 2, DataDir: dir})
	swB, ok := svcB.Sweep(sweepID)
	if !ok {
		t.Fatal("half-finished sweep was not resumed")
	}
	if _, sweeps, dropped := replayGauges(svcB); sweeps != 1 || dropped != 0 {
		t.Fatalf("replayed %d sweeps, dropped %d; want 1, 0", sweeps, dropped)
	}
	waitSweep(t, swB)
	for i, child := range swB.children {
		waitJob(t, child, StatusDone)
		cached := child.View(false).Cached
		if child.id == victimID && cached {
			t.Fatal("lost child claims a cache hit despite its deleted result")
		}
		if child.id != victimID && !cached {
			t.Fatalf("finished child %d (%s) was re-simulated instead of served from the store", i, child.id)
		}
	}
	expB, aggsB, _, _, err := swB.reportData(false)
	if err != nil {
		t.Fatal(err)
	}
	repB, err := report.Build(expB, aggsB, report.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := repB.CSV(); got != refCSV {
		t.Fatalf("post-recovery report differs from uninterrupted run:\n--- want\n%s--- got\n%s", refCSV, got)
	}
}

func TestTransientFaultRetriesToSuccess(t *testing.T) {
	inj, err := faultinject.New(faultinject.Spec{Rules: []faultinject.Rule{{
		Kind: faultinject.KindTrialError, Attempts: 1, Transient: true, Message: "injected flake",
	}}})
	if err != nil {
		t.Fatal(err)
	}
	svc, _ := newTestServer(t, Config{
		Workers: 1, Fault: inj,
		RetryBackoff: time.Millisecond, RetryMaxBackoff: 4 * time.Millisecond,
	})
	job, err := svc.Submit(quickSpec(2, 5))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, job, StatusDone)
	if got := job.Attempt(); got != 1 {
		t.Fatalf("job recovered after %d attempts, want 1", got)
	}
	events, _, _ := job.eventsSince(0)
	var retry *Event
	for i := range events {
		if events[i].Type == "retry" {
			retry = &events[i]
		}
	}
	if retry == nil {
		t.Fatalf("no retry event in %v", eventTypes(events))
	}
	if retry.Attempt != 1 || !strings.Contains(retry.Error, "injected flake") {
		t.Fatalf("retry event %+v lacks attempt count or cause", retry)
	}
	if got := svc.srvm.attempts.With("retry").Value(); got != 1 {
		t.Fatalf("retry attempts counter %v, want 1", got)
	}
}

func TestPermanentFaultFailsWithoutRetry(t *testing.T) {
	inj, err := faultinject.New(faultinject.Spec{Rules: []faultinject.Rule{{
		Kind: faultinject.KindTrialError, Message: "wedged bit",
	}}})
	if err != nil {
		t.Fatal(err)
	}
	svc, _ := newTestServer(t, Config{Workers: 1, Fault: inj, RetryBackoff: time.Millisecond})
	job, err := svc.Submit(quickSpec(2, 6))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, job, StatusFailed)
	view := job.View(false)
	if view.Attempt != 0 || !strings.Contains(view.Error, "wedged bit") {
		t.Fatalf("permanent fault produced %+v; want attempt 0 and the injected error", view)
	}
	events, _, _ := job.eventsSince(0)
	for _, e := range events {
		if e.Type == "retry" {
			t.Fatal("permanent failure emitted a retry event")
		}
	}
}

func TestRetriesExhaustedFails(t *testing.T) {
	// Attempts: 0 fires on every attempt — a fault marked transient that
	// never actually clears must exhaust MaxRetries and fail.
	inj, err := faultinject.New(faultinject.Spec{Rules: []faultinject.Rule{{
		Kind: faultinject.KindTrialError, Transient: true, Message: "always down",
	}}})
	if err != nil {
		t.Fatal(err)
	}
	svc, _ := newTestServer(t, Config{
		Workers: 1, Fault: inj, MaxRetries: 2,
		RetryBackoff: time.Millisecond, RetryMaxBackoff: 4 * time.Millisecond,
	})
	job, err := svc.Submit(quickSpec(2, 8))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, job, StatusFailed)
	if got := job.Attempt(); got != 2 {
		t.Fatalf("failed after %d attempts, want 2", got)
	}
	events, _, _ := job.eventsSince(0)
	retries := 0
	for _, e := range events {
		if e.Type == "retry" {
			retries++
		}
	}
	if retries != 2 {
		t.Fatalf("%d retry events, want 2 (types %v)", retries, eventTypes(events))
	}
}

func TestInjectedPanicFailsJobNotServer(t *testing.T) {
	doomed := quickSpec(2, 9)
	comp, err := scenario.Compile(doomed)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faultinject.New(faultinject.Spec{Rules: []faultinject.Rule{{
		Kind: faultinject.KindTrialPanic, HashPrefix: comp.Hash(), Message: "kaboom",
	}}})
	if err != nil {
		t.Fatal(err)
	}
	svc, ts := newTestServer(t, Config{Workers: 1, Fault: inj})
	job, err := svc.Submit(doomed)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, job, StatusFailed)
	view := job.View(false)
	if !strings.Contains(view.Error, "panicked") || !strings.Contains(view.Error, "kaboom") {
		t.Fatalf("panic surfaced as %q; want a recovered trial panic", view.Error)
	}
	// The worker that recovered the panic keeps serving.
	next, err := svc.Submit(quickSpec(2, 10))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, next, StatusDone)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d after recovered panic", resp.StatusCode)
	}
}

func TestSpecTimeoutFailsPermanently(t *testing.T) {
	inj, err := faultinject.New(faultinject.Spec{Rules: []faultinject.Rule{{
		Kind: faultinject.KindTrialDelay, DelayMS: 250,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	svc, _ := newTestServer(t, Config{Workers: 1, Fault: inj, RetryBackoff: time.Millisecond})
	spec := quickSpec(3, 11)
	spec.TimeoutMS = 40
	job, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, job, StatusFailed)
	view := job.View(false)
	if !strings.Contains(view.Error, "deadline") {
		t.Fatalf("timeout surfaced as %q; want a deadline failure", view.Error)
	}
	// Deterministic workloads time out identically on a rerun: no retry.
	if retries := svc.srvm.attempts.With("retry").Value(); view.Attempt != 0 || retries != 0 {
		t.Fatalf("timed-out job was retried (attempt %d, retries %v)", view.Attempt, retries)
	}
}

func TestStoreFaultCountsErrors(t *testing.T) {
	inj, err := faultinject.New(faultinject.Spec{Rules: []faultinject.Rule{{
		Kind: faultinject.KindStoreError, Message: "disk gremlin",
	}}})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	svc, _ := newTestServer(t, Config{Workers: 1, DataDir: dir, Fault: inj})
	job, err := svc.Submit(quickSpec(2, 12))
	if err != nil {
		t.Fatal(err)
	}
	// Persistence is best-effort: the job still completes.
	waitJob(t, job, StatusDone)
	if got := svc.storeErrs.Load(); got != 1 {
		t.Fatalf("store_errors %d, want 1", got)
	}
	if _, ok, _ := svc.store.Get(job.comp.Hash()); ok {
		t.Fatal("vetoed write still landed in the store")
	}
}

func TestPartialSweepReportHTTP(t *testing.T) {
	sweepSpec := scenario.SweepSpec{
		Base: quickSpec(2, 13),
		Axes: scenario.SweepAxes{N: &scenario.Axis{Values: []float64{24, 32}}},
	}
	exp, err := scenario.ExpandSweep(sweepSpec)
	if err != nil {
		t.Fatal(err)
	}
	// Permanently fail the first child so the sweep finishes incomplete.
	inj, err := faultinject.New(faultinject.Spec{Rules: []faultinject.Rule{{
		Kind: faultinject.KindTrialError, HashPrefix: exp.Children[0].Hash(), Message: "doomed cell",
	}}})
	if err != nil {
		t.Fatal(err)
	}
	svc, ts := newTestServer(t, Config{Workers: 2, Fault: inj})
	swp, err := svc.SubmitSweep(sweepSpec)
	if err != nil {
		t.Fatal(err)
	}
	waitSweep(t, swp)

	reportURL := ts.URL + "/v1/sweeps/" + swp.id + "/report?format=csv"
	resp, err := http.Get(reportURL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("full report over a failed child: status %d, want 409", resp.StatusCode)
	}

	resp, err = http.Get(reportURL + "&partial=1")
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	_, _ = body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial report: status %d, body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Complete-Children"); got != "1" {
		t.Fatalf("X-Complete-Children %q, want 1", got)
	}
	if got := resp.Header.Get("X-Total-Children"); got != "2" {
		t.Fatalf("X-Total-Children %q, want 2", got)
	}
	csv := body.String()
	if !strings.Contains(csv, "\n24,") || !strings.Contains(csv, "\n32,") {
		t.Fatalf("partial CSV lost its axis rows:\n%s", csv)
	}
	// The failed cell renders empty, never a fabricated number.
	for _, line := range strings.Split(strings.TrimSpace(csv), "\n") {
		if strings.HasPrefix(line, "24,") && strings.TrimPrefix(line, "24,") != "" {
			t.Fatalf("failed child's cell is non-empty: %q", line)
		}
	}
}

func TestJournalCompactionBoundsJournal(t *testing.T) {
	old := journalCompactEvery
	journalCompactEvery = 6
	t.Cleanup(func() { journalCompactEvery = old })

	dir := t.TempDir()
	svc, err := New(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		job, err := svc.Submit(quickSpec(1, uint64(900+i)))
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, job, StatusDone)
	}
	// 5 completed jobs journal ~15 records; compaction must have rewritten
	// the generation down to the (tiny) live set along the way.
	if n := svc.journal.Appends(); n >= 12 {
		t.Fatalf("journal generation holds %d records; compaction never ran", n)
	}
	svc.Close()

	// The compacted journal must not resurrect any finished job.
	svc2, err := New(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if jobs, sweeps, dropped := replayGauges(svc2); jobs != 0 || sweeps != 0 || dropped != 0 {
		t.Fatalf("compacted journal replayed %d jobs, %d sweeps, dropped %d", jobs, sweeps, dropped)
	}
	if got := len(svc2.Jobs()); got != 0 {
		t.Fatalf("%d jobs resurrected from a compacted journal", got)
	}
}
