package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"dualradio/internal/fleet"
	"dualradio/internal/journal"
	"dualradio/internal/scenario"
)

// FuzzSubmitBodies posts fuzzed bodies to both submission endpoints of a
// live server, POST /v1/jobs and POST /v1/sweeps. Whatever the body, the
// reply must be 202 Accepted with a JSON view or a 4xx with a JSON error
// object: never a 5xx, a panic, or a dropped connection.
//
// The admission budget is tiny, so only near-trivial jobs are admitted and
// they stay cheap to run. Every job costs at least 2 units (n >= 2, one
// trial, one round), so at most fuzzBudget/2 admitted jobs are ever
// pending; a sweep adds at most MaxSweepChildren more. The queue holds
// both, so it cannot fill, and even a 503 would be a bug.
func FuzzSubmitBodies(f *testing.F) {
	for _, body := range []string{
		`{"algorithm":"async-mis","network":{"n":8},"trials":1,"max_rounds":16}`,
		`{"spec":{"algorithm":"async-mis","network":{"n":4},"max_rounds":8}}`,
		`{"preset":"mis-quick"}`,
		`{"preset":"no-such-preset"}`,
		`{"preset":"mis-quick","spec":{"algorithm":"mis"}}`,
		`{"algorithm":"mis","network":{"n":16384},"trials":4096}`,
		`{"algorithm":"ccds","network":{"n":8,"target_degree":1e308},"b":-1}`,
		`{"algorithm":"mis","network":{"n":5,"gray_prob":-0.5},"adversary":{"kind":"uniform","p":2}}`,
		`{"base":{"algorithm":"async-mis","network":{"n":4},"max_rounds":4},"axes":{"n":{"values":[3,4]}}}`,
		`{"base":{"algorithm":"mis","network":{"n":16}},"axes":{"n":{"start":16,"stop":4096,"step":1}}}`,
		`{"base":{},"axes":{"adversary":[{"kind":"bursty","mean_up":-1}]}}`,
		`{"algorithm":"mis","network":{"n":8},"engine":"leap","adversary":{"kind":"bursty"}}`,
		`{"base":{"algorithm":"mis","network":{"n":8}},"axes":{"engine":["exact","leap"]}}`,
		`{"spec":"not an object"}`,
		`{}`,
		`[]`,
		`null`,
		`not json`,
		``,
	} {
		f.Add(false, []byte(body))
		f.Add(true, []byte(body))
	}
	const fuzzBudget = 1024
	svc, err := New(Config{
		Workers:        1,
		QueueDepth:     fuzzBudget/2 + scenario.MaxSweepChildren,
		MaxPendingCost: fuzzBudget,
		History:        64,
	})
	if err != nil {
		f.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	f.Cleanup(func() {
		svc.Close()
		ts.Close()
	})
	f.Fuzz(func(t *testing.T, sweep bool, body []byte) {
		url := ts.URL + "/v1/jobs"
		if sweep {
			url = ts.URL + "/v1/sweeps"
		}
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v (body %q)", url, err, body)
		}
		payload, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("read reply: %v", err)
		}
		switch code := resp.StatusCode; {
		case code == http.StatusAccepted:
			var view struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(payload, &view); err != nil || view.ID == "" {
				t.Fatalf("202 without a JSON view (%v): %s", err, payload)
			}
		case code >= 400 && code < 500:
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(payload, &e); err != nil || e.Error == "" {
				t.Fatalf("%d without a JSON error (%v): %s", code, err, payload)
			}
		default:
			t.Fatalf("POST %s: status %d for body %q: %s", url, code, body, payload)
		}
	})
}

// FuzzJournalReplay boots a server on a hostile journal: accept, sweep and
// terminal records, sweep records with and without their expansion hash,
// with start and fleet records that replay skips, some of them duplicated,
// reordered, garbled or torn. Whatever the journal holds, New must not
// panic, and replay must
//   - admit each job id at most once, and only an id the journal names;
//   - resume id allocation past every well-formed id the journal names;
//   - release every admission charge: radiod_pending_cost reads 0 once the
//     replayed jobs finish.
//
// The input is a program of (op, arg) byte pairs over a fixed record
// vocabulary (see journalProgram). Its specs are tiny and spelled with
// one-digit numbers, so garbling, which flips one byte, cannot make a
// replayed job expensive.
func FuzzJournalReplay(f *testing.F) {
	for _, prog := range [][]byte{
		{},
		{0, 0},                                  // one accepted job
		{0, 0, 3, 0, 1, 0},                      // accepted, started, finished
		{0, 0, 0, 1, 2, 1, 8, 0},                // two jobs, one cancelled, a duplicated terminal
		{4, 2, 1, 2},                            // a sweep with one child finished
		{1, 2, 4, 2, 9, 0},                      // the terminal record before its sweep
		{4, 0, 4, 1},                            // two sweeps sharing a child id
		{6, 0, 5, 1},                            // a repeated child id; a child count mismatch
		{0, 0, 4, 0},                            // an id both accepted and a sweep child
		{1, 7, 3, 6},                            // terminal and start records alone
		{0, 15, 4, 15, 0, 13, 0, 14},            // out-of-range and malformed ids
		{0, 0, 10, 40, 0, 1, 11, 20, 12, 3},     // garbled and truncated lines, junk
		{4, 3, 10, 130, 7, 3, 0, 4, 13, 0},      // a garbled sweep, a lease, a torn tail
		{0, 16, 0, 33, 4, 50, 12, 4, 12, 7, 8},  // several seeds; a dangling op byte
		{12, 0, 12, 1, 12, 2, 12, 5, 12, 6, 13}, // junk only, torn
		{14, 2, 1, 2},                           // a hash-carrying sweep with one child finished
		{14, 3, 14, 2},                          // a stale-hash sweep beside one with its own hash
	} {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(journalPath(dir), journalProgram(prog), 0o644); err != nil {
			t.Fatal(err)
		}
		lines, err := journal.ReadAll(journalPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		// What the journal names, read the way replay reads it.
		admissible := map[string]bool{}
		lastJob, lastSweep := 0, 0
		for _, line := range lines {
			var rec journalRecord
			if json.Unmarshal(line, &rec) != nil {
				continue
			}
			switch rec.Op {
			case opAccept:
				admissible[rec.ID] = true
			case opSweep:
				lastSweep = max(lastSweep, idSuffix(rec.ID))
				for _, c := range rec.Children {
					admissible[c] = true
					lastJob = max(lastJob, idSuffix(c))
				}
				continue
			}
			lastJob = max(lastJob, idSuffix(rec.ID))
		}

		svc, err := New(Config{Workers: 1, DataDir: dir})
		if err != nil {
			t.Fatalf("New on a hostile journal: %v", err)
		}
		defer svc.Close()
		svc.mu.Lock()
		order := append([]string(nil), svc.order...)
		registered := len(svc.jobs)
		live := svc.liveJournalRecordsLocked()
		svc.mu.Unlock()
		seen := map[string]bool{}
		for _, id := range order {
			if seen[id] {
				t.Fatalf("job %q admitted twice", id)
			}
			if !admissible[id] {
				t.Fatalf("replay admitted job %q, which no accept or sweep record names", id)
			}
			seen[id] = true
		}
		if registered != len(order) {
			t.Fatalf("%d jobs registered under %d ids", registered, len(order))
		}
		// The live record set, which compaction writes, must admit each
		// registered job at most once too.
		relisted := map[string]bool{}
		for _, r := range live {
			rec := r.(journalRecord)
			ids := rec.Children
			if rec.Op == opAccept {
				ids = []string{rec.ID}
			}
			for _, id := range ids {
				if relisted[id] || !seen[id] {
					t.Fatalf("live record set lists job %q twice or unregistered: %+v", id, live)
				}
				relisted[id] = true
			}
		}

		deadline := time.Now().Add(30 * time.Second)
		for _, job := range svc.Jobs() {
			for !job.Status().terminal() {
				if time.Now().After(deadline) {
					t.Fatalf("replayed job %q never finished: %+v", job.id, job.View(false))
				}
				time.Sleep(time.Millisecond)
			}
		}
		// A job's terminal hooks, the charge release among them, run just
		// after its status turns terminal.
		for {
			rec := httptest.NewRecorder()
			svc.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
			if strings.Contains(rec.Body.String(), "\nradiod_pending_cost 0\n") {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("admission charge left after every replayed job finished:\n%s", rec.Body)
			}
			time.Sleep(time.Millisecond)
		}

		job, err := svc.Submit(fuzzSpec(9))
		if err != nil {
			t.Fatal(err)
		}
		sw, err := svc.SubmitSweep(scenario.SweepSpec{Base: fuzzSpec(9), Axes: scenario.SweepAxes{
			N: &scenario.Axis{Values: []float64{5}},
		}})
		if err != nil {
			t.Fatal(err)
		}
		for _, next := range []struct {
			id   string
			last int
		}{{job.id, lastJob}, {sw.id, lastSweep}} {
			if n, err := strconv.Atoi(next.id[1:]); err != nil || n <= next.last {
				t.Fatalf("new id %q does not move past %d, the largest the journal names", next.id, next.last)
			}
		}
	})
}

// fuzzSpec is a near-trivial job spec: async-mis over 4 nodes, one trial.
func fuzzSpec(seed uint64) scenario.Spec {
	return scenario.Spec{
		Algorithm: scenario.AlgoAsyncMIS,
		Network:   scenario.NetworkSpec{N: 4},
		Trials:    1,
		Seed:      seed,
		MaxRounds: 8,
	}
}

// journalProgram renders a fuzz program as journal bytes. Each (op, arg)
// byte pair appends a record or rewrites the last one; ids, specs and junk
// all come from small fixed sets picked by arg. A program of more than 64
// pairs is cut there.
func journalProgram(prog []byte) []byte {
	jobID := func(arg byte) string {
		switch arg % 16 {
		case 13:
			return "x"
		case 14:
			return ""
		case 15:
			return "j9223372036854775807"
		}
		return fmt.Sprintf("j%06d", 1+arg%8)
	}
	sweepID := func(arg byte) string {
		if arg%16 == 15 {
			return "s9223372036854775807"
		}
		return fmt.Sprintf("s%06d", 1+arg%4)
	}
	spec := func(arg byte) json.RawMessage {
		return json.RawMessage(fmt.Sprintf(`{"algorithm":"async-mis","network":{"n":4},"trials":1,"seed":%d,"max_rounds":8}`, arg/16%10))
	}
	sweep := func(arg byte) json.RawMessage {
		return json.RawMessage(fmt.Sprintf(`{"name":"f","base":%s,"axes":{"n":{"values":[4,5]}}}`, spec(arg)))
	}
	junk := []string{
		`null`, `[]`, `{}`, `{"op":"terminal"}`, `{"op":"accept","id":"j000002"}`,
		`{"op":"accept","id":"j000003","spec":{"algorithm":"nope"}}`,
		`{"op":"sweep","id":"s000002","sweep":{},"children":["j000004"]}`,
		`{"op":"sweep","id":"s000003","sweep":"x","children":["j000005","j000006"]}`,
	}
	var lines [][]byte
	add := func(rec any) {
		data, _ := json.Marshal(rec)
		lines = append(lines, data)
	}
	torn := false
	for k := 0; k+1 < len(prog) && k < 128; k += 2 {
		op, arg := prog[k]%15, prog[k+1]
		var last []byte // nil when there is no last line or it is empty
		if len(lines) > 0 && len(lines[len(lines)-1]) > 0 {
			last = lines[len(lines)-1]
		}
		switch op {
		case 0:
			add(journalRecord{Op: opAccept, ID: jobID(arg), Spec: spec(arg)})
		case 1:
			add(journalRecord{Op: opTerminal, ID: jobID(arg), Status: StatusDone})
		case 2:
			add(journalRecord{Op: opTerminal, ID: jobID(arg), Status: StatusCancelled})
		case 3:
			add(journalRecord{Op: opStart, ID: jobID(arg)})
		case 4:
			add(journalRecord{Op: opSweep, ID: sweepID(arg), Sweep: sweep(arg), Children: []string{jobID(arg), jobID(arg + 1)}})
		case 5:
			add(journalRecord{Op: opSweep, ID: sweepID(arg), Sweep: sweep(arg), Children: []string{jobID(arg)}})
		case 6:
			add(journalRecord{Op: opSweep, ID: sweepID(arg), Sweep: sweep(arg), Children: []string{jobID(arg), jobID(arg)}})
		case 7:
			add(fleet.Record{Op: fleet.OpLease, Job: jobID(arg), Lease: "l000001", Worker: "w000001"})
		case 8: // duplicate
			if len(lines) > 0 {
				lines = append(lines, lines[len(lines)-1])
			}
		case 9: // reorder
			if n := len(lines); n >= 2 {
				lines[n-2], lines[n-1] = lines[n-1], lines[n-2]
			}
		case 10: // garble one byte
			if last != nil {
				g := append([]byte(nil), last...)
				g[int(arg)%len(g)] ^= 1 << (arg % 7)
				lines[len(lines)-1] = g
			}
		case 11: // tear mid-journal
			if last != nil {
				lines[len(lines)-1] = last[:int(arg)%len(last)]
			}
		case 12:
			lines = append(lines, []byte(junk[int(arg)%len(junk)]))
		case 13:
			torn = true
		case 14: // a sweep with its expansion hash, or a stale one for odd args
			hash := "stale"
			if sw, err := scenario.ParseSweep(sweep(arg)); err == nil && arg%2 == 0 {
				if exp, err := scenario.ExpandSweep(sw); err == nil {
					hash = exp.Hash()
				}
			}
			add(journalRecord{Op: opSweep, ID: sweepID(arg), Sweep: sweep(arg), Hash: hash, Children: []string{jobID(arg), jobID(arg + 1)}})
		}
	}
	out := bytes.Join(lines, []byte("\n"))
	if !torn && len(out) > 0 {
		out = append(out, '\n')
	}
	return out
}
