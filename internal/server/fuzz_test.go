package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

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
