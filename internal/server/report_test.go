package server

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"

	"dualradio/internal/report"
	"dualradio/internal/scenario"
)

func getBody(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b), resp.Header.Get("Content-Type")
}

// TestSweepReportEndpoint drives the full report path over HTTP: submit a
// sweep, wait for completion, and fetch the pivot in every format. The CSV
// must equal a locally built report over the same expansion — the endpoint
// adds serving, not computation.
func TestSweepReportEndpoint(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 2})
	sw, err := svc.SubmitSweep(quickSweep(1))
	if err != nil {
		t.Fatal(err)
	}
	waitForSweepDone(t, sw)
	base := ts.URL + "/v1/sweeps/" + sw.id + "/report"

	code, csv, ctype := getBody(t, base+"?metric=mean_rounds&format=csv")
	if code != http.StatusOK || ctype != "text/csv" {
		t.Fatalf("csv report: %d %q", code, ctype)
	}
	// Reference: build the identical report directly from the engine.
	exp, err := scenario.ExpandSweep(quickSweep(1))
	if err != nil {
		t.Fatal(err)
	}
	aggs := make([]scenario.Aggregate, len(exp.Children))
	for i, c := range exp.Children {
		res, err := c.RunWithOptions(context.Background(), scenario.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		aggs[i] = res.Aggregate
	}
	want, err := report.Build(exp, aggs, report.Options{Metric: "mean_rounds"})
	if err != nil {
		t.Fatal(err)
	}
	if csv != want.CSV() {
		t.Fatalf("served CSV diverges from the engine:\nserved:\n%sengine:\n%s", csv, want.CSV())
	}

	code, body, ctype := getBody(t, base+"?metric=valid_fraction&format=json")
	if code != http.StatusOK || !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("json report: %d %q", code, ctype)
	}
	if !strings.Contains(body, `"metric": "valid_fraction"`) {
		t.Fatalf("json report body: %s", body)
	}

	code, tbl, _ := getBody(t, base) // default: table, default metric
	if code != http.StatusOK || !strings.Contains(tbl, "mean_rounds") || !strings.Contains(tbl, `n\gray_prob`) {
		t.Fatalf("table report: %d\n%s", code, tbl)
	}

	// Pivot selection and validation surface as client errors.
	if code, _, _ := getBody(t, base+"?metric=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bogus metric: %d", code)
	}
	if code, _, _ := getBody(t, base+"?format=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bogus format: %d", code)
	}
	if code, _, _ := getBody(t, base+"?rows=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bogus axis: %d", code)
	}
	if code, _, _ := getBody(t, ts.URL+"/v1/sweeps/nope/report"); code != http.StatusNotFound {
		t.Fatalf("missing sweep: %d", code)
	}
}

// TestSweepReportRequiresCompletion: a sweep with a cancelled child is not
// reportable (409), because a partial pivot would misrepresent the grid.
func TestSweepReportRequiresCompletion(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 16})
	sw, err := svc.SubmitSweep(quickSweep(7))
	if err != nil {
		t.Fatal(err)
	}
	// Cancel every child immediately: whichever were still queued become
	// cancelled, so at least one child is terminal-but-not-done.
	sw.CancelChildren()
	waitForSweepDone(t, sw)
	v := sw.View(false)
	if v.Counts[StatusCancelled] == 0 {
		t.Skip("scheduler outran cancellation; nothing to assert")
	}
	code, body, _ := getBody(t, ts.URL+"/v1/sweeps/"+sw.id+"/report?format=csv")
	if code != http.StatusConflict {
		t.Fatalf("report over cancelled children: %d %s", code, body)
	}
}

// TestCalibrationTracksCompletedJobs: completed (non-cached) jobs feed the
// wallclock-per-cost-unit calibration and /metrics exposes it.
func TestCalibrationTracksCompletedJobs(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})
	if jobs, ns := svc.Calibration(); jobs != 0 || ns != 0 {
		t.Fatalf("fresh server calibration (%d, %v)", jobs, ns)
	}
	job, err := svc.Submit(quickSpec(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitForStatus(t, ts.URL+"/v1/jobs/"+job.id, StatusDone)
	jobs, ns := svc.Calibration()
	if jobs != 1 || ns <= 0 {
		t.Fatalf("post-run calibration (%d, %v)", jobs, ns)
	}
	// A cache-served resubmission must not contribute.
	job2, err := svc.Submit(quickSpec(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitForStatus(t, ts.URL+"/v1/jobs/"+job2.id, StatusDone)
	if jobs2, _ := svc.Calibration(); jobs2 != 1 {
		t.Fatalf("cache hit moved calibration to %d jobs", jobs2)
	}
	if metricValue(t, ts.URL, "radiod_calibration_jobs") != 1 || metricValue(t, ts.URL, "radiod_ns_per_cost_unit") <= 0 {
		t.Fatal("/metrics calibration gauges do not reflect the one completed run")
	}
}
