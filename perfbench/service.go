package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"dualradio/internal/scenario"
	"dualradio/internal/server"
)

// service is one in-process radiod: the server package with its default
// configuration (GOMAXPROCS job workers, 128-entry result LRU) behind a
// loopback HTTP listener, persisting to a data dir under the work dir.
type service struct {
	svc    *server.Server
	hs     *http.Server
	served chan struct{}
	url    string
	client *http.Client
	dir    string
}

func startService(dir string) (*service, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	svc, err := server.New(server.Config{DataDir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	s := &service{
		svc:    svc,
		hs:     &http.Server{Handler: svc},
		served: make(chan struct{}),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		dir:    dir,
	}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln)
	}()
	return s, nil
}

// close stops the service the way radiod does — jobs first, so event
// streams end, then the listener — and removes its data dir.
func (s *service) close() {
	s.svc.Close()
	_ = s.hs.Close()
	<-s.served
	s.client.CloseIdleConnections()
	_ = os.RemoveAll(s.dir)
}

// do sends one request and returns the body of a response with the wanted
// status; any other status is an error carrying the body.
func (s *service) do(method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, s.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// sweepEvent is the part of a sweep stream record the checks read.
type sweepEvent struct {
	Type      string `json:"type"`
	Status    string `json:"status"`
	Cached    bool   `json:"cached"`
	Completed int    `json:"completed"`
}

// runSweep is one sweep op: POST the sweep, follow its event stream to the
// "done" event, and GET its CSV report of mean output size. The sweep must
// expand to children children, and every child must end done without
// being cache-served. With a tracer it also reads the sweep's per-phase
// stats, outside the op's spans.
func (s *service) runSweep(sw scenario.SweepSpec, children int, tr *tracer) ([]byte, error) {
	body, err := json.Marshal(sw)
	if err != nil {
		return nil, err
	}
	tr.begin("server.submit_ms")
	data, err := s.do("POST", "/v1/sweeps", body, http.StatusAccepted)
	tr.end()
	if err != nil {
		return nil, err
	}
	var view struct {
		ID    string `json:"id"`
		Total int    `json:"total"`
	}
	if err := json.Unmarshal(data, &view); err != nil {
		return nil, err
	}
	if view.Total != children {
		return nil, fmt.Errorf("sweep %s has %d children, want %d", view.ID, view.Total, children)
	}
	tr.begin("server.wait_ms")
	err = s.follow(view.ID, children)
	tr.end()
	if err != nil {
		return nil, err
	}
	// mean_size depends on every child's outputs; the default mean_rounds
	// is fixed by the schedule and would not tell two seeds apart.
	tr.begin("server.report_ms")
	csv, err := s.do("GET", "/v1/sweeps/"+view.ID+"/report?format=csv&metric=mean_size", nil, http.StatusOK)
	tr.end()
	if err != nil {
		return nil, err
	}
	if got := bytes.Count(csv, []byte("\n")); got < 2 {
		return nil, fmt.Errorf("sweep %s: report has %d lines", view.ID, got)
	}
	if tr != nil {
		if err := s.observeStats(view.ID, tr); err != nil {
			return nil, err
		}
	}
	return csv, nil
}

// follow reads a sweep's NDJSON event stream until its "done" event.
func (s *service) follow(id string, children int) error {
	resp, err := s.client.Get(s.url + "/v1/sweeps/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("sweep %s events: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	seen := 0
	for sc.Scan() {
		var e sweepEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return fmt.Errorf("sweep %s events: %w", id, err)
		}
		switch e.Type {
		case "child":
			seen++
			if e.Status != string(server.StatusDone) {
				return fmt.Errorf("sweep %s: child ended %s", id, e.Status)
			}
			if e.Cached {
				return fmt.Errorf("sweep %s: child served from cache", id)
			}
		case "done":
			if seen != children || e.Completed != children {
				return fmt.Errorf("sweep %s: done after %d of %d children", id, seen, children)
			}
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("sweep %s: event stream ended before done", id)
}

// observeStats folds the sweep's per-child phase means into the tracer.
func (s *service) observeStats(id string, tr *tracer) error {
	data, err := s.do("GET", "/v1/sweeps/"+id+"/stats", nil, http.StatusOK)
	if err != nil {
		return err
	}
	var st struct {
		Phases map[string]struct {
			MeanMS float64 `json:"mean_ms"`
		} `json:"phases"`
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	for _, phase := range []string{"queue_wait", "trials", "reduce", "persist"} {
		tr.observe("server."+phase+"_ms", st.Phases[phase].MeanMS)
	}
	return nil
}

// countedSeries are the /metrics series whose deltas the per-layer metrics
// read; counts among them must repeat exactly across runs of one seed.
var countedSeries = []string{
	"radiod_cache_hits_total",
	"radiod_cache_misses_total",
	"radiod_store_hits_total",
	"radiod_store_misses_total",
	"radiod_store_put_seconds_count",
	"radiod_journal_append_seconds_count",
}

// scrape reads /metrics once, summing each series over its labels.
func (s *service) scrape() (map[string]float64, error) {
	data, err := s.do("GET", "/metrics", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] += v
	}
	return out, nil
}

// settle is how long the counted series must stay still before a probe
// trusts them.
const settle = 50 * time.Millisecond

// probe scrapes until two scrapes settle apart agree on every counted
// series: terminal hooks (journal records) land just after a sweep's done
// event, and a count read mid-flight would not repeat across runs.
func (s *service) probe() (map[string]float64, error) {
	prev, err := s.scrape()
	if err != nil {
		return nil, err
	}
	for try := 0; try < 50; try++ {
		time.Sleep(settle)
		cur, err := s.scrape()
		if err != nil {
			return nil, err
		}
		same := true
		for _, name := range countedSeries {
			if cur[name] != prev[name] {
				same = false
			}
		}
		if same {
			return cur, nil
		}
		prev = cur
	}
	return nil, errors.New("server counters did not settle")
}

// serverLayers derives the server, store and journal per-layer metrics
// from three probes: before the first op of a traced run (a), at the end of
// its count window (w), k ops later counting both kinds, and at its end (e).
func serverLayers(m map[string]float64, a, w, e map[string]float64, k int, tr *tracer) {
	delta := func(from, to map[string]float64, name string) float64 { return to[name] - from[name] }
	hits := delta(a, e, "radiod_cache_hits_total")
	misses := delta(a, e, "radiod_cache_misses_total")
	if hits+misses > 0 {
		m["server.cache_hit_ratio"] = hits / (hits + misses)
	}
	m["store.hits_per_op"] = delta(a, w, "radiod_store_hits_total") / float64(k)
	m["store.misses_per_op"] = delta(a, w, "radiod_store_misses_total") / float64(k)
	m["journal.appends_per_op"] = delta(a, w, "radiod_journal_append_seconds_count") / float64(k)
	perCall := func(series string) float64 {
		n := delta(a, e, series+"_count")
		if n == 0 {
			return 0
		}
		return delta(a, e, series+"_sum") / n * 1e3
	}
	m["store.put_ms"] = perCall("radiod_store_put_seconds")
	m["journal.append_ms"] = perCall("radiod_journal_append_seconds")
	for _, name := range countedSeries {
		tr.counts[name] = delta(a, w, name)
	}
}

// sweepCold submits a fresh-seed sweep per op: every child misses the
// result cache and the store, and every trial builds its instance.
type sweepCold struct {
	*service
	seed uint64
}

// coldChildren is the size of a cold sweep: algorithm × n × gray_prob.
const coldChildren = 8

func coldSweep(seed uint64) scenario.SweepSpec {
	return scenario.SweepSpec{
		Name: "cold",
		Base: scenario.Spec{Algorithm: scenario.AlgoMIS, Network: scenario.NetworkSpec{N: 64}, Seed: seed},
		Axes: scenario.SweepAxes{
			Algorithm: []string{scenario.AlgoMIS, scenario.AlgoCCDS},
			N:         &scenario.Axis{Values: []float64{64, 96}},
			GrayProb:  &scenario.Axis{Values: []float64{0.1, 0.3}},
		},
	}
}

func startSweepCold(e env) (workload, error) {
	svc, err := startService(e.dataDir())
	if err != nil {
		return nil, err
	}
	w := &sweepCold{svc, e.seed}
	for j := 0; j < 2; j++ {
		if _, err := w.op(e.warmIndex(j), nil); err != nil {
			w.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return w, nil
}

func (w *sweepCold) op(i int, tr *tracer) ([]byte, error) {
	return w.runSweep(coldSweep(opSeed(w.seed, i)), coldChildren, tr)
}
