package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "Requests served.")
	c.Inc()
	c.Add(2)
	if got := c.Value(); got != 3 {
		t.Fatalf("counter value %v, want 3", got)
	}
	g := r.Gauge("depth", "Queue depth.")
	g.Set(5)
	g.Add(-2)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge value %v, want 3", got)
	}
	r.GaugeFunc("live", "Computed at scrape.", func() float64 { return 42 })
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"requests_total 3\n", "depth 3\n", "live 42\n"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("exposition lacks %q:\n%s", want, b.String())
		}
	}
}

func TestCounterRejectsDecrease(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ups_total", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("negative counter add did not panic")
		}
	}()
	c.Add(-1)
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count %d, want 5", h.Count())
	}
	if h.Sum() != 55.65 {
		t.Fatalf("sum %v, want 55.65", h.Sum())
	}
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	// Bucket bounds are inclusive: 0.1 lands in le="0.1".
	want := `# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.1"} 2
lat_seconds_bucket{le="1"} 3
lat_seconds_bucket{le="10"} 4
lat_seconds_bucket{le="+Inf"} 5
lat_seconds_sum 55.65
lat_seconds_count 5
`
	if b.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestExpositionGolden locks the full multi-family output format: HELP and
// TYPE headers, name-sorted families, label-sorted series, escaping, and
// the histogram block shape.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	jobs := r.CounterVec("jobs_total", "Jobs by outcome.", "outcome")
	jobs.With("done").Add(4)
	jobs.With("failed").Inc()
	r.Gauge("alpha", "Sorted first despite late registration.").Set(1)
	esc := r.CounterVec("esc_total", "Escaping.", "path")
	esc.With("a\\b\"c\nd").Inc()
	h := r.HistogramVec("dur_seconds", "Durations.", []float64{0.5}, "preset")
	h.With("mis-quick").Observe(0.25)
	h.With("mis-quick").Observe(2)

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP alpha Sorted first despite late registration.
# TYPE alpha gauge
alpha 1
# HELP dur_seconds Durations.
# TYPE dur_seconds histogram
dur_seconds_bucket{preset="mis-quick",le="0.5"} 1
dur_seconds_bucket{preset="mis-quick",le="+Inf"} 2
dur_seconds_sum{preset="mis-quick"} 2.25
dur_seconds_count{preset="mis-quick"} 2
# HELP esc_total Escaping.
# TYPE esc_total counter
esc_total{path="a\\b\"c\nd"} 1
# HELP jobs_total Jobs by outcome.
# TYPE jobs_total counter
jobs_total{outcome="done"} 4
jobs_total{outcome="failed"} 1
`
	if b.String() != want {
		t.Fatalf("golden mismatch:\n%s\nwant:\n%s", b.String(), want)
	}
	// The golden output must also satisfy the lint contract.
	stats, err := Lint([]byte(b.String()))
	if err != nil {
		t.Fatalf("golden output fails lint: %v", err)
	}
	if stats.Histograms != 1 || stats.Counters != 2 || stats.Gauges != 1 {
		t.Fatalf("lint stats %+v", stats)
	}
	// Rendering twice is byte-identical (stable line order).
	var b2 strings.Builder
	if err := r.WriteProm(&b2); err != nil {
		t.Fatal(err)
	}
	if b.String() != b2.String() {
		t.Fatal("two renders of identical state differ")
	}
}

// TestSeriesCap: past the cap, new label sets collapse onto the overflow
// series instead of growing the family, and the drops are counted.
func TestSeriesCap(t *testing.T) {
	r := NewRegistry()
	r.SeriesCap = 3
	v := r.CounterVec("churn_total", "Worker churn.", "worker")
	v.With("w1").Inc()
	v.With("w2").Inc()
	v.With("w3").Inc()
	v.With("w4").Inc() // over cap: overflow
	v.With("w5").Inc() // over cap: same overflow series
	v.With("w1").Inc() // existing series still fine
	if got := r.DroppedSeries(); got != 2 {
		t.Fatalf("dropped series %d, want 2", got)
	}
	if got := v.With("_overflow").Value(); got != 2 {
		t.Fatalf("overflow series value %v, want 2", got)
	}
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "w4") || strings.Contains(b.String(), "w5") {
		t.Fatalf("capped series leaked into exposition:\n%s", b.String())
	}
	if !strings.Contains(b.String(), `churn_total{worker="_overflow"} 2`) {
		t.Fatalf("no overflow series in exposition:\n%s", b.String())
	}
}

// TestConcurrentObserves hammers one histogram and one counter vec from
// many goroutines — the -race check that instruments are lock-free-safe
// and the totals add up.
func TestConcurrentObserves(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "h", []float64{0.001, 0.01, 0.1, 1})
	v := r.CounterVec("ops_total", "ops", "kind")
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(float64(i%100) / 100)
				v.With([]string{"a", "b", "c"}[i%3]).Inc()
			}
		}(g)
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("histogram count %d, want %d", got, goroutines*perG)
	}
	total := v.With("a").Value() + v.With("b").Value() + v.With("c").Value()
	if total != goroutines*perG {
		t.Fatalf("counter total %v, want %d", total, goroutines*perG)
	}
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if _, err := Lint([]byte(b.String())); err != nil {
		t.Fatalf("post-hammer exposition fails lint: %v", err)
	}
}

func TestGaugeVecResetAndCollect(t *testing.T) {
	r := NewRegistry()
	hb := r.GaugeVec("hb_age_seconds", "Heartbeat age.", "worker")
	live := []string{"w1", "w2"}
	r.OnCollect(func() {
		hb.Reset()
		for _, w := range live {
			hb.With(w).Set(1.5)
		}
	})
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `hb_age_seconds{worker="w2"} 1.5`) {
		t.Fatalf("collect hook did not populate gauges:\n%s", b.String())
	}
	live = []string{"w2"}
	b.Reset()
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), `worker="w1"`) {
		t.Fatalf("reset did not drop the dead worker's series:\n%s", b.String())
	}
}

func TestRegistrationConflictsPanic(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "h")
	for name, fn := range map[string]func(){
		"kind conflict":  func() { r.Gauge("x_total", "h") },
		"invalid name":   func() { r.Counter("0bad", "h") },
		"invalid label":  func() { r.CounterVec("y_total", "h", "le") },
		"empty buckets":  func() { r.Histogram("z_seconds", "h", nil) },
		"inf bucket":     func() { r.Histogram("w_seconds", "h", []float64{1, inf()}) },
		"unsorted":       func() { r.Histogram("v_seconds", "h", []float64{2, 1}) },
		"label arity":    func() { r.CounterVec("a_total", "h", "k").With("x", "y") },
		"schema changed": func() { r.CounterVec("x_total", "h", "k") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
