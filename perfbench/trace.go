package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Spans of one op share Op; Parent indexes the span
// that caused this one (-1 for an op's root span).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// mean accumulates a sum and a sample count.
type mean struct {
	sum float64
	n   int
}

func (m mean) value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// tracer keeps spans in memory for the traced phase of a run and folds them
// into per-layer observations. A nil *tracer is the untraced mode: every
// method is a no-op, so ops carry one code path for both modes.
type tracer struct {
	t0    time.Time
	op    int
	stack []int
	spans []span

	// window marks ops inside the count window: the first traced ops of a
	// run, whose exact counts must repeat across runs of one seed.
	window bool

	obs    map[string]*mean   // span durations and sampled values, by metric name
	counts map[string]float64 // exact counts summed over the count window
}

func newTracer() *tracer {
	return &tracer{
		t0:     time.Now(),
		obs:    make(map[string]*mean),
		counts: make(map[string]float64),
	}
}

// beginOp opens op i's root span.
func (t *tracer) beginOp(i int, window bool) {
	if t == nil {
		return
	}
	t.op, t.window = i, window
	t.stack = t.stack[:0]
	t.begin("op")
}

// endOp closes the op's root span.
func (t *tracer) endOp() {
	if t == nil {
		return
	}
	t.end()
}

// begin opens a span named after the per-layer metric it feeds; a name
// ending in _us is observed in microseconds, every other in milliseconds.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, len(t.spans)-1)
}

// end closes the innermost open span and observes its duration.
func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.spans[i]
	s.End = int64(time.Since(t.t0))
	d := float64(s.End - s.Start)
	if len(s.Name) > 3 && s.Name[len(s.Name)-3:] == "_us" {
		t.observe(s.Name, d/1e3)
	} else {
		t.observe(s.Name, d/1e6)
	}
}

// observe adds one sample to the named per-layer mean.
func (t *tracer) observe(name string, v float64) {
	if t == nil {
		return
	}
	m := t.obs[name]
	if m == nil {
		m = &mean{}
		t.obs[name] = m
	}
	m.sum += v
	m.n++
}

// count adds an exact count; only ops inside the count window contribute.
func (t *tracer) count(name string, v float64) {
	if t == nil || !t.window {
		return
	}
	t.counts[name] += v
}

// spanSum returns the total duration in nanoseconds of the named spans.
func (t *tracer) spanSum(name string) float64 {
	var sum float64
	for _, s := range t.spans {
		if s.Name == name {
			sum += float64(s.End - s.Start)
		}
	}
	return sum
}

// write stores the spans as JSON, one array, when the run ends.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// goCounters reads the Go runtime's cumulative allocation and GC counters.
func goCounters() (allocBytes, gcCycles float64) {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(samples)
	return float64(samples[0].Value.Uint64()), float64(samples[1].Value.Uint64())
}
