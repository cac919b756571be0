package server

import (
	"fmt"
	"sync"
	"time"

	"dualradio/internal/scenario"
)

// Sweep is one submitted parameter sweep: a batch of child jobs expanded
// from a SweepSpec, tracked together so callers get a per-child rollup and
// a completion event stream without polling every child. Children are
// ordinary jobs — they appear under /v1/jobs, share the queue, the result
// cache, and the persistent store — and the sweep only observes them.
//
// A sweep holds a child's *Job only while the child is live. When the
// child reaches a terminal state the sweep keeps a childRecord of what its
// endpoints read and drops the job, so the registry is the only holder of
// a finished job and Config.History bounds every resident one. What a
// retained sweep keeps is its expansion, its event log and one record per
// child.
type Sweep struct {
	id    string
	hash  string
	name  string
	total int
	exp   *scenario.Expansion // immutable; axes + grid for report pivoting

	mu       sync.Mutex
	children []sweepChild // grid order
	done     int          // children that reached a terminal state
	created  time.Time
	finished time.Time
	events   []SweepEvent
	wake     chan struct{} // closed and replaced whenever events grows
}

// sweepChild is one grid cell of a sweep: the live job, or the record its
// terminal hook stored in the job's place.
type sweepChild struct {
	job *Job // nil once terminal
	rec childRecord
}

// childRecord is what the sweep endpoints read of one child. The child's
// name, spec hash and trial total live in the sweep's expansion.
type childRecord struct {
	id        string
	status    JobStatus
	cached    bool
	completed int
	phases    PhaseView           // meaningful once terminal
	agg       *scenario.Aggregate // nil unless done
}

// record snapshots what a sweep reads of its child job.
func (j *Job) record() childRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	r := childRecord{id: j.id, status: j.status, cached: j.cached, completed: j.completed}
	if pv := j.phaseViewLocked(); pv != nil {
		r.phases = *pv
	}
	if j.result != nil {
		agg := j.result.Aggregate
		r.agg = &agg
	}
	return r
}

// SweepEvent is one NDJSON record on a sweep's event stream: "queued" at
// submission, one "child" per child reaching a terminal state (in
// completion order, so concurrently running children interleave), and
// finally "done" when every child is terminal.
type SweepEvent struct {
	Type  string `json:"type"`
	Sweep string `json:"sweep"`
	// TS is the wallclock append time — observability only, never hashed.
	TS time.Time `json:"ts"`
	// Job, SpecHash, Status, and Cached describe the finished child on
	// "child" events.
	Job      string    `json:"job,omitempty"`
	SpecHash string    `json:"spec_hash,omitempty"`
	Status   JobStatus `json:"status,omitempty"`
	Cached   bool      `json:"cached,omitempty"`
	// Completed and Total count terminal children.
	Completed int `json:"completed"`
	Total     int `json:"total"`
}

func newSweep(id string, exp *scenario.Expansion) *Sweep {
	sw := &Sweep{
		id:       id,
		hash:     exp.Hash(),
		name:     exp.Spec.Name,
		exp:      exp,
		total:    len(exp.Children),
		children: make([]sweepChild, len(exp.Children)),
		created:  time.Now(), //detvet:wallclock sweep age for status views; not part of any hash or report
		// "queued", one "child" per child, then "done": sized once, so a
		// retained sweep carries no growth slack.
		events: make([]SweepEvent, 0, len(exp.Children)+2),
		wake:   make(chan struct{}),
	}
	sw.appendLocked(SweepEvent{Type: "queued"})
	return sw
}

// appendLocked records an event and wakes stream readers. Callers must
// hold mu — except newSweep, whose sweep is not yet shared.
func (sw *Sweep) appendLocked(e SweepEvent) {
	e.Sweep = sw.id
	e.TS = time.Now() //detvet:wallclock NDJSON event timestamp; hash-excluded and shape-stable
	e.Completed = sw.done
	e.Total = sw.total
	sw.events = append(sw.events, e)
	close(sw.wake)
	sw.wake = make(chan struct{})
}

// attach stores child i's job once it is admitted. A child can finish
// first — a cache hit completes inside startJobLocked, a worker can finish
// a queued one — and then its record stands and the job is not stored.
func (sw *Sweep) attach(i int, j *Job) {
	sw.mu.Lock()
	if sw.children[i].rec.status == "" {
		sw.children[i].job = j
	}
	sw.mu.Unlock()
}

// childTerminal is child i's terminal hook: it replaces the job with its
// record. It runs with no job or server lock held (see Job.onTerminal),
// exactly once per child.
func (sw *Sweep) childTerminal(i int, j *Job) {
	rec := j.record()
	sw.mu.Lock()
	sw.children[i] = sweepChild{rec: rec}
	sw.done++
	sw.appendLocked(SweepEvent{
		Type:     "child",
		Job:      rec.id,
		SpecHash: sw.exp.Children[i].Hash(),
		Status:   rec.status,
		Cached:   rec.cached,
	})
	if sw.done == sw.total {
		sw.finished = time.Now() //detvet:wallclock sweep duration for status views only
		sw.appendLocked(SweepEvent{Type: "done"})
	}
	sw.mu.Unlock()
}

// records returns every child's record in grid order: the stored record of
// a finished child, a fresh one read from a live child's job. A live job is
// never pruned, so it is in the registry too.
func (sw *Sweep) records() []childRecord {
	sw.mu.Lock()
	children := append([]sweepChild(nil), sw.children...)
	sw.mu.Unlock()
	recs := make([]childRecord, len(children))
	for i, c := range children {
		if c.job != nil {
			recs[i] = c.job.record()
		} else {
			recs[i] = c.rec
		}
	}
	return recs
}

// terminal reports whether every child has reached a terminal state.
func (sw *Sweep) terminal() bool {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.done == sw.total
}

// eventsSince mirrors Job.eventsSince for the sweep stream.
func (sw *Sweep) eventsSince(from int) (events []SweepEvent, terminal bool, wake <-chan struct{}) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if from < len(sw.events) {
		return append([]SweepEvent(nil), sw.events[from:]...), sw.done == sw.total, nil
	}
	return nil, sw.done == sw.total, sw.wake
}

// reportData hands the report engine its inputs: the sweep's expansion,
// the child aggregates in grid order, and the presence mask. A full report
// (partial=false) requires every child done — a failed or cancelled child
// has no aggregate, and a silently partial pivot would misrepresent the
// grid. Partial mode instead masks out children that are not (yet) done,
// so callers can watch an in-flight sweep converge; done counts the
// present children so the caller can label the report's completeness.
func (sw *Sweep) reportData(partial bool) (exp *scenario.Expansion, aggs []scenario.Aggregate, present []bool, done int, err error) {
	recs := sw.records()
	aggs = make([]scenario.Aggregate, len(recs))
	present = make([]bool, len(recs))
	for i, r := range recs {
		if r.status != StatusDone {
			if !partial {
				return nil, nil, nil, 0, fmt.Errorf("child %s is %s, not done", r.id, r.status)
			}
			continue
		}
		if r.agg == nil {
			if !partial {
				return nil, nil, nil, 0, fmt.Errorf("child %s has no result", r.id)
			}
			continue
		}
		aggs[i] = *r.agg
		present[i] = true
		done++
	}
	return sw.exp, aggs, present, done, nil
}

// PhaseStat summarizes one timing phase across a sweep's terminal
// children, in milliseconds.
type PhaseStat struct {
	Count  int     `json:"count"`
	MinMS  float64 `json:"min_ms"`
	MeanMS float64 `json:"mean_ms"`
	MaxMS  float64 `json:"max_ms"`
	SumMS  float64 `json:"sum_ms"`
}

// SweepStats is the GET /v1/sweeps/{id}/stats payload: per-phase timing
// rollups over the terminal children, plus status and cache-hit counts so
// the reader can interpret them (cached children contribute near-zero
// totals and no trial/reduce time).
type SweepStats struct {
	ID       string            `json:"id"`
	Total    int               `json:"total"`
	Terminal int               `json:"terminal"`
	Cached   int               `json:"cached"`
	Counts   map[JobStatus]int `json:"counts"`
	// Phases keys: queue_wait, trials, reduce, persist, total.
	Phases map[string]PhaseStat `json:"phases"`
}

// Stats rolls the terminal children's phase breakdowns up into per-phase
// count/min/mean/max/sum. Non-terminal children are excluded (their
// phases are not final); callers can poll until Terminal == Total.
func (sw *Sweep) Stats() SweepStats {
	st := SweepStats{
		ID:     sw.id,
		Total:  sw.total,
		Counts: make(map[JobStatus]int, 4),
		Phases: make(map[string]PhaseStat, 5),
	}
	fold := func(name string, v float64) {
		ps := st.Phases[name]
		if ps.Count == 0 || v < ps.MinMS {
			ps.MinMS = v
		}
		if v > ps.MaxMS {
			ps.MaxMS = v
		}
		ps.SumMS += v
		ps.Count++
		st.Phases[name] = ps
	}
	for _, r := range sw.records() {
		st.Counts[r.status]++
		if !r.status.terminal() {
			continue
		}
		st.Terminal++
		if r.cached {
			st.Cached++
		}
		fold("queue_wait", r.phases.QueueWaitMS)
		fold("trials", r.phases.TrialsMS)
		fold("reduce", r.phases.ReduceMS)
		fold("persist", r.phases.PersistMS)
		fold("total", r.phases.TotalMS)
	}
	for name, ps := range st.Phases {
		ps.MeanMS = ps.SumMS / float64(ps.Count)
		st.Phases[name] = ps
	}
	return st
}

// CancelChildren cancels every non-terminal child and reports how many
// cancellations took effect.
func (sw *Sweep) CancelChildren() int {
	sw.mu.Lock()
	var live []*Job
	for _, c := range sw.children {
		if c.job != nil {
			live = append(live, c.job)
		}
	}
	sw.mu.Unlock()
	n := 0
	for _, j := range live {
		if j.Cancel() {
			n++
		}
	}
	return n
}

// SweepChildView is one child's summary in the sweep rollup.
type SweepChildView struct {
	ID       string    `json:"id"`
	Name     string    `json:"name,omitempty"`
	SpecHash string    `json:"spec_hash"`
	Status   JobStatus `json:"status"`
	Cached   bool      `json:"cached,omitempty"`
	// Completed and Total track the child's trial progress.
	Completed int `json:"completed"`
	Total     int `json:"total"`
}

// SweepView is the JSON representation served by the sweeps endpoints.
type SweepView struct {
	ID        string `json:"id"`
	SweepHash string `json:"sweep_hash"`
	Name      string `json:"name,omitempty"`
	// Status is "running" until every child is terminal, then "done".
	Status   string     `json:"status"`
	Created  time.Time  `json:"created"`
	Finished *time.Time `json:"finished,omitempty"`
	// Total counts children; Counts rolls their statuses up.
	Total  int               `json:"total"`
	Counts map[JobStatus]int `json:"counts"`
	// Children lists per-child summaries in grid order (full view only).
	Children []SweepChildView `json:"children,omitempty"`
}

// View snapshots the sweep. withChildren includes the per-child summaries;
// listings omit them.
func (sw *Sweep) View(withChildren bool) SweepView {
	sw.mu.Lock()
	finished, created := sw.finished, sw.created
	done := sw.done
	sw.mu.Unlock()
	v := SweepView{
		ID:        sw.id,
		SweepHash: sw.hash,
		Name:      sw.name,
		Status:    "running",
		Created:   created,
		Total:     sw.total,
		Counts:    make(map[JobStatus]int, 4),
	}
	if done == sw.total {
		v.Status = "done"
	}
	if !finished.IsZero() {
		t := finished
		v.Finished = &t
	}
	for i, r := range sw.records() {
		v.Counts[r.status]++
		if withChildren {
			comp := sw.exp.Children[i]
			v.Children = append(v.Children, SweepChildView{
				ID:        r.id,
				Name:      comp.Spec().Name,
				SpecHash:  comp.Hash(),
				Status:    r.status,
				Cached:    r.cached,
				Completed: r.completed,
				Total:     comp.Trials(),
			})
		}
	}
	return v
}
