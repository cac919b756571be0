package scenario

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"dualradio/internal/harness"
)

// Result is a complete scenario run: the aggregate the service reports plus
// the per-trial outcomes the spec's trial_retention policy kept. It is
// deterministic in the canonical spec, so results cached under the spec
// hash are indistinguishable from fresh runs. The detvet:hashed marker
// holds its JSON encoding (and, recursively, Aggregate's and
// TrialResult's) to the hashneutral field discipline: these bytes are
// persisted write-once and byte-compared across restarts and workers.
//
//detvet:hashed
type Result struct {
	// SpecHash is the canonical spec hash the run was keyed by.
	SpecHash string `json:"spec_hash"`
	// Algorithm and N echo the headline spec fields for readability.
	Algorithm string `json:"algorithm"`
	N         int    `json:"n"`
	// TrialRetention echoes the spec's policy when it is not the default
	// "all" — i.e. when Trials is intentionally partial.
	TrialRetention string `json:"trial_retention,omitempty"`
	// Trials holds the retained per-trial outcomes in trial order: every
	// trial under "all" (the default), only verification failures under
	// "errors", none under "none".
	Trials []TrialResult `json:"trials,omitempty"`
	// Aggregate reduces every executed trial, regardless of retention.
	Aggregate Aggregate `json:"aggregate"`
}

// Aggregate summarizes a run's trials.
type Aggregate struct {
	// Trials is the trial count.
	Trials int `json:"trials"`
	// ValidFraction is the fraction of trials whose outputs verified.
	ValidFraction float64 `json:"valid_fraction"`
	// MeanRounds is the mean executed rounds.
	MeanRounds float64 `json:"mean_rounds"`
	// MeanDecidedRound and P90DecidedRound summarize decision latency over
	// the trials where every process decided (DecidedRound > 0), the same
	// filtering the experiment tables apply.
	MeanDecidedRound float64 `json:"mean_decided_round,omitempty"`
	P90DecidedRound  float64 `json:"p90_decided_round,omitempty"`
	// MeanSize is the mean output-structure size.
	MeanSize float64 `json:"mean_size"`
	// MeanLatency is the mean of the trials' mean local decision latencies
	// (AlgoAsyncMIS only).
	MeanLatency float64 `json:"mean_latency,omitempty"`
}

// Progress reports one completed trial to RunWithOptions' callback,
// together with the streaming reduction state. Trials complete in
// scheduling order (which is nondeterministic with several workers), but
// the reducer folds them strictly in trial-index order: Folded is the
// length of the contiguous trial prefix reduced so far and Aggregate
// summarizes exactly that prefix, so the streamed aggregates form a
// deterministic sequence ending in the run's final Aggregate.
type Progress struct {
	// Trial is the trial that just completed.
	Trial TrialResult
	// Folded counts the contiguous prefix of trials reduced so far.
	Folded int
	// Aggregate summarizes the folded prefix.
	Aggregate Aggregate
}

// FaultHook, if configured, runs before every trial with (trial, attempt)
// and may inject an error, a delay, or a panic. It exists for deterministic
// fault injection; production runs leave it nil.
type FaultHook func(trial, attempt int) error

// RunOptions configures RunWithOptions beyond the spec itself. The zero
// value runs sequentially with no callback, attempt 0, and no faults.
type RunOptions struct {
	// Workers is the trial fan-out (values < 2 run sequentially).
	Workers int
	// OnProgress, if non-nil, is invoked once per completed trial in
	// completion order; calls are serialized, so the callback needs no
	// locking of its own.
	OnProgress func(Progress)
	// Attempt is the retry attempt this run represents (0 = first). It is
	// threaded to the fault hook so attempt-gated faults can vanish on
	// retry; it never affects the trials themselves.
	Attempt int
	// Fault is the optional fault-injection hook.
	Fault FaultHook
	// ObserveTrial, if non-nil, receives each completed trial's wallclock
	// duration (successful trials only). Calls may be concurrent — one per
	// trial worker — so observers must be safe for concurrent use.
	ObserveTrial func(d time.Duration)
}

// safeTrial runs one trial behind a recover boundary: a panicking trial —
// from a poisoned input, a bug in an algorithm layer, or an injected
// fault — becomes that trial's error instead of crashing the process. An
// error-typed panic value is wrapped (preserving transient marking); any
// other value is rendered with its stack so the report stays debuggable.
func (c *Compiled) safeTrial(trial int, opts RunOptions) (res TrialResult, err error) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if perr, ok := p.(error); ok {
			err = fmt.Errorf("scenario: trial %d panicked: %w", trial, perr)
			return
		}
		err = fmt.Errorf("scenario: trial %d panicked: %v\n%s", trial, p, debug.Stack())
	}()
	if opts.Fault != nil {
		if ferr := opts.Fault(trial, opts.Attempt); ferr != nil {
			return TrialResult{}, ferr
		}
	}
	return c.RunTrial(trial)
}

// RunWithOptions executes every trial per opts, scheduling them through
// harness.TrialsWorkers, and streams the outcomes through the reducer. The
// results — retained trials and aggregate — are identical for every worker
// count.
//
// Cancellation is observed between trials: once ctx is done no new trial
// starts, in-flight trials finish, and the run returns ctx's error with a
// nil Result. A trial error — including a recovered trial panic — aborts
// the same way and is reported in trial order (the error a sequential loop
// would have surfaced first).
func (c *Compiled) RunWithOptions(ctx context.Context, opts RunOptions) (*Result, error) {
	count := c.spec.Trials
	retention := c.spec.TrialRetention
	buf := make([]TrialResult, count) // reorder buffer for in-order folding
	arrived := make([]bool, count)
	red := NewReducer()
	var retained []TrialResult
	cursor := 0       // next trial index to fold
	failedAt := count // lowest failed trial index so far
	var mu sync.Mutex // guards the fold state, failedAt, and OnProgress
	_, err := harness.TrialsWorkers(count, opts.Workers, func(i int) (struct{}, error) {
		// TrialsWorkers hands out i before this check, so a higher trial
		// may already have failed while i was pending: only trials above
		// the lowest failure are skipped, or a later trial's error could
		// be reported in place of the one a sequential loop hits first.
		mu.Lock()
		skip := i > failedAt
		mu.Unlock()
		if skip || ctx.Err() != nil {
			return struct{}{}, nil
		}
		trialStart := time.Now() //detvet:wallclock per-trial latency observation only; never reaches TrialResult or the aggregate
		r, err := c.safeTrial(i, opts)
		if err != nil {
			mu.Lock()
			failedAt = min(failedAt, i)
			mu.Unlock()
			return struct{}{}, err
		}
		if opts.ObserveTrial != nil {
			opts.ObserveTrial(time.Since(trialStart)) //detvet:wallclock feeds the trial_duration histogram, not the result
		}
		mu.Lock()
		defer mu.Unlock()
		buf[i], arrived[i] = r, true
		for cursor < count && arrived[cursor] {
			t := buf[cursor]
			red.Add(t)
			if retainTrial(retention, t) {
				retained = append(retained, t)
			}
			buf[cursor] = TrialResult{} // folded; drop the buffered copy
			cursor++
		}
		if opts.OnProgress != nil {
			opts.OnProgress(Progress{Trial: r, Folded: cursor, Aggregate: red.Aggregate()})
		}
		return struct{}{}, nil
	})
	if err != nil {
		return nil, err
	}
	if cursor < count {
		// Only cancellation leaves trials unrun without an error.
		return nil, ctx.Err()
	}
	res := &Result{
		SpecHash:  c.hash,
		Algorithm: c.spec.Algorithm,
		N:         c.spec.Network.N,
		Trials:    retained,
		Aggregate: red.Aggregate(),
	}
	if retention != "" && retention != RetainAll {
		res.TrialRetention = retention
	}
	return res, nil
}
