package scenario

import "dualradio/internal/stats"

// Trial retention policies (Spec.TrialRetention). The policy bounds what a
// Result carries and therefore what the service caches and persists: "all"
// keeps every per-trial outcome (the default, and the only policy that
// reproduces the historical Result payload), "errors" keeps only trials
// that failed verification, "none" keeps aggregates alone.
const (
	RetainAll    = "all"
	RetainErrors = "errors"
	RetainNone   = "none"
)

// retainTrial reports whether a trial outcome is kept under the policy.
// The empty policy is the canonical spelling of RetainAll.
func retainTrial(policy string, t TrialResult) bool {
	switch policy {
	case RetainErrors:
		return !t.Valid
	case RetainNone:
		return false
	}
	return true
}

// Reducer folds TrialResults incrementally into the run Aggregate. It is
// the single aggregate implementation: Compiled.RunWithOptions streams
// trials through it (emitting live partial aggregates), and batch consumers
// fold a slice.
//
// Folding trials in trial-index order produces an Aggregate bit-identical
// to the historical batch computation: sums accumulate in the same order
// with the same operations, and the decided-round quantiles are
// stats.Accumulator's exact ones.
//
// A Reducer is not safe for concurrent use; RunWithOptions serializes
// folds.
type Reducer struct {
	trials  int
	valid   int
	rounds  *stats.Accumulator
	size    *stats.Accumulator
	decided *stats.Accumulator
	latency *stats.Accumulator
}

// NewReducer returns an empty reducer.
func NewReducer() *Reducer {
	return &Reducer{
		rounds:  stats.NewAccumulator(),
		size:    stats.NewAccumulator(),
		decided: stats.NewAccumulator(),
		latency: stats.NewAccumulator(),
	}
}

// Add folds one trial.
func (r *Reducer) Add(t TrialResult) {
	r.trials++
	if t.Valid {
		r.valid++
	}
	r.rounds.Add(float64(t.Rounds))
	r.size.Add(float64(t.Size))
	if t.DecidedRound > 0 {
		r.decided.Add(float64(t.DecidedRound))
	}
	if t.MeanLatency > 0 {
		r.latency.Add(t.MeanLatency)
	}
}

// Count returns the number of trials folded.
func (r *Reducer) Count() int { return r.trials }

// Aggregate materializes the current aggregate. It may be called after any
// prefix of trials — RunWithOptions uses that to stream partial
// aggregates — and the full-run call matches the legacy batch computation
// byte-for-byte.
func (r *Reducer) Aggregate() Aggregate {
	agg := Aggregate{Trials: r.trials}
	if r.trials == 0 {
		return agg
	}
	n := float64(r.trials)
	agg.ValidFraction = float64(r.valid) / n
	agg.MeanRounds = r.rounds.Sum() / n
	agg.MeanSize = r.size.Sum() / n
	if r.decided.Count() > 0 {
		agg.MeanDecidedRound = r.decided.Mean()
		agg.P90DecidedRound = r.decided.Quantile(90)
	}
	if r.latency.Count() > 0 {
		agg.MeanLatency = r.latency.Mean()
	}
	return agg
}

// AggregateTrials reduces a trial slice in order — the batch convenience
// wrapper over the streaming reducer.
func AggregateTrials(trials []TrialResult) Aggregate {
	r := NewReducer()
	for _, t := range trials {
		r.Add(t)
	}
	return r.Aggregate()
}
