package harness

import (
	"errors"

	"dualradio/internal/core"
	"dualradio/internal/detector"
	"dualradio/internal/sim"
)

// ContinuousOutcome records the committed outputs of a continuous CCDS
// execution at each requested checkpoint round.
type ContinuousOutcome struct {
	// Period is δ_CDS, the rerun period in rounds.
	Period int
	// Checkpoints maps each requested round to the committed outputs
	// observed immediately after that round.
	Checkpoints map[int][]int
	// Final holds the committed outputs when the execution stopped.
	Final []int
	// Rounds is the number of rounds executed.
	Rounds int
}

// RunContinuousCCDS executes the Section 8 continuous CCDS with the given
// dynamic detector for the given number of rerun periods, sampling committed
// outputs at the supplied checkpoint rounds.
func (s *Scenario) RunContinuousCCDS(dyn detector.Dynamic, periods int, checkpoints []int) (*ContinuousOutcome, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	if s.B <= 0 {
		return nil, errors.New("harness: CCDS requires a positive message bound B")
	}
	if dyn == nil {
		return nil, errors.New("harness: nil dynamic detector")
	}
	n := s.Net.N()
	delta := s.Net.Delta()
	procs := make([]sim.Process, n)
	var period int
	for v := 0; v < n; v++ {
		node := v
		p, err := core.NewContinuousCCDSProcess(core.ContinuousConfig{
			ID:    s.Asg.ID(v),
			N:     n,
			Delta: delta,
			B:     s.B,
			DetectorAt: func(round int) *detector.Set {
				return dyn.At(round).Set(node)
			},
			Params: s.params(),
			Rng:    s.RngFor(v),
		})
		if err != nil {
			return nil, err
		}
		procs[v] = p
		period = p.Period()
	}
	runner, err := sim.NewRunner(s.config(procs, periods*period+1))
	if err != nil {
		return nil, err
	}
	out := &ContinuousOutcome{Period: period, Checkpoints: make(map[int][]int)}
	pending := append([]int(nil), checkpoints...)
	// Under the leap engine the clock can jump over broadcast-free
	// stretches, so a checkpoint round may never be observed exactly. The
	// skipped rounds cannot change committed outputs (no broadcasts, hence
	// no receptions and no period boundaries), so a checkpoint inside a
	// jumped stretch reports the snapshot taken before the jump.
	var prev []int
	if s.Leap {
		prev = committedOutputs(procs)
	}
	for runner.Step() {
		r := runner.Round()
		for i := 0; i < len(pending); i++ {
			c := pending[i]
			if c > r {
				continue
			}
			if c == r || prev == nil {
				out.Checkpoints[c] = committedOutputs(procs)
			} else {
				out.Checkpoints[c] = prev
			}
			pending = append(pending[:i], pending[i+1:]...)
			i--
		}
		if s.Leap && len(pending) > 0 {
			prev = committedOutputs(procs)
		}
	}
	if err := runner.Err(); err != nil {
		return nil, err
	}
	out.Final = committedOutputs(procs)
	out.Rounds = runner.Round()
	return out, nil
}

func committedOutputs(procs []sim.Process) []int {
	out := make([]int, len(procs))
	for v, p := range procs {
		out[v] = p.Output()
	}
	return out
}
