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
	for runner.Step() {
		r := runner.Round()
		for i := 0; i < len(pending); i++ {
			c := pending[i]
			if c > r {
				continue
			}
			out.Checkpoints[c] = committedOutputs(procs)
			pending = append(pending[:i], pending[i+1:]...)
			i--
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
