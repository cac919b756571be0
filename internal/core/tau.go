package core

import (
	"fmt"

	"dualradio/internal/detector"
	"dualradio/internal/sim"
)

// TauCCDSProcess is the Section 6 CCDS algorithm for τ-complete link
// detectors, τ = O(1). It runs τ+1 sequential iterations of the Section 4
// MIS algorithm — with every message labeled by the sender's detector set
// and receptions filtered to mutual detector membership, so maximality is
// defined over H — and then connects the resulting dominating structure with
// the neighbor-enumeration procedure, for O(Δ·polylog n) rounds in total.
//
// A process that wins any iteration becomes a dominator and stays silent in
// later iterations; a process that never wins has received MIS messages from
// τ+1 distinct H-neighbors, at least one of which must be a genuine
// G-neighbor (Lemma 6.1).
type TauCCDSProcess struct {
	cfg  CCDSConfig
	tau  int
	enum *enumConnect

	iterations int
	misTotal   int
	total      int

	inner      *MISProcess
	wonIter    int
	mastersAcc *detector.Set

	out   int
	done  bool
	begun bool
}

var _ sim.Process = (*TauCCDSProcess)(nil)

// NewTauCCDSProcess returns a process for the given mistake bound τ >= 0.
func NewTauCCDSProcess(cfg CCDSConfig, tau int) (*TauCCDSProcess, error) {
	if tau < 0 {
		return nil, fmt.Errorf("core: tau must be non-negative, got %d", tau)
	}
	p := &TauCCDSProcess{
		cfg:        cfg,
		tau:        tau,
		iterations: tau + 1,
		wonIter:    -1,
		mastersAcc: detector.NewSet(cfg.N),
		out:        sim.Undecided,
	}
	var err error
	p.enum, err = newEnumConnect(cfg.ID, cfg.N, cfg.B, cfg.Delta, cfg.Detector,
		cfg.Params, cfg.Rng, true, p.join)
	if err != nil {
		return nil, err
	}
	p.misTotal = misScheduleFor(cfg.N, cfg.Params).total
	p.total = p.iterations*p.misTotal + p.enum.Rounds()
	// Validate the MIS configuration once up front.
	if _, err := p.newIterationMIS(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *TauCCDSProcess) join() { p.out = 1 }

func (p *TauCCDSProcess) newIterationMIS() (*MISProcess, error) {
	return NewMISProcess(MISConfig{
		ID:            p.cfg.ID,
		N:             p.cfg.N,
		Detector:      p.cfg.Detector,
		Filter:        FilterMutual,
		LabelMessages: true,
		Params:        p.cfg.Params,
		Rng:           p.cfg.Rng,
	})
}

// Rounds returns the fixed total running time.
func (p *TauCCDSProcess) Rounds() int { return p.total }

// Output implements sim.Process.
func (p *TauCCDSProcess) Output() int { return p.out }

// Done implements sim.Process.
func (p *TauCCDSProcess) Done() bool { return p.done }

// Dominator reports whether the process won some MIS iteration.
func (p *TauCCDSProcess) Dominator() bool { return p.wonIter >= 0 }

// WonIteration returns the iteration index the process won, or -1.
func (p *TauCCDSProcess) WonIteration() int { return p.wonIter }

// harvestMasters folds the finished iteration's observations into the
// accumulated master set.
func (p *TauCCDSProcess) harvestMasters() {
	if p.inner == nil {
		return
	}
	for _, id := range p.inner.Masters() {
		p.mastersAcc.Add(id)
	}
}

// Broadcast implements sim.Process. During the iterated MIS phase, a
// participant's sleep windows come from the inner MIS instance (clamped to
// the iteration by construction: MIS wake rounds never exceed its schedule
// end) and an established dominator sleeps out each remaining iteration
// whole; the enumeration schedule then reports its own windows (see
// enumConnect.Broadcast for the coin pre-consumption that keeps skipped
// executions bit-identical).
func (p *TauCCDSProcess) Broadcast(round int) (sim.Message, int) {
	misPhase := p.iterations * p.misTotal
	if round < misPhase {
		local := round % p.misTotal
		inner := p.iterationInner(local)
		if inner == nil {
			// Silent (and randomness-free) until the next iteration
			// boundary, where fresh bookkeeping runs.
			return nil, round - local + p.misTotal
		}
		msg, wake := inner.Broadcast(local)
		p.noteWin(round)
		return msg, round - local + wake
	}
	if !p.enterSearch(round) {
		return nil, round + 1
	}
	msg, wake := p.enum.Broadcast(round - misPhase)
	return msg, misPhase + wake
}

// iterationInner runs the iteration-boundary bookkeeping (harvest the
// finished iteration, hand participants a fresh MIS instance) and returns
// the current iteration's inner process, nil for established dominators.
func (p *TauCCDSProcess) iterationInner(local int) *MISProcess {
	if local == 0 {
		p.harvestMasters()
		p.inner = nil
		if p.wonIter < 0 {
			// Participants get a fresh MIS instance; winners of
			// earlier iterations stay silent. The config was validated
			// up front, so construction cannot fail here.
			inner, err := p.newIterationMIS()
			if err == nil {
				p.inner = inner
			}
		}
	}
	return p.inner
}

// noteWin records the first iteration whose inner MIS the process joined.
func (p *TauCCDSProcess) noteWin(round int) {
	if p.wonIter < 0 && p.inner.InMIS() {
		p.wonIter = round / p.misTotal
		p.out = 1
	}
}

// enterSearch finalizes the MIS phase on the first enumeration round; it
// reports false once the schedule has ended (fixing the terminal output).
func (p *TauCCDSProcess) enterSearch(round int) bool {
	if round >= p.total {
		p.done = true
		if p.out == sim.Undecided {
			p.out = 0
		}
		return false
	}
	if !p.begun {
		p.begun = true
		p.harvestMasters()
		p.inner = nil
		p.enum.start(p.wonIter >= 0, p.mastersAcc.IDs())
	}
	return true
}

// Receive implements sim.Process.
func (p *TauCCDSProcess) Receive(round int, msg sim.Message) {
	misPhase := p.iterations * p.misTotal
	if round < misPhase {
		if p.inner != nil {
			p.inner.Receive(round%p.misTotal, msg)
		}
		return
	}
	if p.begun {
		p.enum.Receive(round-misPhase, msg)
	}
}
