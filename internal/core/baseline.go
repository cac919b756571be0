package core

import (
	"fmt"

	"dualradio/internal/sim"
)

// BaselineCCDSProcess is the naive CCDS construction the paper uses as its
// point of comparison in Section 5: build an MIS, then give every neighbor
// of every MIS node a chance to announce, and announce again what was heard
// — O(Δ·polylog n) rounds regardless of message size, versus the banned-list
// algorithm's O(Δ·log²n/b + log³n). It exercises the same enumeration
// connect machinery as the Section 6 algorithm, but with a 0-complete
// detector and a single MIS.
type BaselineCCDSProcess struct {
	cfg   CCDSConfig
	mis   *MISProcess
	enum  *enumConnect
	out   int
	done  bool
	begun bool
	total int
}

var _ sim.Process = (*BaselineCCDSProcess)(nil)

// NewBaselineCCDSProcess validates cfg and returns a ready process.
func NewBaselineCCDSProcess(cfg CCDSConfig) (*BaselineCCDSProcess, error) {
	misCfg := MISConfig{
		ID:       cfg.ID,
		N:        cfg.N,
		Detector: cfg.Detector,
		Filter:   FilterDetector,
		Params:   cfg.Params,
		Rng:      cfg.Rng,
	}
	inner, err := NewMISProcess(misCfg)
	if err != nil {
		return nil, err
	}
	p := &BaselineCCDSProcess{cfg: cfg, mis: inner, out: sim.Undecided}
	p.enum, err = newEnumConnect(cfg.ID, cfg.N, cfg.B, cfg.Delta, cfg.Detector,
		cfg.Params, cfg.Rng, false, p.join)
	if err != nil {
		return nil, err
	}
	p.total = inner.Rounds() + p.enum.Rounds()
	return p, nil
}

func (p *BaselineCCDSProcess) join() { p.out = 1 }

// BaselineCCDSRounds returns the naive algorithm's fixed total running time
// — O(Δ·polylog n) rounds regardless of message size.
func BaselineCCDSRounds(n, delta, b int, p Params) (int, error) {
	es, err := enumScheduleFor(n, delta, b, p)
	if err != nil {
		return 0, err
	}
	return misScheduleFor(n, p).total + es.total, nil
}

// TauCCDSRounds returns the Section 6 algorithm's fixed total running time
// for mistake bound τ.
func TauCCDSRounds(n, delta, b int, p Params, tau int) (int, error) {
	if tau < 0 {
		return 0, fmt.Errorf("core: tau must be non-negative, got %d", tau)
	}
	es, err := enumScheduleFor(n, delta, b, p)
	if err != nil {
		return 0, err
	}
	return (tau+1)*misScheduleFor(n, p).total + es.total, nil
}

// Rounds returns the fixed total running time.
func (p *BaselineCCDSProcess) Rounds() int { return p.total }

// Output implements sim.Process.
func (p *BaselineCCDSProcess) Output() int { return p.out }

// Done implements sim.Process.
func (p *BaselineCCDSProcess) Done() bool { return p.done }

// InMIS reports whether the process joined the underlying MIS.
func (p *BaselineCCDSProcess) InMIS() bool { return p.mis.InMIS() }

// Broadcast implements sim.Process: the MIS subroutine's sleep windows pass
// through unchanged, and the enumeration schedule reports its own (see
// enumConnect.Broadcast for the coin pre-consumption that keeps skipped
// executions bit-identical).
func (p *BaselineCCDSProcess) Broadcast(round int) (sim.Message, int) {
	misTotal := p.mis.Rounds()
	if round < misTotal {
		// MIS wake rounds never exceed the MIS schedule end, which is
		// exactly where the enumeration takes over.
		return p.mis.Broadcast(round)
	}
	if !p.enterSearch(round) {
		return nil, round + 1
	}
	m, wake := p.enum.Broadcast(round - misTotal)
	return m, misTotal + wake
}

// enterSearch finalizes the MIS phase on the first search round; it reports
// false once the schedule has ended (fixing the terminal output).
func (p *BaselineCCDSProcess) enterSearch(round int) bool {
	if round >= p.total {
		p.done = true
		if p.out == sim.Undecided {
			p.out = 0
		}
		return false
	}
	if !p.begun {
		p.begun = true
		p.enum.start(p.mis.InMIS(), p.mis.Masters())
		if p.mis.InMIS() {
			p.out = 1
		}
	}
	return true
}

// Receive implements sim.Process.
func (p *BaselineCCDSProcess) Receive(round int, msg sim.Message) {
	misTotal := p.mis.Rounds()
	if round < misTotal {
		p.mis.Receive(round, msg)
		return
	}
	if p.begun {
		p.enum.Receive(round-misTotal, msg)
	}
}
