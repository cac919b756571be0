package core

import (
	"fmt"
	"math/rand/v2"

	"dualradio/internal/detector"
	"dualradio/internal/sim"
)

// ContinuousConfig configures one process of the Section 8 continuous CCDS
// algorithm for dynamic link detectors.
type ContinuousConfig struct {
	// ID is this process's id in [1, n].
	ID int
	// N is the network size.
	N int
	// Delta is the maximum reliable degree Δ.
	Delta int
	// B is the message bound in bits.
	B int
	// DetectorAt returns the process's link detector set at the start of
	// the given round (its local view of the dynamic detector service).
	DetectorAt func(round int) *detector.Set
	// Params holds the constant factors.
	Params Params
	// Rng is the process's private randomness stream.
	Rng *rand.Rand
}

// ContinuousCCDSProcess reruns the Section 5 CCDS algorithm every
// δ_CDS = Θ(Δ·log²n/b + log³n) rounds, reading the dynamic link detector's
// current output at the start of each period and committing new outputs only
// at period boundaries, so the structure transitions atomically. If the
// dynamic detector stabilizes at round r, the committed outputs solve the
// CCDS problem from round r + 2·δ_CDS onward w.h.p. (Theorem 8.1).
type ContinuousCCDSProcess struct {
	cfg    ContinuousConfig
	period int
	inner  *CCDSProcess
	out    int
}

var _ sim.Process = (*ContinuousCCDSProcess)(nil)

// NewContinuousCCDSProcess validates cfg and returns a ready process.
func NewContinuousCCDSProcess(cfg ContinuousConfig) (*ContinuousCCDSProcess, error) {
	if cfg.DetectorAt == nil {
		return nil, fmt.Errorf("core: process %d has no dynamic detector view", cfg.ID)
	}
	period, err := CCDSRounds(cfg.N, cfg.Delta, cfg.B, cfg.Params)
	if err != nil {
		return nil, err
	}
	return &ContinuousCCDSProcess{cfg: cfg, period: period, out: sim.Undecided}, nil
}

// Period returns δ_CDS, the length in rounds of one CCDS rerun.
func (p *ContinuousCCDSProcess) Period() int { return p.period }

// Output implements sim.Process, returning the committed output of the last
// completed period (Undecided before the first period completes).
func (p *ContinuousCCDSProcess) Output() int { return p.out }

// Done implements sim.Process. A continuous process never terminates on its
// own; executions are bounded by the runner's round cap.
func (p *ContinuousCCDSProcess) Done() bool { return false }

// Broadcast implements sim.Process. It reports the inner run's wake round,
// clamped to the period end, so every period boundary — where the previous
// result commits and the detector is re-read — is driven. Inner wakes never
// pass the inner schedule end, which is the period end; the clamp keeps that
// invariant explicit.
func (p *ContinuousCCDSProcess) Broadcast(round int) (sim.Message, int) {
	local := round % p.period
	if local == 0 {
		p.beginPeriod(round)
	}
	periodEnd := round - local + p.period
	if p.inner == nil {
		return nil, periodEnd
	}
	m, wake := p.inner.Broadcast(local)
	return m, min(round-local+wake, periodEnd)
}

// beginPeriod commits the previous period's result and starts a fresh inner
// CCDS run against the detector's current output. Called at every period
// boundary by Broadcast.
func (p *ContinuousCCDSProcess) beginPeriod(round int) {
	p.commit()
	inner, err := NewCCDSProcess(CCDSConfig{
		ID:       p.cfg.ID,
		N:        p.cfg.N,
		Delta:    p.cfg.Delta,
		B:        p.cfg.B,
		Detector: p.cfg.DetectorAt(round),
		Params:   p.cfg.Params,
		Rng:      p.cfg.Rng,
	})
	if err != nil {
		// Unreachable after the constructor validated the schedule.
		p.inner = nil
		return
	}
	p.inner = inner
}

// commit publishes the previous period's result: any process the inner run
// left undecided defaults to 0, matching the inner algorithm's terminal rule.
func (p *ContinuousCCDSProcess) commit() {
	if p.inner == nil {
		return
	}
	if out := p.inner.Output(); out != sim.Undecided {
		p.out = out
	} else {
		p.out = 0
	}
}

// Receive implements sim.Process.
func (p *ContinuousCCDSProcess) Receive(round int, msg sim.Message) {
	if p.inner != nil {
		p.inner.Receive(round%p.period, msg)
	}
}
