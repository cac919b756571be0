// Package bcast implements multihop broadcast workloads in the dual graph
// radio model — the canonical problem the dual graph papers ([10, 11] in the
// paper's bibliography) show to be strictly harder with unreliable links,
// and the paper's own motivation for building a CCDS backbone.
//
// Two dissemination strategies are provided as sim processes:
//
//   - DecayFlood: every informed node relays using the exponential-decay
//     contention scheme (broadcast with halving probability, restarting
//     each Θ(log n)-round phase).
//   - BackboneFlood: only backbone (CCDS) members relay; everyone else
//     just listens. Domination guarantees coverage while the backbone's
//     constant degree keeps contention, and therefore latency, low.
package bcast

import (
	"fmt"
	"math"
	"math/rand/v2"

	"dualradio/internal/dualgraph"
	"dualradio/internal/sim"
)

// payloadMsg is the disseminated message; Origin identifies the broadcast.
type payloadMsg struct {
	from   int
	origin int
	bits   int
}

// From implements sim.Message.
func (m payloadMsg) From() int { return m.from }

// BitSize implements sim.Message.
func (m payloadMsg) BitSize() int { return m.bits }

// Origin returns the id of the process that initiated the broadcast.
func (m payloadMsg) Origin() int { return m.origin }

// Proc is one node of a dissemination execution.
type Proc struct {
	id       int
	n        int
	source   bool
	relay    bool
	informed bool
	heardAt  int
	phaseLen int
	phase    int
	inPhase  int
	rng      *rand.Rand
	origin   int
	sent     int
}

var _ sim.Process = (*Proc)(nil)

// Config assembles a dissemination run over an existing network.
type Config struct {
	// Net is the dual graph network.
	Net *dualgraph.Network
	// Source is the node index initiating the broadcast.
	Source int
	// Relay flags which nodes may retransmit; nil means every node (flood).
	Relay []bool
	// Seed derives per-node randomness.
	Seed uint64
	// PhaseFactor scales the decay phase length (default 2·log₂ n).
	PhaseFactor float64
}

// Build constructs the per-node processes for the run.
func Build(cfg Config) ([]sim.Process, error) {
	n := cfg.Net.N()
	if cfg.Source < 0 || cfg.Source >= n {
		return nil, fmt.Errorf("bcast: source %d out of range", cfg.Source)
	}
	if cfg.Relay != nil && len(cfg.Relay) != n {
		return nil, fmt.Errorf("bcast: relay mask covers %d of %d nodes", len(cfg.Relay), n)
	}
	factor := cfg.PhaseFactor
	if factor <= 0 {
		factor = 2
	}
	logN := int(math.Ceil(math.Log2(float64(n))))
	if logN < 1 {
		logN = 1
	}
	phaseLen := int(math.Ceil(factor * float64(logN)))
	procs := make([]sim.Process, n)
	for v := 0; v < n; v++ {
		relay := cfg.Relay == nil || cfg.Relay[v] || v == cfg.Source
		procs[v] = &Proc{
			id:       v + 1,
			n:        n,
			source:   v == cfg.Source,
			relay:    relay,
			informed: v == cfg.Source,
			heardAt:  -1,
			phaseLen: phaseLen,
			rng:      rand.New(rand.NewPCG(cfg.Seed, uint64(v)+0xB0A)),
			origin:   cfg.Source + 1,
		}
	}
	return procs, nil
}

// Informed reports whether the node has the message.
func (p *Proc) Informed() bool { return p.informed }

// HeardAt returns the round the node first received the message, -1 for the
// source or uninformed nodes.
func (p *Proc) HeardAt() int { return p.heardAt }

// Sent returns how many times this node transmitted.
func (p *Proc) Sent() int { return p.sent }

// Broadcast implements sim.Process: informed relays use exponential decay —
// within each phase the probability halves from 1/2 down to 1/n, so
// whatever the local contention, some sub-phase matches it. A reception can
// inform a node in any round, so the process never sleeps.
func (p *Proc) Broadcast(round int) (sim.Message, int) {
	if !p.informed || !p.relay {
		return nil, round + 1
	}
	if p.inPhase >= p.phaseLen {
		p.inPhase = 0
	}
	step := p.inPhase
	p.inPhase++
	prob := math.Ldexp(0.5, -step) // 1/2, 1/4, 1/8, ...
	if prob < 1/float64(p.n) {
		prob = 1 / float64(p.n)
	}
	if p.rng.Float64() < prob {
		p.sent++
		return payloadMsg{from: p.id, origin: p.origin, bits: 64}, round + 1
	}
	return nil, round + 1
}

// Receive implements sim.Process.
func (p *Proc) Receive(round int, msg sim.Message) {
	if p.informed {
		return
	}
	if _, ok := msg.(payloadMsg); ok {
		p.informed = true
		p.heardAt = round
	}
}

// Output implements sim.Process: 1 once informed.
func (p *Proc) Output() int {
	if p.informed {
		return 1
	}
	return 0
}

// Done implements sim.Process: dissemination runs until stopped externally.
func (p *Proc) Done() bool { return false }

// Result summarizes a dissemination run.
type Result struct {
	// Rounds is the number of rounds until every node was informed (or
	// the cap, if coverage failed).
	Rounds int
	// Covered is the number of informed nodes.
	Covered int
	// Transmissions is the total number of sends.
	Transmissions int
}

// Run executes the dissemination until full coverage or maxRounds. The
// engine config supplies the adversary and worker settings; its network,
// process, and round-cap fields are overwritten.
func Run(cfg Config, engine sim.Config, maxRounds int) (*Result, error) {
	procs, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	engine.Net = cfg.Net
	engine.Processes = procs
	engine.MaxRounds = maxRounds
	runner, err := sim.NewRunner(engine)
	if err != nil {
		return nil, err
	}
	covered := func() bool {
		for _, p := range procs {
			if !p.(*Proc).Informed() {
				return false
			}
		}
		return true
	}
	if _, err := runner.RunUntil(covered); err != nil {
		return nil, err
	}
	res := &Result{Rounds: runner.Round()}
	for _, p := range procs {
		bp := p.(*Proc)
		if bp.Informed() {
			res.Covered++
		}
		res.Transmissions += bp.Sent()
	}
	return res, nil
}
