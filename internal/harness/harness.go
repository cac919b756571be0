// Package harness assembles complete executions: it wires a network,
// process-id assignment, link detectors, an adversary, and per-process
// randomness into a sim.Runner for each of the paper's algorithms, and
// gathers the outcomes into verification-ready form. The public dualradio
// facade, the test suites, and the experiment harness all build on it.
//
// Instances (see Instance and SharedInstance) are memoized and shared
// across trials, with the graph H derived from them. Every fixed-schedule
// algorithm runs as one execution: one runner drives it from round 0 on
// each process's own randomness stream (see runFixed). A standalone MIS
// stops at its decided round but reports the whole execution's outputs and
// decided round.
package harness

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"dualradio/internal/adversary"
	"dualradio/internal/core"
	"dualradio/internal/detector"
	"dualradio/internal/dualgraph"
	"dualradio/internal/graph"
	"dualradio/internal/sim"
)

// Scenario bundles everything an execution needs besides the algorithm.
type Scenario struct {
	Net *dualgraph.Network
	Asg *dualgraph.Assignment
	Det *detector.Detector
	Adv adversary.Adversary // nil = no unreliable activations
	// Params holds the algorithms' constant factors; zero value means
	// core.DefaultParams.
	Params core.Params
	// Seed derives every process's private randomness stream.
	Seed uint64
	// B is the message-size bound in bits (0 = unbounded for MIS;
	// CCDS algorithms require a positive bound).
	B int
	// MaxRounds caps the execution's length; 0 leaves a fixed schedule
	// its own length plus one closing round, and the async MIS 2^20.
	MaxRounds int
	// StopWhenDecided ends fixed-schedule executions as soon as every
	// process has output 0 or 1 instead of driving the full schedule, and
	// reports that round as Outcome.Rounds. Outputs are frozen from that
	// point on (decisions never revert), so experiments that only consume
	// Outputs and DecidedRound — decision latency, validity, density — see
	// identical results at a fraction of the simulated rounds. A standalone
	// MIS stops there anyway when it may (see runFixed); for it the flag
	// changes only Rounds.
	StopWhenDecided bool
	// Observer, if non-nil, receives per-round callbacks.
	Observer sim.Observer
	// Shared, if non-nil, is the cached instance backing Net/Asg/Det.
	// Scenario.H consults it so derived immutable state (the graph H) is
	// computed once per instance instead of once per trial.
	Shared *Instance
}

// H returns the Section 3 graph H for the scenario's network, assignment,
// and detector — memoized on the shared instance when one backs this
// scenario unchanged, rebuilt otherwise (e.g. after a test swaps Det).
func (s *Scenario) H() *graph.Graph {
	if s.Shared != nil && s.Shared.Det == s.Det &&
		s.Shared.Net == s.Net && s.Shared.Asg == s.Asg {
		return s.Shared.H()
	}
	return detector.BuildH(s.Net, s.Asg, s.Det)
}

func (s *Scenario) params() core.Params {
	if s.Params == (core.Params{}) {
		return core.DefaultParams()
	}
	return s.Params
}

// RngFor returns the deterministic private randomness stream of the process
// at node v (keyed by its process id, so the stream is stable under
// re-assignment of processes to nodes).
func (s *Scenario) RngFor(v int) *rand.Rand {
	id := uint64(s.Asg.ID(v))
	return rand.New(rand.NewPCG(s.Seed, id*0x9e3779b97f4a7c15+0x1234567))
}

// PCG stream ids of the per-trial auxiliary draws below.
const (
	wakeStream  = 0x3A3E
	noisyStream = 0xD15C0
)

// UniformWakes draws every process's wake round uniformly from [0, window)
// on the trial's wake stream: the asynchronous start of experiment E8 and
// of an async-mis spec. A window below 1 wakes every process at round 0.
func (s *Scenario) UniformWakes(window int) []int {
	wake := make([]int, s.Net.N())
	if window > 0 {
		rng := rand.New(rand.NewPCG(s.Seed, wakeStream))
		for v := range wake {
			wake[v] = rng.IntN(window)
		}
	}
	return wake
}

// NoisyDetector returns a τ-complete detector with up to mistakes false
// ids per node, placed gray-first from the trial's detector stream: the
// pre-stabilization detector of experiment E7 and of a continuous-ccds
// spec.
func (s *Scenario) NoisyDetector(mistakes int) *detector.Detector {
	rng := rand.New(rand.NewPCG(s.Seed, noisyStream))
	return detector.TauComplete(s.Net, s.Asg, mistakes, detector.PlaceGrayFirst, rng)
}

func (s *Scenario) validate() error {
	if s.Net == nil {
		return errors.New("harness: nil network")
	}
	if s.Asg == nil {
		return errors.New("harness: nil assignment")
	}
	if s.Asg.N() != s.Net.N() {
		return fmt.Errorf("harness: assignment covers %d nodes, network has %d", s.Asg.N(), s.Net.N())
	}
	return nil
}

func (s *Scenario) detSet(v int) *detector.Set {
	if s.Det == nil {
		return nil
	}
	return s.Det.Set(v)
}

// Outcome captures an execution's results in node order.
type Outcome struct {
	// Outputs holds each node's output (sim.Undecided, 0, or 1).
	Outputs []int
	// InMIS flags the nodes whose process joined the MIS (or the
	// dominating structure, for the τ algorithm).
	InMIS []bool
	// Rounds is the number of rounds the execution lasts. A standalone
	// MIS that stops at its decided round reports the rounds its whole
	// schedule lasts, as if it had run them (see runFixed).
	Rounds int
	// DecidedRound is the first round by which every process had decided,
	// or -1 if some never did.
	DecidedRound int
	// Stats carries the engine counters of the rounds actually simulated:
	// for a standalone MIS that stops at its decided round, of the rounds
	// through it.
	Stats sim.Stats
	// Err records a fatal execution error (message-size violation).
	Err error
}

func collect(r *sim.Runner, inMIS func(p sim.Process) bool) *Outcome {
	procs := r.Processes()
	out := &Outcome{
		Outputs: make([]int, len(procs)),
		InMIS:   make([]bool, len(procs)),
	}
	for v, p := range procs {
		out.Outputs[v] = p.Output()
		if inMIS != nil {
			out.InMIS[v] = inMIS(p)
		}
	}
	st := r.Stats()
	out.Rounds = st.Rounds
	out.DecidedRound = st.DecidedRound
	out.Stats = st
	out.Err = r.Err()
	return out
}

// config assembles the engine configuration for procs: the one place a
// scenario's sim.Config is built.
func (s *Scenario) config(procs []sim.Process, maxRounds int) sim.Config {
	return sim.Config{
		Net:         s.Net,
		Adversary:   s.Adv,
		Processes:   procs,
		MessageBits: s.B,
		MaxRounds:   maxRounds,
		Observer:    s.Observer,
	}
}

// drive runs runner until every process is done or the round cap is
// reached, or, with untilDecided, until every process has decided. The
// runner tracks decisions incrementally, so that stop condition is O(1)
// per round instead of an O(n) scan.
func drive(runner *sim.Runner, untilDecided bool) error {
	var err error
	if untilDecided {
		_, err = runner.RunUntil(runner.AllDecided)
	} else {
		_, err = runner.Run()
	}
	return err
}

// fixedProcess is a process with a fixed schedule length (see sim.Process).
type fixedProcess interface {
	sim.Process
	Rounds() int
}

// runFixed is the shared body of the fixed-schedule algorithms: validate
// the scenario, build one process per node (build receives the node, the
// network's Δ and the process's randomness stream), run the schedule (to
// MaxRounds when set, else one round past its end so every process
// observes completion), and collect the outcome.
//
// The standalone MIS passes bits, the size of a process's messages; every
// other caller is a CCDS algorithm, passes nil and requires a positive
// message bound. The MIS stops at its decided round unless an Observer
// watches it or a message could exceed B: its outputs never change once
// decided, so the rest of the schedule could only add to Stats. It still
// reports the rounds the whole schedule lasts, or, under StopWhenDecided,
// the decided round (see "The decided tail" in DESIGN.md).
func runFixed[P fixedProcess](s *Scenario, build func(v, delta int, rng *rand.Rand) (P, error),
	inMIS func(P) bool, bits func(P) int) (*Outcome, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	if bits == nil && s.B <= 0 {
		return nil, errors.New("harness: CCDS requires a positive message bound B")
	}
	n := s.Net.N()
	delta := s.Net.Delta()
	procs := make([]sim.Process, n)
	tail := bits != nil && s.Observer == nil && n > 0
	var total int
	for v := 0; v < n; v++ {
		p, err := build(v, delta, s.RngFor(v))
		if err != nil {
			return nil, err
		}
		procs[v] = p
		if tail && s.B > 0 && bits(p) > s.B {
			tail = false
		}
		total = p.Rounds()
	}
	maxRounds := s.MaxRounds
	if maxRounds <= 0 {
		maxRounds = total + 1
	}
	runner, err := sim.NewRunner(s.config(procs, maxRounds))
	if err != nil {
		return nil, err
	}
	if err := drive(runner, s.StopWhenDecided || tail); err != nil {
		return nil, err
	}
	out := collect(runner, func(p sim.Process) bool { return inMIS(p.(P)) })
	if tail && !s.StopWhenDecided {
		out.Rounds = min(maxRounds, total+1)
	}
	return out, nil
}

// misConfig returns the MIS process configuration of node v.
func (s *Scenario) misConfig(v int, filter core.FilterMode, rng *rand.Rand) core.MISConfig {
	return core.MISConfig{
		ID:       s.Asg.ID(v),
		N:        s.Net.N(),
		Detector: s.detSet(v),
		Filter:   filter,
		Params:   s.params(),
		Rng:      rng,
	}
}

// ccdsConfig returns the CCDS process configuration of node v in a network
// of maximum degree delta.
func (s *Scenario) ccdsConfig(v, delta int, rng *rand.Rand) core.CCDSConfig {
	return core.CCDSConfig{
		ID:       s.Asg.ID(v),
		N:        s.Net.N(),
		Delta:    delta,
		B:        s.B,
		Detector: s.detSet(v),
		Params:   s.params(),
		Rng:      rng,
	}
}

// RunMIS executes the Section 4 MIS algorithm with 0-complete-style
// detector filtering.
func (s *Scenario) RunMIS() (*Outcome, error) {
	return s.RunMISFiltered(core.FilterDetector)
}

// RunMISFiltered executes the Section 4 MIS algorithm with an explicit
// reception filter (FilterNone reproduces the classic-model variant).
func (s *Scenario) RunMISFiltered(filter core.FilterMode) (*Outcome, error) {
	return runFixed(s, func(v, _ int, rng *rand.Rand) (*core.MISProcess, error) {
		cfg := s.misConfig(v, filter, rng)
		// Mutual filtering needs the sender's detector set on the wire
		// (the Section 6 labeling rule).
		cfg.LabelMessages = filter == core.FilterMutual
		return core.NewMISProcess(cfg)
	}, (*core.MISProcess).InMIS, (*core.MISProcess).MessageBits)
}

// RunCCDS executes the Section 5 banned-list CCDS algorithm.
func (s *Scenario) RunCCDS() (*Outcome, error) {
	return runFixed(s, func(v, delta int, rng *rand.Rand) (*core.CCDSProcess, error) {
		return core.NewCCDSProcess(s.ccdsConfig(v, delta, rng))
	}, (*core.CCDSProcess).InMIS, nil)
}

// RunBaselineCCDS executes the naive enumeration CCDS used as the Section 5
// comparison point.
func (s *Scenario) RunBaselineCCDS() (*Outcome, error) {
	return runFixed(s, func(v, delta int, rng *rand.Rand) (*core.BaselineCCDSProcess, error) {
		return core.NewBaselineCCDSProcess(s.ccdsConfig(v, delta, rng))
	}, (*core.BaselineCCDSProcess).InMIS, nil)
}

// RunTauCCDS executes the Section 6 CCDS algorithm for τ-complete detectors.
func (s *Scenario) RunTauCCDS(tau int) (*Outcome, error) {
	return runFixed(s, func(v, delta int, rng *rand.Rand) (*core.TauCCDSProcess, error) {
		return core.NewTauCCDSProcess(s.ccdsConfig(v, delta, rng), tau)
	}, (*core.TauCCDSProcess).Dominator, nil)
}

// RunAsyncMIS executes the Section 9 asynchronous-start MIS variant. wake
// gives each node's wake-up round; filter selects topology knowledge
// (FilterNone for the classic model). The execution stops once every process
// has decided or MaxRounds elapse.
func (s *Scenario) RunAsyncMIS(wake []int, filter core.FilterMode) (*AsyncOutcome, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	n := s.Net.N()
	if len(wake) != n {
		return nil, fmt.Errorf("harness: %d wake rounds for %d nodes", len(wake), n)
	}
	procs := make([]sim.Process, n)
	for v := 0; v < n; v++ {
		p, err := core.NewAsyncMISProcess(s.misConfig(v, filter, s.RngFor(v)), wake[v])
		if err != nil {
			return nil, err
		}
		procs[v] = p
	}
	maxRounds := s.MaxRounds
	if maxRounds == 0 {
		maxRounds = 1 << 20
	}
	runner, err := sim.NewRunner(s.config(procs, maxRounds))
	if err != nil {
		return nil, err
	}
	if err := drive(runner, true); err != nil {
		return nil, err
	}
	base := collect(runner, func(p sim.Process) bool {
		return p.(*core.AsyncMISProcess).InMIS()
	})
	out := &AsyncOutcome{Outcome: *base, Latency: make([]int, n)}
	for v, p := range procs {
		out.Latency[v] = p.(*core.AsyncMISProcess).DecisionLatency()
	}
	return out, nil
}

// AsyncOutcome extends Outcome with per-process decision latencies (local
// rounds from wake-up to output), the quantity Theorem 9.4 bounds.
type AsyncOutcome struct {
	Outcome
	Latency []int
}
