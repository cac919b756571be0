// Package dualradio is a Go implementation of "Structuring Unreliable Radio
// Networks" (Censor-Hillel, Gilbert, Kuhn, Lynch, Newport; PODC 2011): the
// dual graph radio network model with reliable links G and unreliable links
// G', the τ-complete link detector formalism, and the paper's algorithms —
// the O(log³ n) MIS, the O(Δ·log²n/b + log³n) banned-list CCDS, the
// O(Δ·polylog n) CCDS for τ-complete detectors, the continuous CCDS for
// dynamic detectors, and the asynchronous-start MIS for the classic radio
// model — together with a deterministic simulation engine, adversary
// strategies, and verification of the Section 3 problem definitions.
//
// The package is a facade over the internal packages; it covers the common
// workflows:
//
//	net, _ := dualradio.Generate(dualradio.NetworkOptions{Nodes: 128, Seed: 1})
//	res, _ := dualradio.BuildCCDS(net, dualradio.RunOptions{Seed: 1, MessageBits: 512})
//	if err := res.Verify(); err != nil { ... }
//
// Power users can reach the internal packages directly (they are part of
// this module): internal/sim for the engine, internal/core for the
// algorithms, internal/expr for the paper's reproduction experiments.
package dualradio

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"dualradio/internal/adversary"
	"dualradio/internal/core"
	"dualradio/internal/detector"
	"dualradio/internal/dualgraph"
	"dualradio/internal/gen"
	"dualradio/internal/graph"
	"dualradio/internal/harness"
	"dualradio/internal/trace"
	"dualradio/internal/verify"
)

// NetworkOptions parameterizes Generate.
type NetworkOptions struct {
	// Nodes is the network size n (> 2).
	Nodes int
	// TargetDegree steers the expected reliable degree Δ; 0 selects
	// 3·log₂ n, matching the paper's Δ = ω(log n) assumption.
	TargetDegree float64
	// GrayZone is the constant d ≥ 1 bounding unreliable link length;
	// 0 selects 2.
	GrayZone float64
	// GrayProb is the probability of an unreliable edge inside the gray
	// zone; 0 selects 0.5, negative disables unreliable edges.
	GrayProb float64
	// Tau is the link detector mistake bound τ; 0 builds 0-complete
	// detectors.
	Tau int
	// Seed makes generation deterministic.
	Seed uint64
}

// Network bundles a generated dual graph network with its process-id
// assignment and link detectors.
type Network struct {
	net *dualgraph.Network
	asg *dualgraph.Assignment
	det *detector.Detector
	tau int
}

// Generate builds a connected random geometric dual graph network with
// τ-complete link detectors and a random process-to-node assignment.
func Generate(opts NetworkOptions) (*Network, error) {
	rng := rand.New(rand.NewPCG(opts.Seed, 0xFACADE))
	net, err := gen.RandomGeometric(gen.GeometricConfig{
		N:            opts.Nodes,
		TargetDegree: opts.TargetDegree,
		D:            opts.GrayZone,
		GrayProb:     opts.GrayProb,
	}, rng)
	if err != nil {
		return nil, err
	}
	asg := dualgraph.RandomAssignment(opts.Nodes, rng)
	var det *detector.Detector
	if opts.Tau <= 0 {
		det = detector.Complete(net, asg)
	} else {
		det = detector.TauComplete(net, asg, opts.Tau, detector.PlaceGrayFirst, rng)
	}
	return &Network{net: net, asg: asg, det: det, tau: opts.Tau}, nil
}

// N returns the number of nodes.
func (nw *Network) N() int { return nw.net.N() }

// Delta returns Δ, the maximum degree of the reliable graph.
func (nw *Network) Delta() int { return nw.net.Delta() }

// ReliableDegree returns the reliable-graph degree of node v.
func (nw *Network) ReliableDegree(v int) int { return nw.net.G().Degree(v) }

// UnreliableEdges returns the number of gray (unreliable-only) edges.
func (nw *Network) UnreliableEdges() int { return len(nw.net.GrayEdges()) }

// Tau returns the detector mistake bound the network was generated with.
func (nw *Network) Tau() int { return nw.tau }

// ProcessID returns the process id assigned to node v.
func (nw *Network) ProcessID(v int) int { return nw.asg.ID(v) }

// H returns the detector-induced graph H of Section 3 (mutual detector
// membership), over which maximality, connectivity, and domination are
// defined.
func (nw *Network) H() *graph.Graph {
	return detector.BuildH(nw.net, nw.asg, nw.det)
}

// Validate checks the Section 2 model invariants.
func (nw *Network) Validate() error { return nw.net.Validate() }

// AdversaryKind selects the unreliable-link strategy for a run.
type AdversaryKind int

const (
	// AdversaryCollisionSeeking greedily turns unique deliveries into
	// collisions whenever a gray edge permits — the strongest
	// general-purpose strategy. This is the default.
	AdversaryCollisionSeeking AdversaryKind = iota
	// AdversaryNone never activates unreliable links.
	AdversaryNone
	// AdversaryFull activates every unreliable link every round.
	AdversaryFull
	// AdversaryUniform activates each unreliable link independently with
	// probability 1/2 each round.
	AdversaryUniform
)

// RunOptions configures an algorithm execution.
type RunOptions struct {
	// Seed derives all process randomness.
	Seed uint64
	// MessageBits is the model's bound b on message size in bits.
	// Required (positive) for the CCDS algorithms; 0 leaves MIS messages
	// unbounded.
	MessageBits int
	// Adversary selects the unreliable-link strategy.
	Adversary AdversaryKind
	// Params overrides the algorithms' constant factors; zero value uses
	// calibrated defaults.
	Params core.Params
	// CollectTrace aggregates per-node and per-round activity during the
	// run; the summary is reported in Result.TraceSummary.
	CollectTrace bool
}

func (nw *Network) scenario(opts RunOptions) *harness.Scenario {
	var adv adversary.Adversary
	switch opts.Adversary {
	case AdversaryNone:
		adv = adversary.None{}
	case AdversaryFull:
		adv = adversary.NewFull(nw.net)
	case AdversaryUniform:
		adv = adversary.NewUniformP(nw.net, 0.5,
			rand.New(rand.NewPCG(opts.Seed, 0xADA)))
	default:
		adv = adversary.NewCollisionSeeking(nw.net)
	}
	s := &harness.Scenario{
		Net:    nw.net,
		Asg:    nw.asg,
		Det:    nw.det,
		Adv:    adv,
		Params: opts.Params,
		Seed:   opts.Seed,
		B:      opts.MessageBits,
	}
	if opts.CollectTrace {
		s.Observer = trace.NewRecorder(nw.N())
	}
	return s
}

// Result reports one algorithm execution.
type Result struct {
	// Outputs holds each node's output: 0, 1, or -1 for undecided.
	Outputs []int
	// InMIS flags nodes whose process joined the MIS / dominating
	// structure.
	InMIS []bool
	// Rounds is the execution length.
	Rounds int
	// DecidedRound is the first round by which every process had decided
	// (-1 if some never did).
	DecidedRound int
	// TraceSummary holds aggregate activity statistics when the run was
	// configured with CollectTrace.
	TraceSummary string

	problem string
	nw      *Network
}

// RenderMap draws the network embedding as ASCII art with each node marked
// by its output — '#' for members, '.' for covered nodes.
func RenderMap(nw *Network, res *Result, width, height int) string {
	return trace.Map(nw.net, res.Outputs, width, height)
}

// Size returns the number of nodes that output 1.
func (r *Result) Size() int { return verify.CCDSSize(r.Outputs) }

// Verify checks the execution against the Section 3 problem definition it
// ran (MIS or CCDS) and returns nil when all conditions hold.
func (r *Result) Verify() error {
	h := r.nw.H()
	switch r.problem {
	case "mis":
		return verify.MIS(r.nw.net, h, r.Outputs).Err()
	case "ccds":
		return verify.CCDS(r.nw.net, h, r.Outputs, 0).Err()
	default:
		return errors.New("dualradio: unknown problem kind")
	}
}

// MaxBackboneDegree returns the largest number of CCDS members adjacent to
// any node in G' — the quantity the constant-bounded condition limits.
func (r *Result) MaxBackboneDegree() int {
	return verify.MaxCCDSDegree(r.nw.net, r.Outputs)
}

func fromOutcome(nw *Network, problem string, out *harness.Outcome) *Result {
	return &Result{
		Outputs:      out.Outputs,
		InMIS:        out.InMIS,
		Rounds:       out.Rounds,
		DecidedRound: out.DecidedRound,
		problem:      problem,
		nw:           nw,
	}
}

// attachTrace copies the recorder summary into the result when tracing was
// enabled.
func attachTrace(s *harness.Scenario, res *Result) *Result {
	if rec, ok := s.Observer.(*trace.Recorder); ok {
		res.TraceSummary = rec.Summary()
	}
	return res
}

// BuildMIS runs the Section 4 MIS algorithm (Theorem 4.6: O(log³ n) rounds
// w.h.p. with 0-complete detectors).
func BuildMIS(nw *Network, opts RunOptions) (*Result, error) {
	s := nw.scenario(opts)
	out, err := s.RunMIS()
	if err != nil {
		return nil, err
	}
	return attachTrace(s, fromOutcome(nw, "mis", out)), nil
}

// BuildCCDS runs the Section 5 banned-list CCDS algorithm (Theorem 5.3:
// O(Δ·log²n/b + log³n) rounds w.h.p. with 0-complete detectors). The
// network must have been generated with Tau = 0.
func BuildCCDS(nw *Network, opts RunOptions) (*Result, error) {
	if nw.tau != 0 {
		return nil, fmt.Errorf("dualradio: the banned-list CCDS requires 0-complete detectors; network has tau=%d (use BuildTauCCDS)", nw.tau)
	}
	s := nw.scenario(opts)
	out, err := s.RunCCDS()
	if err != nil {
		return nil, err
	}
	return attachTrace(s, fromOutcome(nw, "ccds", out)), nil
}

// BuildTauCCDS runs the Section 6 CCDS algorithm for τ-complete detectors
// (Theorem 6.2: O(Δ·polylog n) rounds w.h.p. for τ = O(1)). It uses the
// network's generated τ.
func BuildTauCCDS(nw *Network, opts RunOptions) (*Result, error) {
	s := nw.scenario(opts)
	out, err := s.RunTauCCDS(nw.tau)
	if err != nil {
		return nil, err
	}
	return attachTrace(s, fromOutcome(nw, "ccds", out)), nil
}

// BuildBaselineCCDS runs the naive neighbor-enumeration CCDS — the
// O(Δ·polylog n) comparison point of Section 5.
func BuildBaselineCCDS(nw *Network, opts RunOptions) (*Result, error) {
	if nw.tau != 0 {
		return nil, fmt.Errorf("dualradio: the baseline CCDS requires 0-complete detectors; network has tau=%d", nw.tau)
	}
	s := nw.scenario(opts)
	out, err := s.RunBaselineCCDS()
	if err != nil {
		return nil, err
	}
	return attachTrace(s, fromOutcome(nw, "ccds", out)), nil
}

// CCDSRounds predicts the fixed schedule length of the Section 5 CCDS for
// the given parameters (the Theorem 5.3 bound with calibrated constants).
func CCDSRounds(n, delta, bits int) (int, error) {
	return core.CCDSRounds(n, delta, bits, core.DefaultParams())
}

// TauCCDSRounds predicts the fixed schedule length of the Section 6 CCDS
// for mistake bound tau (the Theorem 6.2 O(Δ·polylog n) bound).
func TauCCDSRounds(n, delta, bits, tau int) (int, error) {
	return core.TauCCDSRounds(n, delta, bits, core.DefaultParams(), tau)
}

// BaselineCCDSRounds predicts the fixed schedule length of the naive
// neighbor-enumeration CCDS.
func BaselineCCDSRounds(n, delta, bits int) (int, error) {
	return core.BaselineCCDSRounds(n, delta, bits, core.DefaultParams())
}

// verifyCCDS checks outputs against the CCDS conditions over h.
func verifyCCDS(nw *Network, h *graph.Graph, outputs []int) error {
	return verify.CCDS(nw.net, h, outputs, 0).Err()
}
