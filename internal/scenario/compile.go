package scenario

import (
	"fmt"
	"math/rand/v2"

	"dualradio/internal/adversary"
	"dualradio/internal/core"
	"dualradio/internal/detector"
	"dualradio/internal/harness"
	"dualradio/internal/verify"
)

// advStream is the PCG stream id of a trial's stochastic adversary. The
// other per-trial auxiliary draws (async wake rounds, the noisy detector)
// are the harness's, shared with the experiment suite, so specs that
// mirror those experiments reproduce them bit-for-bit.
const advStream = 0xAD5E

// Compiled is a validated, canonicalized spec lowered onto the harness
// layer, ready to build per-trial scenarios. It is immutable and safe for
// concurrent use — trials share the memoized instance behind the harness
// cache but construct their own mutable state.
type Compiled struct {
	spec Spec
	hash string
}

// Compile canonicalizes and validates spec. The returned Compiled carries
// the canonical form (Spec) and the canonical hash (Hash).
func Compile(spec Spec) (*Compiled, error) {
	// Validate the original spec: canonicalization rewrites Version (and
	// clears junk), which must not mask a rejection.
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c := spec.Canonical()
	h, err := c.CanonicalHash()
	if err != nil {
		return nil, err
	}
	return &Compiled{spec: c, hash: h}, nil
}

// Spec returns the canonical spec.
func (c *Compiled) Spec() Spec { return c.spec }

// Hash returns the canonical spec hash.
func (c *Compiled) Hash() string { return c.hash }

// Trials returns the trial count.
func (c *Compiled) Trials() int { return c.spec.Trials }

// TrialSeed returns the seed of trial i: Seed+i, the experiment suite's
// seed derivation (seed s runs with seed value s+1 when Seed is the default
// 1).
func (c *Compiled) TrialSeed(trial int) uint64 { return c.spec.Seed + uint64(trial) }

// Scenario assembles the harness scenario for one trial around the shared
// memoized instance: only the mutable per-trial pieces — the adversary and
// the scenario struct itself — are constructed fresh, exactly as the
// experiment layer does.
func (c *Compiled) Scenario(trial int) (*harness.Scenario, error) {
	sp := c.spec
	seed := c.TrialSeed(trial)
	inst, err := harness.SharedInstance(harness.InstanceSpec{
		N:            sp.Network.N,
		TargetDegree: sp.Network.TargetDegree,
		GrayProb:     sp.Network.GrayProb,
		Tau:          sp.Network.Tau,
		Seed:         seed,
	})
	if err != nil {
		return nil, err
	}
	adv, err := buildAdversary(sp.Adversary, inst, seed)
	if err != nil {
		return nil, err
	}
	params := core.DefaultParams()
	if sp.Params != nil {
		params = *sp.Params
	}
	s := &harness.Scenario{
		Net:             inst.Net,
		Asg:             inst.Asg,
		Det:             inst.Det,
		Adv:             adv,
		Params:          params,
		Seed:            seed,
		B:               sp.B,
		MaxRounds:       sp.MaxRounds,
		StopWhenDecided: sp.StopWhenDecided,
		Shared:          inst,
	}
	if sp.Algorithm == AlgoAsyncMIS {
		// The Section 9 variant runs in the classic model: no detector
		// filtering, so the detector plays no role in the execution.
		s.Det = nil
	}
	return s, nil
}

func buildAdversary(a AdversarySpec, inst *harness.Instance, seed uint64) (adversary.Adversary, error) {
	switch a.Kind {
	case AdvNone:
		return nil, nil
	case AdvCollision:
		return adversary.NewCollisionSeeking(inst.Net), nil
	case AdvFull:
		return adversary.NewFull(inst.Net), nil
	case AdvUniform:
		return adversary.NewUniformP(inst.Net, a.P, rand.New(rand.NewPCG(seed, advStream))), nil
	case AdvBursty:
		return adversary.NewBursty(inst.Net, a.MeanUp, a.MeanDown, rand.New(rand.NewPCG(seed, advStream))), nil
	}
	return nil, fmt.Errorf("scenario: unknown adversary kind %q", a.Kind)
}

// TrialResult is one trial's outcome, reduced to the quantities the
// experiment suite reports. It is deterministic in (spec, trial): reruns,
// worker counts, and cache state never change it.
type TrialResult struct {
	// Trial is the trial index and Seed its derived seed.
	Trial int    `json:"trial"`
	Seed  uint64 `json:"seed"`
	// Rounds is the number of rounds the execution lasts (see
	// harness.Outcome.Rounds).
	Rounds int `json:"rounds"`
	// DecidedRound is the first round by which every process had decided
	// (-1 if some never did, or for executions without that notion).
	DecidedRound int `json:"decided_round"`
	// Size is the number of processes in the output structure (MIS members
	// or CCDS dominators).
	Size int `json:"size"`
	// Valid reports whether the paper's correctness conditions hold for
	// the trial's outputs.
	Valid bool `json:"valid"`
	// MeanLatency is the mean local decision latency (AlgoAsyncMIS only).
	MeanLatency float64 `json:"mean_latency,omitempty"`
	// Checkpoint is the Theorem 8.1 deadline round at which validity was
	// checked (AlgoContinuousCCDS only).
	Checkpoint int `json:"checkpoint,omitempty"`
}

// RunTrial executes one trial and reduces its outcome.
func (c *Compiled) RunTrial(trial int) (TrialResult, error) {
	s, err := c.Scenario(trial)
	if err != nil {
		return TrialResult{}, err
	}
	res := TrialResult{Trial: trial, Seed: c.TrialSeed(trial), DecidedRound: -1}
	switch c.spec.Algorithm {
	case AlgoMIS, AlgoMISClassic:
		filter := core.FilterDetector
		if c.spec.Algorithm == AlgoMISClassic {
			filter = core.FilterNone
		}
		out, err := s.RunMISFiltered(filter)
		if err != nil {
			return res, err
		}
		fillOutcome(&res, out.InMIS, out.Rounds, out.DecidedRound)
		res.Valid = verify.MIS(s.Net, s.H(), out.Outputs).OK()
	case AlgoCCDS:
		out, err := s.RunCCDS()
		if err != nil {
			return res, err
		}
		fillOutcome(&res, out.InMIS, out.Rounds, out.DecidedRound)
		res.Valid = verify.CCDS(s.Net, s.H(), out.Outputs, 0).OK()
	case AlgoBaselineCCDS:
		out, err := s.RunBaselineCCDS()
		if err != nil {
			return res, err
		}
		fillOutcome(&res, out.InMIS, out.Rounds, out.DecidedRound)
		res.Valid = verify.CCDS(s.Net, s.H(), out.Outputs, 0).OK()
	case AlgoTauCCDS:
		out, err := s.RunTauCCDS(c.spec.Network.Tau)
		if err != nil {
			return res, err
		}
		fillOutcome(&res, out.InMIS, out.Rounds, out.DecidedRound)
		res.Valid = verify.CCDS(s.Net, s.H(), out.Outputs, 0).OK()
	case AlgoAsyncMIS:
		return c.runAsyncTrial(s, res)
	case AlgoContinuousCCDS:
		return c.runContinuousTrial(s, res)
	default:
		return res, fmt.Errorf("scenario: unknown algorithm %q", c.spec.Algorithm)
	}
	return res, nil
}

func fillOutcome(res *TrialResult, inMIS []bool, rounds, decided int) {
	res.Rounds = rounds
	res.DecidedRound = decided
	for _, in := range inMIS {
		if in {
			res.Size++
		}
	}
}

// runAsyncTrial mirrors experiment E8: wake rounds drawn uniformly from the
// trial's wake stream, classic-model reception, validity against the
// reliable graph G.
func (c *Compiled) runAsyncTrial(s *harness.Scenario, res TrialResult) (TrialResult, error) {
	out, err := s.RunAsyncMIS(s.UniformWakes(c.spec.Wake.MaxDelay), core.FilterNone)
	if err != nil {
		return res, err
	}
	fillOutcome(&res, out.InMIS, out.Rounds, out.DecidedRound)
	res.Valid = verify.MIS(s.Net, s.Net.G(), out.Outputs).OK()
	var sum float64
	cnt := 0
	for _, l := range out.Latency {
		if l >= 0 {
			sum += float64(l)
			cnt++
		}
	}
	if cnt > 0 {
		res.MeanLatency = sum / float64(cnt)
	}
	return res, nil
}

// runContinuousTrial mirrors experiment E7 and examples/dynamic: the
// detector starts with Mistakes misclassified links per node, stabilizes to
// the clean detector mid-second-period, and the committed outputs must
// solve CCDS by the Theorem 8.1 deadline (stabilization + 2·δ_CDS). δ_CDS
// is the analytic schedule length, so no probe execution is needed.
func (c *Compiled) runContinuousTrial(s *harness.Scenario, res TrialResult) (TrialResult, error) {
	sp := c.spec
	// s.Params is the resolved parameter set Scenario() installed; using it
	// keeps the deadline computation and the execution on one source.
	period, err := core.CCDSRounds(s.Net.N(), s.Net.Delta(), sp.B, s.Params)
	if err != nil {
		return res, err
	}
	stabilize := period + period/2
	checkpoint := stabilize + 2*period
	dyn := detector.NewSchedule(
		detector.ScheduleStep{Round: 0, Detector: s.NoisyDetector(sp.Dynamic.Mistakes)},
		detector.ScheduleStep{Round: stabilize, Detector: s.Det},
	)
	out, err := s.RunContinuousCCDS(dyn, sp.Dynamic.Periods, []int{checkpoint})
	if err != nil {
		return res, err
	}
	outputs, ok := out.Checkpoints[checkpoint]
	if !ok {
		// The run was shorter than the deadline; judge the final state.
		outputs = out.Final
	}
	res.Rounds = out.Rounds
	res.Checkpoint = checkpoint
	res.Size = verify.CCDSSize(outputs)
	res.Valid = verify.CCDS(s.Net, s.H(), outputs, 0).OK()
	return res, nil
}
