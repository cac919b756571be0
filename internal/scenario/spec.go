// Package scenario turns declarative JSON scenario specifications into
// executable simulation runs. A Spec names everything a workload needs —
// network shape, detector quality, algorithm, adversary, trial count,
// seeds, stop conditions — in a versioned, validated, canonicalizable form,
// so new dual-graph scenarios are data instead of hand-coded Go experiments.
// Compile lowers a spec onto the harness layer (sharing the memoized
// instance and schedule caches with the experiment suite, so a spec that
// mirrors an experiment reproduces it bit-for-bit), and the canonical hash
// gives services a stable cache key: two specs that describe the same
// workload hash identically regardless of JSON field order, cosmetic
// naming, or spelled-out defaults.
package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"dualradio/internal/core"
)

// SpecVersion is the current scenario spec schema version. Specs with
// version 0 are treated as current; any other mismatch is rejected so a
// future incompatible schema can bump the constant.
const SpecVersion = 1

// Guard rails for the service path: a single spec may not demand more work
// than one process can reasonably serve.
const (
	// MaxN caps the network size of a single spec.
	MaxN = 1 << 14
	// MaxTrials caps the trial count of a single spec.
	MaxTrials = 4096
)

// Algorithm names accepted by Spec.Algorithm.
const (
	// AlgoMIS is the Section 4 MIS algorithm with detector filtering.
	AlgoMIS = "mis"
	// AlgoMISClassic is the MIS algorithm with no detector filtering (the
	// classic-model reception rule).
	AlgoMISClassic = "mis-classic"
	// AlgoCCDS is the Section 5 banned-list CCDS algorithm.
	AlgoCCDS = "ccds"
	// AlgoBaselineCCDS is the naive enumeration CCDS comparison point.
	AlgoBaselineCCDS = "baseline-ccds"
	// AlgoTauCCDS is the Section 6 CCDS for τ-complete detectors; the τ is
	// the network spec's Tau.
	AlgoTauCCDS = "tau-ccds"
	// AlgoAsyncMIS is the Section 9 asynchronous-start MIS in the classic
	// radio model (no detector filtering; wake rounds drawn per trial).
	AlgoAsyncMIS = "async-mis"
	// AlgoContinuousCCDS is the Section 8 continuous CCDS under a dynamic
	// link detector that starts corrupted and stabilizes mid-execution.
	AlgoContinuousCCDS = "continuous-ccds"
)

// Execution engines accepted by Spec.Engine.
const (
	// EngineExact is the round-by-round engine: every round is executed
	// and every process draws its coins in round order, so results are
	// bit-identical to the pre-engine-field scenario layer.
	EngineExact = "exact"
	// EngineLeap names the retired leap engine, which jumped the clock
	// over stretches in which every process slept. It is now a label: it
	// runs the one engine and hashes distinctly, so a stored leap Result
	// keeps its hash and its bytes, since under every adversary but bursty
	// a leap Result equalled its exact sibling. Validate rejects it under
	// bursty, whose links the jump advanced in law only.
	EngineLeap = "leap"
)

// Adversary kinds accepted by AdversarySpec.Kind.
const (
	// AdvCollision is the greedy adaptive collision-seeking adversary (the
	// default: the strongest general-purpose strategy the model permits).
	AdvCollision = "collision"
	// AdvNone never activates unreliable edges.
	AdvNone = "none"
	// AdvFull activates every unreliable edge every round.
	AdvFull = "full"
	// AdvUniform activates each unreliable edge independently with
	// probability P per round (lossy links).
	AdvUniform = "uniform"
	// AdvBursty alternates each unreliable edge between geometric up-bursts
	// (mean MeanUp rounds) and down-gaps (mean MeanDown rounds).
	AdvBursty = "bursty"
)

// NetworkSpec describes the generated dual-graph network and its link
// detector. It mirrors harness.InstanceSpec, so equal network specs share
// one memoized (network, assignment, detector) instance per trial seed.
type NetworkSpec struct {
	// N is the network size (2..MaxN).
	N int `json:"n"` //detvet:hashneutral required identity field, present in every canonical encoding since v0
	// TargetDegree steers the reliable-graph degree (0 = generator default,
	// 3·log₂ n).
	TargetDegree float64 `json:"target_degree,omitempty"`
	// GrayProb is the gray-zone edge probability (0 = generator default,
	// negative = no unreliable edges, i.e. the classic model G = G').
	GrayProb float64 `json:"gray_prob,omitempty"`
	// Tau selects the detector: 0 is the perfect 0-complete detector,
	// positive values a τ-complete detector with τ mistakes per node.
	Tau int `json:"tau,omitempty"`
}

// AdversarySpec selects the reach-set strategy for unreliable edges.
type AdversarySpec struct {
	// Kind is one of the Adv* constants; empty defaults to AdvCollision.
	Kind string `json:"kind,omitempty"`
	// P is the per-round activation probability (AdvUniform only).
	P float64 `json:"p,omitempty"`
	// MeanUp and MeanDown are the mean burst and gap lengths in rounds
	// (AdvBursty only; values below 1 are clamped to 1 by the adversary).
	MeanUp   float64 `json:"mean_up,omitempty"`
	MeanDown float64 `json:"mean_down,omitempty"`
}

// WakeSpec configures asynchronous starts (AlgoAsyncMIS only).
type WakeSpec struct {
	// MaxDelay is the exclusive upper bound on the uniform wake-up round
	// drawn per node (0 defaults to 1000, the E8 configuration).
	MaxDelay int `json:"max_delay,omitempty"`
}

// DynamicSpec configures the dynamic link detector (AlgoContinuousCCDS
// only): the detector starts with Mistakes misclassified links per node and
// stabilizes to the clean detector mid-second-period, the Theorem 8.1
// experiment shape.
type DynamicSpec struct {
	// Mistakes is the pre-stabilization mistake count per node (0 defaults
	// to 2).
	Mistakes int `json:"mistakes,omitempty"`
	// Periods is the number of δ_CDS rerun periods to simulate (0 defaults
	// to 5, enough to cover the Theorem 8.1 deadline).
	Periods int `json:"periods,omitempty"`
}

// Spec is a complete declarative scenario: one algorithm over one generated
// network shape, run for Trials independent seeded trials. The zero value
// is not valid; Canonical fills defaults and Compile validates.
type Spec struct {
	// Version is the schema version (0 means current).
	Version int `json:"version,omitempty"`
	// Name is a cosmetic label; it is excluded from the canonical hash.
	Name string `json:"name,omitempty"`
	// Algorithm is one of the Algo* constants.
	Algorithm string `json:"algorithm"` //detvet:hashneutral required identity field, present in every canonical encoding since v0
	// Network describes the generated instance.
	Network NetworkSpec `json:"network"`
	// B is the message-size bound in bits (0 defaults to 512 for the CCDS
	// family and unbounded for MIS variants).
	B int `json:"b,omitempty"`
	// Adversary selects the unreliable-edge strategy.
	Adversary AdversarySpec `json:"adversary,omitempty"`
	// Trials is the number of independent trials (0 defaults to 1).
	Trials int `json:"trials,omitempty"`
	// Seed is the base seed; trial i derives its randomness from Seed+i
	// (0 defaults to 1, so trial seeds match the experiment suite's 1..k).
	Seed uint64 `json:"seed,omitempty"`
	// MaxRounds caps every execution but continuous-ccds, which runs its
	// periods in full: the fixed schedules of mis, mis-classic, ccds,
	// baseline-ccds and tau-ccds as well as async-mis (0 = algorithm
	// default).
	MaxRounds int `json:"max_rounds,omitempty"`
	// StopWhenDecided ends fixed-schedule executions once every process has
	// decided (see harness.Scenario.StopWhenDecided for the caveats).
	StopWhenDecided bool `json:"stop_when_decided,omitempty"`
	// TrialRetention bounds the per-trial payload the Result keeps:
	// RetainAll (the default), RetainErrors (only verification failures),
	// or RetainNone (aggregate only). The canonical spelling of RetainAll
	// is the empty string, so specs predating the policy keep their hashes;
	// the other policies hash distinctly because they change the Result.
	TrialRetention string `json:"trial_retention,omitempty"`
	// Engine labels the execution engine: EngineExact (the default) or
	// EngineLeap, which runs the same engine under its own hash (see
	// EngineLeap). The canonical spelling of EngineExact is the empty
	// string, so every spec predating the field keeps its hash.
	Engine string `json:"engine,omitempty"`
	// TimeoutMS caps the run's wallclock in milliseconds (0 = no
	// deadline). It is an execution policy, not part of the workload: the
	// result of a run that finishes is independent of any deadline, so
	// TimeoutMS is excluded from the canonical hash entirely and two specs
	// differing only here share one cache entry.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Params overrides the algorithms' constant factors (nil = defaults).
	// core.Params predates the tag discipline: its fields join the hash
	// under their Go names, and retagging now would orphan every stored
	// result for a params-carrying spec, so the encoding is frozen as-is.
	Params *core.Params `json:"params,omitempty"` //detvet:hashneutral legacy v0 encoding under Go field names; retagging would rewrite existing hashes
	// Wake configures asynchronous starts (AlgoAsyncMIS only).
	Wake *WakeSpec `json:"wake,omitempty"`
	// Dynamic configures the dynamic detector (AlgoContinuousCCDS only).
	Dynamic *DynamicSpec `json:"dynamic,omitempty"`
}

// needsB reports whether the algorithm requires a positive message bound.
func needsB(algorithm string) bool {
	switch algorithm {
	case AlgoCCDS, AlgoBaselineCCDS, AlgoTauCCDS, AlgoContinuousCCDS:
		return true
	}
	return false
}

// Canonical returns the spec with every defaulted field spelled out and
// irrelevant adversary parameters cleared, so specs that describe the same
// workload compare — and hash — equal. Canonicalization never rejects;
// Validate reports what Compile would.
func (s Spec) Canonical() Spec {
	c := s
	c.Version = SpecVersion
	if c.Trials == 0 {
		c.Trials = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.B == 0 && needsB(c.Algorithm) {
		c.B = 512
	}
	if c.Adversary.Kind == "" {
		c.Adversary.Kind = AdvCollision
	}
	if c.TrialRetention == RetainAll {
		c.TrialRetention = "" // canonical spelling of the default (hash stability)
	}
	if c.Engine == EngineExact {
		c.Engine = "" // canonical spelling of the default (hash stability)
	}
	if c.Adversary.Kind != AdvUniform {
		c.Adversary.P = 0
	}
	if c.Adversary.Kind != AdvBursty {
		c.Adversary.MeanUp, c.Adversary.MeanDown = 0, 0
	}
	if c.Algorithm == AlgoAsyncMIS {
		w := WakeSpec{MaxDelay: 1000}
		if c.Wake != nil && c.Wake.MaxDelay != 0 {
			w.MaxDelay = c.Wake.MaxDelay
		}
		c.Wake = &w
		if c.MaxRounds == 0 {
			c.MaxRounds = 1 << 19
		}
	}
	if c.Algorithm == AlgoContinuousCCDS {
		d := DynamicSpec{Mistakes: 2, Periods: 5}
		if c.Dynamic != nil {
			if c.Dynamic.Mistakes != 0 {
				d.Mistakes = c.Dynamic.Mistakes
			}
			if c.Dynamic.Periods != 0 {
				d.Periods = c.Dynamic.Periods
			}
		}
		c.Dynamic = &d
	}
	if c.Params != nil && *c.Params == core.DefaultParams() {
		c.Params = nil
	}
	return c
}

// Validate reports whether the canonicalized spec describes a runnable
// scenario. It is deliberately strict about fields that have no meaning for
// the chosen algorithm, so a typo fails loudly instead of silently running
// a different workload.
func (s Spec) Validate() error {
	c := s.Canonical()
	if s.Version != 0 && s.Version != SpecVersion {
		return fmt.Errorf("scenario: unsupported spec version %d (current %d)", s.Version, SpecVersion)
	}
	switch c.Algorithm {
	case AlgoMIS, AlgoMISClassic, AlgoCCDS, AlgoBaselineCCDS, AlgoTauCCDS,
		AlgoAsyncMIS, AlgoContinuousCCDS:
	case "":
		return fmt.Errorf("scenario: missing algorithm")
	default:
		return fmt.Errorf("scenario: unknown algorithm %q", c.Algorithm)
	}
	// Non-finite floats slip through the range checks below (NaN compares
	// false against everything) and would make the canonical form
	// unencodable; reject them by name instead.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"target_degree", c.Network.TargetDegree},
		{"gray_prob", c.Network.GrayProb},
		{"adversary p", c.Adversary.P},
		{"adversary mean_up", c.Adversary.MeanUp},
		{"adversary mean_down", c.Adversary.MeanDown},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("scenario: non-finite %s %v", f.name, f.v)
		}
	}
	if c.Network.N < 2 || c.Network.N > MaxN {
		return fmt.Errorf("scenario: network n=%d out of range [2, %d]", c.Network.N, MaxN)
	}
	if c.Network.TargetDegree < 0 {
		return fmt.Errorf("scenario: negative target_degree %v", c.Network.TargetDegree)
	}
	if c.Network.GrayProb > 1 {
		return fmt.Errorf("scenario: gray_prob %v exceeds 1", c.Network.GrayProb)
	}
	if c.Network.Tau < 0 {
		return fmt.Errorf("scenario: negative tau %d", c.Network.Tau)
	}
	if c.B < 0 {
		return fmt.Errorf("scenario: negative message bound b=%d", c.B)
	}
	switch c.Adversary.Kind {
	case AdvCollision, AdvNone, AdvFull:
	case AdvUniform:
		if c.Adversary.P <= 0 || c.Adversary.P > 1 {
			return fmt.Errorf("scenario: uniform adversary needs p in (0, 1], got %v", c.Adversary.P)
		}
	case AdvBursty:
		if c.Adversary.MeanUp < 0 || c.Adversary.MeanDown < 0 {
			return fmt.Errorf("scenario: bursty adversary needs non-negative mean_up/mean_down")
		}
	default:
		return fmt.Errorf("scenario: unknown adversary kind %q", c.Adversary.Kind)
	}
	if c.Trials < 1 || c.Trials > MaxTrials {
		return fmt.Errorf("scenario: trials=%d out of range [1, %d]", c.Trials, MaxTrials)
	}
	if c.MaxRounds < 0 {
		return fmt.Errorf("scenario: negative max_rounds %d", c.MaxRounds)
	}
	if c.TimeoutMS < 0 {
		return fmt.Errorf("scenario: negative timeout_ms %d", c.TimeoutMS)
	}
	switch c.TrialRetention {
	case "", RetainErrors, RetainNone: // "" is canonical RetainAll
	default:
		return fmt.Errorf("scenario: unknown trial_retention %q (want %s|%s|%s)",
			c.TrialRetention, RetainAll, RetainErrors, RetainNone)
	}
	switch c.Engine {
	case "": // canonical EngineExact
	case EngineLeap:
		if c.Adversary.Kind == AdvBursty {
			return fmt.Errorf("scenario: engine %q is not accepted under adversary %q: the retired leap engine's results there cannot be reproduced (use engine %q)",
				EngineLeap, AdvBursty, EngineExact)
		}
	default:
		return fmt.Errorf("scenario: unknown engine %q (want %s|%s)",
			c.Engine, EngineExact, EngineLeap)
	}
	if s.Wake != nil && s.Algorithm != AlgoAsyncMIS {
		return fmt.Errorf("scenario: wake is only meaningful for algorithm %q", AlgoAsyncMIS)
	}
	if c.Wake != nil && c.Wake.MaxDelay < 0 {
		return fmt.Errorf("scenario: negative wake max_delay %d", c.Wake.MaxDelay)
	}
	if s.Dynamic != nil && s.Algorithm != AlgoContinuousCCDS {
		return fmt.Errorf("scenario: dynamic is only meaningful for algorithm %q", AlgoContinuousCCDS)
	}
	if c.Dynamic != nil && (c.Dynamic.Mistakes < 0 || c.Dynamic.Periods < 1) {
		return fmt.Errorf("scenario: dynamic needs mistakes >= 0 and periods >= 1")
	}
	if p := c.Params; p != nil {
		if p.Epochs <= 0 || p.Phase <= 0 || p.Decay <= 0 || p.BB <= 0 || p.Listen <= 0 {
			return fmt.Errorf("scenario: params phase lengths must be positive")
		}
		if p.DeltaBB < 0 || p.SearchEpochs < 1 || p.MaxMasters < 1 {
			return fmt.Errorf("scenario: params DeltaBB/SearchEpochs/MaxMasters out of range")
		}
	}
	return nil
}

// CanonicalHash returns the canonical spec hash: the hex SHA-256 of the
// canonical form's JSON encoding with the cosmetic Name and the TimeoutMS
// execution policy cleared. Two specs hash equal exactly when they describe
// the same workload, which makes the hash a sound result-cache key. Go's
// encoding/json emits struct fields in declaration order, so the encoding —
// and the hash — is deterministic across processes and platforms.
//
// Marshal failures (e.g. a non-finite float smuggled past validation) are
// propagated instead of panicking: a malformed spec must fail its own
// submission, never crash the process hashing it.
func (s Spec) CanonicalHash() (string, error) {
	c := s.Canonical()
	c.Name = ""
	c.TimeoutMS = 0
	b, err := json.Marshal(c)
	if err != nil {
		return "", fmt.Errorf("scenario: marshal canonical spec: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// ParseSpec decodes a JSON spec, rejecting unknown fields so typos surface
// as errors instead of silently running a default.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: parse spec: %w", err)
	}
	return s, nil
}
