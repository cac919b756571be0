// Package core implements the algorithms of "Structuring Unreliable Radio
// Networks" (Censor-Hillel, Gilbert, Kuhn, Lynch, Newport; PODC 2011):
//
//   - the O(log³ n) Maximal Independent Set algorithm of Section 4,
//   - the O(Δ·log²n/b + log³n) CCDS algorithm of Section 5 with its
//     bounded-broadcast and directed-decay subroutines and banned-list
//     path finding,
//   - the O(Δ·polylog n) CCDS algorithm of Section 6 for τ-complete link
//     detectors with τ = O(1),
//   - the continuous CCDS of Section 8 for dynamic link detectors, and
//   - the asynchronous-start MIS variant of Section 9 for the classic
//     radio network model.
//
// The paper's Θ(log n) phase lengths hide constants chosen "sufficiently
// large"; Params exposes those constants so tests and experiments can
// calibrate them, with defaults that achieve high empirical success rates
// at laptop scales.
package core

import (
	"fmt"
	"math"
	"math/bits"
)

// Params collects the tunable constant factors of the paper's Θ(·) bounds.
type Params struct {
	// Epochs is the number of MIS epochs, as a multiple of log₂ n
	// (the paper's ℓ_E = Θ(log n)).
	Epochs float64
	// Phase is the length of each competition/announcement phase, as a
	// multiple of log₂ n (the paper's ℓ_P = Θ(log n)).
	Phase float64
	// Decay is the length of each directed-decay phase, as a multiple of
	// log₂ n (the paper's ℓ_DD = Θ(log n)).
	Decay float64
	// BB scales bounded-broadcast slots: a call with contention bound δ
	// runs for ceil(BB · 2^δ · log₂ n) rounds (the paper's
	// ℓ_BB(δ) = Θ(2^δ log n)).
	BB float64
	// DeltaBB is the contention bound δ passed to bounded-broadcast during
	// CCDS search epochs. The paper sets it to the constant I_{d+1}; the
	// default is calibrated to observed MIS densities.
	DeltaBB int
	// SearchEpochs is the number of CCDS search epochs (the paper's
	// ℓ_SE = I_{3d} = O(1)).
	SearchEpochs int
	// Listen is the length of the listening phase in the asynchronous-start
	// MIS variant, as a multiple of log₂² n (Section 9 uses Θ(log² n)).
	Listen float64
	// MaxMasters caps the number of dominator ids a covered process
	// reports per message in the Section 6 connect procedure. The paper
	// bounds nearby dominators by a constant (Lemma 6.1(b)); this is that
	// constant's engineering stand-in.
	MaxMasters int
}

// DefaultParams returns constants calibrated for w.h.p. success at the
// scales exercised by the tests and benchmarks (n up to a few thousand).
func DefaultParams() Params {
	return Params{
		Epochs:       3,
		Phase:        4,
		Decay:        4,
		BB:           2,
		DeltaBB:      2,
		SearchEpochs: 8,
		Listen:       1,
		MaxMasters:   24,
	}
}

// FastParams returns smaller constants for quick smoke tests where
// occasional failures are acceptable.
func FastParams() Params {
	p := DefaultParams()
	p.Epochs = 2
	p.Phase = 2
	p.Decay = 2
	p.BB = 1
	p.SearchEpochs = 5
	return p
}

// Validate reports the first nonsensical parameter.
func (p Params) Validate() error {
	switch {
	case p.Epochs <= 0, p.Phase <= 0, p.Decay <= 0, p.BB <= 0, p.Listen <= 0:
		return fmt.Errorf("core: non-positive length factor in %+v", p)
	case p.DeltaBB < 0 || p.DeltaBB > 16:
		return fmt.Errorf("core: contention bound δ=%d out of range [0,16]", p.DeltaBB)
	case p.SearchEpochs < 1:
		return fmt.Errorf("core: at least one search epoch required, got %d", p.SearchEpochs)
	case p.MaxMasters < 1:
		return fmt.Errorf("core: MaxMasters must be positive, got %d", p.MaxMasters)
	}
	return nil
}

// log2Ceil returns ceil(log₂ n), at least 1.
func log2Ceil(n int) int {
	if n <= 2 {
		return 1
	}
	l := bits.Len(uint(n - 1))
	return l
}

// idBits returns the number of bits needed to encode a process id in [1, n].
func idBits(n int) int {
	if n < 1 {
		return 1
	}
	return bits.Len(uint(n))
}

// scaled returns ceil(f · x) as an int, at least 1.
func scaled(f float64, x int) int {
	v := int(math.Ceil(f * float64(x)))
	if v < 1 {
		return 1
	}
	return v
}

// misSchedule captures the fixed round layout of the Section 4 MIS
// algorithm: ℓ_E epochs, each consisting of ceil(log₂ n) competition phases
// followed by one announcement phase, all of length ℓ_P.
type misSchedule struct {
	logN     int       // ceil(log₂ n)
	phaseLen int       // ℓ_P
	phases   int       // competition phases per epoch (= logN)
	epochLen int       // (phases + 1) · phaseLen
	epochs   int       // ℓ_E
	total    int       // epochs · epochLen
	probs    []float64 // per-phase broadcast probability min(2^i/n, 1/2)
}

func newMISSchedule(n int, p Params) misSchedule {
	s := misSchedule{logN: log2Ceil(n)}
	s.phaseLen = scaled(p.Phase, s.logN)
	s.phases = s.logN
	s.epochLen = (s.phases + 1) * s.phaseLen
	s.epochs = scaled(p.Epochs, s.logN)
	s.total = s.epochs * s.epochLen
	// Precompute the doubling competition probabilities 2^i/n (capped at
	// 1/2) so the per-round hot path avoids math.Ldexp.
	s.probs = make([]float64, s.phases)
	for i := range s.probs {
		prob := math.Ldexp(1/float64(n), i)
		if prob > 0.5 {
			prob = 0.5
		}
		s.probs[i] = prob
	}
	return s
}

// MISRounds returns the fixed total running time of the Section 4 MIS
// algorithm for network size n — ℓ_E · (ceil(log₂ n)+1) · ℓ_P, the
// O(log³ n) bound. Unlike the CCDS schedule lengths it cannot fail: the
// MIS schedule does not depend on the message bound.
func MISRounds(n int, p Params) int {
	return misScheduleFor(n, p).total
}

// bbLen returns the bounded-broadcast slot length ℓ_BB(δ) for network size n.
func bbLen(n int, p Params, delta int) int {
	return scaled(p.BB*math.Pow(2, float64(delta)), log2Ceil(n))
}
