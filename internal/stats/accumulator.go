package stats

import (
	"math"
	"sort"
)

// Accumulator folds a sample one value at a time: count, sum, min/max,
// the Welford variance recurrence, and the values themselves for exact
// Median/P90. It is the streaming counterpart of Summarize. Every caller's
// sample is bounded — the scenario reducer by the per-run trial cap, a
// report cell by the sweep child cap, the experiment tables by the sample
// they summarize — so keeping the values costs no more than the batch form.
//
// Exactness contract: Mean is sum/count with additions in fold order, so it
// is bit-identical to the batch Mean/Summarize computation over the same
// values in the same order, and Quantile is bit-identical to Percentile.
// Std uses the Welford recurrence, which is numerically more stable than —
// and may differ in the final bits from — Summarize's two-pass formula.
type Accumulator struct {
	sum    float64
	min    float64
	max    float64
	wm     float64   // Welford running mean (variance recurrence only)
	m2     float64   // Welford sum of squared deviations
	xs     []float64 // every value folded; Quantile sorts it in place
	sorted bool      // xs is currently sorted
}

// NewAccumulator returns an empty accumulator.
func NewAccumulator() *Accumulator { return &Accumulator{} }

// Add folds one value.
func (a *Accumulator) Add(x float64) {
	if len(a.xs) == 0 {
		a.min, a.max = x, x
	} else {
		a.min = math.Min(a.min, x)
		a.max = math.Max(a.max, x)
	}
	a.xs = append(a.xs, x)
	a.sorted = false
	a.sum += x
	d := x - a.wm
	a.wm += d / float64(len(a.xs))
	a.m2 += d * (x - a.wm)
}

// Count returns the number of values folded.
func (a *Accumulator) Count() int { return len(a.xs) }

// Sum returns the running sum.
func (a *Accumulator) Sum() float64 { return a.sum }

// Mean returns sum/count (0 for an empty accumulator) — bit-identical to
// the batch mean over the same fold order.
func (a *Accumulator) Mean() float64 {
	if len(a.xs) == 0 {
		return 0
	}
	return a.sum / float64(len(a.xs))
}

// Std returns the sample standard deviation via Welford (0 for fewer than
// two values).
func (a *Accumulator) Std() float64 {
	n := len(a.xs)
	if n < 2 {
		return 0
	}
	return math.Sqrt(a.m2 / float64(n-1))
}

// Min returns the smallest value folded (0 when empty).
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest value folded (0 when empty).
func (a *Accumulator) Max() float64 { return a.max }

// Quantile returns the p-th percentile (0..100), bit-identical to
// Percentile over the values folded so far.
func (a *Accumulator) Quantile(p float64) float64 {
	if len(a.xs) == 0 {
		return 0
	}
	if !a.sorted {
		sort.Float64s(a.xs)
		a.sorted = true
	}
	return percentileSorted(a.xs, p)
}

// Summary materializes the streaming state as a Summary. See the type
// comment for how it relates to Summarize bit-for-bit.
func (a *Accumulator) Summary() Summary {
	if len(a.xs) == 0 {
		return Summary{}
	}
	return Summary{
		N:      len(a.xs),
		Mean:   a.Mean(),
		Std:    a.Std(),
		Min:    a.min,
		Max:    a.max,
		Median: a.Quantile(50),
		P90:    a.Quantile(90),
	}
}
