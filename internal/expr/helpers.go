package expr

import (
	"fmt"

	"dualradio/internal/stats"
)

// f formats a float for table cells.
func f(x float64) string { return stats.F(x) }

// ratio renders "k/n" for success-rate columns.
func ratio(k, n int) string { return fmt.Sprintf("%d/%d", k, n) }

// statsOf summarizes a sample through the streaming accumulator: Mean and
// P90 — the only fields the experiment tables consume — are bit-identical
// to the batch Summarize, so the table output is unchanged.
func statsOf(xs []float64) stats.Summary {
	acc := stats.NewAccumulator()
	for _, x := range xs {
		acc.Add(x)
	}
	return acc.Summary()
}

// powerLaw fits y ~ c·x^e and returns (e, R²).
func powerLaw(x, y []float64) (float64, float64) {
	return stats.PowerLawExponent(x, y)
}
