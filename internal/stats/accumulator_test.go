package stats

import (
	"math"
	"math/rand/v2"
	"testing"
)

// TestAccumulatorMatchesSummarizeExact: the streaming Summary must be
// bit-identical to the batch Summarize for every field except Std (Welford
// vs two-pass), which must agree to close tolerance.
func TestAccumulatorMatchesSummarizeExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for round := 0; round < 50; round++ {
		n := 1 + rng.IntN(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Floor(rng.Float64()*1000) / 8 // mix of ties and fractions
		}
		acc := NewAccumulator()
		for _, x := range xs {
			acc.Add(x)
		}
		want := Summarize(xs)
		got := acc.Summary()
		if got.N != want.N || got.Mean != want.Mean || got.Min != want.Min ||
			got.Max != want.Max || got.Median != want.Median || got.P90 != want.P90 {
			t.Fatalf("round %d: streaming %+v != batch %+v", round, got, want)
		}
		if math.Abs(got.Std-want.Std) > 1e-9*(1+want.Std) {
			t.Fatalf("round %d: Std %v vs %v", round, got.Std, want.Std)
		}
		for _, p := range []float64{0, 25, 50, 77.7, 90, 100} {
			if got, want := acc.Quantile(p), Percentile(xs, p); got != want {
				t.Fatalf("round %d: Quantile(%v) = %v, want %v", round, p, got, want)
			}
		}
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	acc := NewAccumulator()
	if s := acc.Summary(); s != (Summary{}) {
		t.Fatalf("empty accumulator summary %+v", s)
	}
	if acc.Mean() != 0 || acc.Std() != 0 || acc.Quantile(50) != 0 {
		t.Fatal("empty accumulator stats not zero")
	}
}

// TestAccumulatorSizeExactBeyondDefault: quantiles stay exact past 4096
// values, the per-run trial cap.
func TestAccumulatorSizeExactBeyondDefault(t *testing.T) {
	n := 4096 + 500
	xs := make([]float64, n)
	rng := rand.New(rand.NewPCG(9, 2))
	for i := range xs {
		xs[i] = rng.Float64()
	}
	acc := NewAccumulator()
	for _, x := range xs {
		acc.Add(x)
	}
	if got, want := acc.Quantile(90), Percentile(xs, 90); got != want {
		t.Fatalf("sized accumulator P90 %v, want exact %v", got, want)
	}
}

// BenchmarkAccumulator measures the streaming fold plus one quantile.
func BenchmarkAccumulator(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	xs := make([]float64, 100_000)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := NewAccumulator()
		for _, x := range xs {
			acc.Add(x)
		}
		if acc.Quantile(90) <= 0 {
			b.Fatal("bad quantile")
		}
	}
}
