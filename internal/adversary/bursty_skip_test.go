package adversary

import (
	"math"
	"math/rand/v2"
	"testing"

	"dualradio/internal/dualgraph"
	"dualradio/internal/geom"
	"dualradio/internal/graph"
)

// pathNet builds an n-node unit path whose gray edges join every node to
// the one two hops on: n-2 gray edges.
func pathNet(t *testing.T, n int) *dualgraph.Network {
	t.Helper()
	g, gp := graph.NewBuilder(n), graph.NewBuilder(n)
	coords := make([]geom.Point, n)
	for i := range coords {
		coords[i] = geom.Point{X: float64(i)}
	}
	for i := 0; i+1 < n; i++ {
		if g.AddEdge(i, i+1) != nil || gp.AddEdge(i, i+1) != nil {
			t.Fatal("path edge rejected")
		}
	}
	for i := 0; i+2 < n; i++ {
		if gp.AddEdge(i, i+2) != nil {
			t.Fatal("gray edge rejected")
		}
	}
	return dualgraph.New(g.Build(), gp.Build(), coords, 2)
}

// quietReach advances b by k rounds in which nobody broadcasts, as the exact
// engine does.
func quietReach(b *Bursty, n, round, k int) {
	bcast := make([]bool, n)
	for r := round; r < round+k; r++ {
		b.Reach(r, bcast, nil, nil, nil)
	}
}

// TestBurstySkipBitIdenticalOneEdge: with one gray edge, Skip(k) leaves the
// edge and the stream exactly where k quiet Reach calls leave them.
func TestBurstySkipBitIdenticalOneEdge(t *testing.T) {
	net := pathNet(t, 3)
	cases := 0
	for _, means := range [][2]float64{{3, 3}, {2, 6}, {6, 2}, {1, 1}} {
		for seed := uint64(1); seed <= 60; seed++ {
			for _, k := range []int{1, 2, 3, 5, 10, 40, 200} {
				skip := NewBursty(net, means[0], means[1], rand.New(rand.NewPCG(seed, 3)))
				per := NewBursty(net, means[0], means[1], rand.New(rand.NewPCG(seed, 3)))
				// Start from varied states: a seed-dependent warm-up.
				warm := int(seed % 7)
				quietReach(skip, 3, 0, warm)
				quietReach(per, 3, 0, warm)
				skip.Skip(warm, k)
				quietReach(per, 3, warm, k)
				if skip.up[0] != per.up[0] || skip.remaining[0] != per.remaining[0] {
					t.Fatalf("means %v seed %d k %d: Skip left (up %v, remaining %d), Reach (up %v, remaining %d)",
						means, seed, k, skip.up[0], skip.remaining[0], per.up[0], per.remaining[0])
				}
				if a, b := skip.rng.Uint64(), per.rng.Uint64(); a != b {
					t.Fatalf("means %v seed %d k %d: Skip left the stream at another position", means, seed, k)
				}
				cases++
			}
		}
	}
	t.Logf("%d skips bit-identical", cases)
}

// burstyBins is the number of remaining-length bins per up state in
// TestBurstySkipLawMatchesReach; the last bin holds every longer balance.
const burstyBins = 8

// burstyCounts tallies, per edge, the (up, remaining) state of trials
// independent Bursty runs that start every edge in a fixed state and
// advance it k rounds with advance.
func burstyCounts(net *dualgraph.Network, rng *rand.Rand, trials, k int, advance func(b *Bursty)) [][]int {
	b := NewBursty(net, 2, 6, rng)
	counts := make([][]int, len(b.gray))
	for i := range counts {
		counts[i] = make([]int, 2*burstyBins)
	}
	for range trials {
		for i := range b.gray {
			b.up[i] = i%2 == 0
			b.remaining[i] = 1 + i%3
		}
		advance(b)
		for i := range b.gray {
			bin := min(b.remaining[i], burstyBins) - 1
			if b.up[i] {
				bin += burstyBins
			}
			counts[i][bin]++
		}
	}
	return counts
}

// chiSquareCritical returns the upper alpha quantile of the chi-square law
// with df degrees of freedom, by the Wilson–Hilferty approximation; z is
// the matching standard normal quantile.
func chiSquareCritical(df int, z float64) float64 {
	d := float64(df)
	c := 1 - 2/(9*d) + z*math.Sqrt(2/(9*d))
	return d * c * c * c
}

// TestBurstySkipLawMatchesReach: on a net with four gray edges, each
// edge's (up, remaining) state after Skip(k) has the law of its state
// after k quiet Reach calls. Every edge starts in a fixed state, so the law
// after k rounds depends on the toggles and balances of the stretch. A
// two-sample chi-square test of homogeneity over each edge's states, summed
// over the edges, compares 6,000 independent trials per arm (independent
// streams) at each k with a false-positive rate of 10^-4 per k.
func TestBurstySkipLawMatchesReach(t *testing.T) {
	const (
		n      = 6
		trials = 6000
		z      = 3.719 // upper 10^-4 quantile of the standard normal
	)
	net := pathNet(t, n)
	for ki, k := range []int{1, 3, 10, 40} {
		seed := uint64(100 + ki)
		skip := burstyCounts(net, rand.New(rand.NewPCG(seed, 1)), trials, k, func(b *Bursty) { b.Skip(0, k) })
		per := burstyCounts(net, rand.New(rand.NewPCG(seed, 2)), trials, k, func(b *Bursty) { quietReach(b, n, 0, k) })
		stat, df := 0.0, 0
		for i := range skip {
			cells := 0
			for bin := range skip[i] {
				a, b := float64(skip[i][bin]), float64(per[i][bin])
				if a+b == 0 {
					continue
				}
				// Equal sample sizes: (a-b)²/(a+b) is the cell's term.
				stat += (a - b) * (a - b) / (a + b)
				cells++
			}
			df += cells - 1
		}
		if df == 0 {
			continue // every edge in one state: nothing to compare
		}
		crit := chiSquareCritical(df, z)
		if stat > crit {
			t.Errorf("k=%d: chi-square %.1f on %d df exceeds %.1f; Skip's law differs from per-round Reach",
				k, stat, df, crit)
		}
		t.Logf("k=%d: chi-square %.1f on %d df, critical %.1f", k, stat, df, crit)
	}
}
