package sim_test

import (
	"math/rand/v2"
	"testing"

	"dualradio/internal/adversary"
	"dualradio/internal/core"
	"dualradio/internal/detector"
	"dualradio/internal/dualgraph"
	"dualradio/internal/gen"
	"dualradio/internal/sim"
)

// buildMISProcs constructs identically seeded MIS process arrays.
func buildMISProcs(t *testing.T, n int, det *detector.Detector,
	asg *dualgraph.Assignment, seed uint64) []sim.Process {
	t.Helper()
	procs := make([]sim.Process, n)
	for v := 0; v < n; v++ {
		id := uint64(asg.ID(v))
		p, err := core.NewMISProcess(core.MISConfig{
			ID:       asg.ID(v),
			N:        n,
			Detector: det.Set(v),
			Filter:   core.FilterDetector,
			Params:   core.DefaultParams(),
			Rng:      rand.New(rand.NewPCG(seed, id)),
		})
		if err != nil {
			t.Fatal(err)
		}
		procs[v] = p
	}
	return procs
}

// buildAsyncProcs constructs an identically-seeded async MIS fleet with
// staggered wake rounds.
func buildAsyncProcs(t *testing.T, n int, asg *dualgraph.Assignment, seed uint64) []sim.Process {
	t.Helper()
	wrng := rand.New(rand.NewPCG(seed, 0xA5))
	procs := make([]sim.Process, n)
	for v := 0; v < n; v++ {
		p, err := core.NewAsyncMISProcess(core.MISConfig{
			ID:     asg.ID(v),
			N:      n,
			Filter: core.FilterNone,
			Params: core.DefaultParams(),
			Rng:    rand.New(rand.NewPCG(seed, uint64(asg.ID(v)))),
		}, wrng.IntN(400))
		if err != nil {
			t.Fatal(err)
		}
		procs[v] = p
	}
	return procs
}

// TestDeterministicAcrossRuns verifies two identically-seeded executions
// are byte-identical.
func TestDeterministicAcrossRuns(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	n := 64
	net, err := gen.RandomGeometric(gen.GeometricConfig{N: n}, rng)
	if err != nil {
		t.Fatal(err)
	}
	asg := dualgraph.IdentityAssignment(n)
	det := detector.Complete(net, asg)
	var prev []int
	for trial := 0; trial < 2; trial++ {
		procs := buildMISProcs(t, n, det, asg, 13)
		r, err := sim.NewRunner(sim.Config{Net: net, Processes: procs})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
		outs := make([]int, n)
		for v, p := range procs {
			outs[v] = p.Output()
		}
		if prev != nil {
			for v := range outs {
				if outs[v] != prev[v] {
					t.Fatalf("node %d differs across identically seeded runs", v)
				}
			}
		}
		prev = outs
	}
}

// TestAsyncActiveSetEquivalence drives the heterogeneous-completion path
// (async processes finish individually, exercising the generic active-set
// sweep and the wake calendar) against the whole-execution reference.
func TestAsyncActiveSetEquivalence(t *testing.T) {
	n := 80
	rng := rand.New(rand.NewPCG(99, 3))
	net, err := gen.RandomGeometric(gen.GeometricConfig{N: n, GrayProb: -1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	asg := dualgraph.IdentityAssignment(n)
	f := refFleet{
		name:         "async-mis",
		build:        func(t *testing.T) []sim.Process { return buildAsyncProcs(t, n, asg, 7) },
		maxRounds:    1 << 18,
		untilDecided: true,
	}
	none := func(*dualgraph.Network, uint64) adversary.Adversary { return adversary.None{} }
	assertMatchesReference(t, net, f, none, 7)
}
