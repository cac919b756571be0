package harness_test

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"dualradio/internal/adversary"
	"dualradio/internal/core"
	"dualradio/internal/detector"
	"dualradio/internal/dualgraph"
	"dualradio/internal/gen"
	"dualradio/internal/graph"
	"dualradio/internal/harness"
	"dualradio/internal/verify"
)

// scenario builds a random geometric network with 0-complete detectors and a
// collision-seeking adversary.
func scenario(t *testing.T, n int, seed uint64) *harness.Scenario {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 1))
	net, err := gen.RandomGeometric(gen.GeometricConfig{N: n}, rng)
	if err != nil {
		t.Fatalf("generate network: %v", err)
	}
	asg := dualgraph.RandomAssignment(n, rng)
	det := detector.Complete(net, asg)
	return &harness.Scenario{
		Net:  net,
		Asg:  asg,
		Det:  det,
		Adv:  adversary.NewCollisionSeeking(net),
		Seed: seed,
		B:    512,
	}
}

func TestMISSolvesOnRandomGeometric(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		s := scenario(t, 96, seed)
		out, err := s.RunMIS()
		if err != nil {
			t.Fatalf("seed %d: run: %v", seed, err)
		}
		h := detector.BuildH(s.Net, s.Asg, s.Det)
		if rep := verify.MIS(s.Net, h, out.Outputs); !rep.OK() {
			t.Errorf("seed %d: %v", seed, rep.Err())
		}
		if out.DecidedRound < 0 {
			t.Errorf("seed %d: not all processes decided within %d rounds", seed, out.Rounds)
		}
	}
}

func TestCCDSSolvesOnRandomGeometric(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		s := scenario(t, 96, seed)
		out, err := s.RunCCDS()
		if err != nil {
			t.Fatalf("seed %d: run: %v", seed, err)
		}
		h := detector.BuildH(s.Net, s.Asg, s.Det)
		if rep := verify.CCDS(s.Net, h, out.Outputs, 0); !rep.OK() {
			t.Errorf("seed %d: %v", seed, rep.Err())
		}
	}
}

// TestVerifyReportsUnchangedWhenHIsG checks that verification reads an
// exact detector's H = G exactly as it read the copy BuildH used to build:
// the MIS and CCDS reports, violations included, are identical for the
// runs' outputs and for random ones.
func TestVerifyReportsUnchangedWhenHIsG(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		s := scenario(t, 64, seed)
		h := detector.BuildH(s.Net, s.Asg, s.Det)
		if h != s.Net.G() {
			t.Fatal("H of the complete detector is not G")
		}
		copyG := graph.BuilderFrom(s.Net.G()).Build()
		mis, err := s.RunMIS()
		if err != nil {
			t.Fatal(err)
		}
		ccds, err := s.RunCCDS()
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(seed, 9))
		random := make([]int, s.Net.N())
		for v := range random {
			random[v] = rng.IntN(3) - 1
		}
		for _, out := range [][]int{mis.Outputs, ccds.Outputs, random} {
			if a, b := verify.MIS(s.Net, h, out), verify.MIS(s.Net, copyG, out); !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d: MIS report %v with H = G, %v with a copy", seed, a.Err(), b.Err())
			}
			if a, b := verify.CCDS(s.Net, h, out, 0), verify.CCDS(s.Net, copyG, out, 0); !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d: CCDS report %v with H = G, %v with a copy", seed, a.Err(), b.Err())
			}
		}
	}
}

func TestTauCCDSSolvesWithMistakenDetectors(t *testing.T) {
	seed := uint64(7)
	rng := rand.New(rand.NewPCG(seed, 1))
	n := 96
	net, err := gen.RandomGeometric(gen.GeometricConfig{N: n}, rng)
	if err != nil {
		t.Fatalf("generate network: %v", err)
	}
	asg := dualgraph.RandomAssignment(n, rng)
	det := detector.TauComplete(net, asg, 1, detector.PlaceGrayFirst, rng)
	s := &harness.Scenario{
		Net: net, Asg: asg, Det: det,
		Adv:  adversary.NewCollisionSeeking(net),
		Seed: seed,
		B:    4096, // the Section 6 algorithm labels messages with detector sets
	}
	out, err := s.RunTauCCDS(1)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	h := detector.BuildH(net, asg, det)
	if rep := verify.CCDS(net, h, out.Outputs, 0); !rep.OK() {
		t.Errorf("%v", rep.Err())
	}
}

func TestAsyncMISClassicModel(t *testing.T) {
	seed := uint64(11)
	rng := rand.New(rand.NewPCG(seed, 1))
	n := 64
	net, err := gen.RandomGeometric(gen.GeometricConfig{N: n, GrayProb: -1}, rng)
	if err != nil {
		t.Fatalf("generate network: %v", err)
	}
	asg := dualgraph.IdentityAssignment(n)
	s := &harness.Scenario{
		Net: net, Asg: asg,
		Seed:      seed,
		MaxRounds: 1 << 18,
	}
	wake := make([]int, n)
	for v := range wake {
		wake[v] = rng.IntN(500)
	}
	out, err := s.RunAsyncMIS(wake, core.FilterNone)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// In the classic model H = G.
	if rep := verify.MIS(net, net.G(), out.Outputs); !rep.OK() {
		t.Errorf("%v", rep.Err())
	}
}
