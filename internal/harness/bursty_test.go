package harness

import (
	"math/rand/v2"
	"testing"

	"dualradio/internal/adversary"
	"dualradio/internal/core"
	"dualradio/internal/detector"
	"dualradio/internal/verify"
)

// burstySeeds is the seed count of the CCDS family and async-MIS arms of
// TestValidUnderBursty.
const burstySeeds = 12

// burstyScenario assembles one trial scenario on the shared memoized
// instance, under a bursty adversary whose stream the seed fixes.
func burstyScenario(t *testing.T, spec InstanceSpec, seed uint64) *Scenario {
	t.Helper()
	spec.Seed = seed
	inst, err := SharedInstance(spec)
	if err != nil {
		t.Fatal(err)
	}
	return &Scenario{
		Net:    inst.Net,
		Asg:    inst.Asg,
		Det:    inst.Det,
		Adv:    adversary.NewBursty(inst.Net, 4, 4, rand.New(rand.NewPCG(seed, 0xB0))),
		Params: core.DefaultParams(),
		Seed:   seed,
		Shared: inst,
	}
}

// spreadWakes staggers n wake rounds evenly over [first, first+window), in
// an order unrelated to node positions.
func spreadWakes(n, first, window int) []int {
	wake := make([]int, n)
	for v := range wake {
		wake[v] = first + (v*37)%n*window/n
	}
	return wake
}

// TestValidUnderBursty requires the protocols whose search or start lets
// processes sleep to solve their problem under bursty gray links, which
// keep toggling whether or not anyone broadcasts. The three CCDS variants
// and the async MIS run 12 seeds each, the continuous CCDS 4. The fixed
// schedules must also run exactly their arithmetic length: the CCDS family
// its schedule plus the closing round, the continuous CCDS its round cap.
// The MIS under bursty is pinned by the bursty-links preset golden.
func TestValidUnderBursty(t *testing.T) {
	const b = 1 << 15
	for _, tc := range []struct {
		name  string
		tau   int
		run   func(s *Scenario) (*Outcome, error)
		total func(n, delta int, p core.Params) (int, error)
	}{
		{"ccds", 0, func(s *Scenario) (*Outcome, error) { return s.RunCCDS() },
			func(n, delta int, p core.Params) (int, error) { return core.CCDSRounds(n, delta, b, p) }},
		{"baseline", 0, func(s *Scenario) (*Outcome, error) { return s.RunBaselineCCDS() },
			func(n, delta int, p core.Params) (int, error) { return core.BaselineCCDSRounds(n, delta, b, p) }},
		{"tau", 1, func(s *Scenario) (*Outcome, error) { return s.RunTauCCDS(1) },
			func(n, delta int, p core.Params) (int, error) { return core.TauCCDSRounds(n, delta, b, p, 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= burstySeeds; seed++ {
				s := burstyScenario(t, InstanceSpec{N: 48, Tau: tc.tau}, seed)
				s.B = b
				out, err := tc.run(s)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if rep := verify.CCDS(s.Net, s.H(), out.Outputs, 0); !rep.OK() {
					t.Fatalf("seed %d: invalid CCDS: %v", seed, rep.Err())
				}
				total, err := tc.total(s.Net.N(), s.Net.Delta(), s.Params)
				if err != nil {
					t.Fatal(err)
				}
				if out.Rounds != total+1 {
					t.Errorf("seed %d: ran %d rounds, want the fixed schedule %d plus its closing round",
						seed, out.Rounds, total)
				}
			}
		})
	}

	// Asynchronous starts with detector filtering: every trial solves MIS
	// over H. The run ends once all decide, so its length is not fixed.
	t.Run("async", func(t *testing.T) {
		for seed := uint64(1); seed <= burstySeeds; seed++ {
			s := burstyScenario(t, InstanceSpec{N: 48, GrayProb: 0.3}, seed)
			out, err := s.RunAsyncMIS(spreadWakes(s.Net.N(), 0, 200), core.FilterDetector)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if rep := verify.MIS(s.Net, s.H(), out.Outputs); !rep.OK() {
				t.Fatalf("seed %d: invalid async MIS: %v", seed, rep.Err())
			}
		}
	})

	// The continuous rerun under a stable detector: the committed outputs
	// at the checkpoint solve CCDS, and the run stops at its round cap.
	t.Run("continuous", func(t *testing.T) {
		const periods = 3
		for seed := uint64(1); seed <= 4; seed++ {
			s := burstyScenario(t, InstanceSpec{N: 48}, seed)
			s.B = b
			period, err := core.CCDSRounds(s.Net.N(), s.Net.Delta(), b, s.Params)
			if err != nil {
				t.Fatal(err)
			}
			dyn := detector.NewSchedule(detector.ScheduleStep{Round: 0, Detector: s.Det})
			checkpoint := 2 * period
			out, err := s.RunContinuousCCDS(dyn, periods, []int{checkpoint})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			outputs, ok := out.Checkpoints[checkpoint]
			if !ok {
				t.Fatalf("seed %d: checkpoint %d not sampled", seed, checkpoint)
			}
			if rep := verify.CCDS(s.Net, s.H(), outputs, 0); !rep.OK() {
				t.Fatalf("seed %d: invalid committed CCDS: %v", seed, rep.Err())
			}
			if want := periods*period + 1; out.Rounds != want {
				t.Errorf("seed %d: bounded run length %d, want %d", seed, out.Rounds, want)
			}
		}
	})
}
