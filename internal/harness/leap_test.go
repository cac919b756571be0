package harness

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"dualradio/internal/adversary"
	"dualradio/internal/core"
	"dualradio/internal/detector"
	"dualradio/internal/sim"
	"dualradio/internal/verify"
)

// The leap engine drives every process through its exact Broadcast and only
// jumps the clock over stretches in which every process sleeps, so every
// process draws the exact coin stream. Under a stateless adversary, and
// under the uniform one, which draws coins only for edges next to a
// broadcaster, a leap execution therefore equals the exact one
// (TestLeapMatchesExact). Only the bursty adversary realizes a different
// execution: its links keep toggling through a jumped stretch, and its Skip
// advances them in one step, equal to the skipped per-round advance in
// distribution but not draw for draw. Under bursty the suite below locks
// the equivalence at the level the paper's guarantees live: every trial of
// every protocol must still solve its problem, the deterministic schedule
// lengths must agree exactly, and batch statistics (structure size,
// decision round) must agree within a three-sigma two-sample band over a
// fixed seed set — deterministic, so a regression that shifts the leap
// engine's distribution fails reproducibly.

const leapEquivSeeds = 12

// leapScenario assembles one trial scenario on the shared memoized instance,
// under a bursty adversary whose stream the seed fixes, so both engines
// start it in the same state.
func leapScenario(t *testing.T, spec InstanceSpec, seed uint64, leap bool) (*Scenario, *Instance) {
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
		Leap:   leap,
		Shared: inst,
	}, inst
}

// equivStats accumulates one engine's batch.
type equivStats struct {
	sizes   []float64
	decided []float64
	rounds  []int
}

func (s *equivStats) push(size, decided, rounds int) {
	s.sizes = append(s.sizes, float64(size))
	s.decided = append(s.decided, float64(decided))
	s.rounds = append(s.rounds, rounds)
}

func meanVar(xs []float64) (float64, float64) {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	var sq float64
	for _, x := range xs {
		sq += (x - mean) * (x - mean)
	}
	return mean, sq / float64(len(xs))
}

// checkBand asserts |mean(a)-mean(b)| within the two-sample three-sigma
// band (plus one unit of absolute slack for near-degenerate variances).
func checkBand(t *testing.T, name string, a, b []float64) {
	t.Helper()
	ma, va := meanVar(a)
	mb, vb := meanVar(b)
	band := 3*math.Sqrt((va+vb)/float64(len(a))) + 1
	if d := math.Abs(ma - mb); d > band {
		t.Errorf("%s: exact mean %.2f vs leap mean %.2f differ by %.2f > band %.2f",
			name, ma, mb, d, band)
	}
}

func countMembers(inMIS []bool) int {
	c := 0
	for _, in := range inMIS {
		if in {
			c++
		}
	}
	return c
}

// TestLeapEquivalenceMIS: no round of a full MIS schedule is ever jumped
// (every MIS round has a runnable process), so even under bursty the leap
// engine never calls Skip there and must equal the exact engine outright;
// every trial solves MIS.
func TestLeapEquivalenceMIS(t *testing.T) {
	spec := InstanceSpec{N: 64}
	for seed := uint64(1); seed <= leapEquivSeeds; seed++ {
		var outs [2]*Outcome
		for ei, isLeap := range []bool{false, true} {
			s, _ := leapScenario(t, spec, seed, isLeap)
			out, err := s.RunMIS()
			if err != nil {
				t.Fatalf("seed %d leap=%v: %v", seed, isLeap, err)
			}
			if rep := verify.MIS(s.Net, s.H(), out.Outputs); !rep.OK() {
				t.Fatalf("seed %d leap=%v: invalid MIS: %v", seed, isLeap, rep.Err())
			}
			outs[ei] = out
		}
		if d := diffOutcome(outs[1], outs[0]); d != "" {
			t.Errorf("seed %d: leap MIS differs from exact: %s", seed, d)
		}
	}
}

// TestLeapEquivalenceCCDSFamily covers the three enumeration-era CCDS
// variants: every leap trial yields a valid CCDS with the exact schedule
// length, and structure sizes agree in distribution. Their search phases
// have stretches in which every process sleeps, so some seed must realize a
// different execution under leap, or the band compares identical runs.
func TestLeapEquivalenceCCDSFamily(t *testing.T) {
	const b = 1 << 15
	for _, tc := range []struct {
		name string
		tau  int
		run  func(s *Scenario) (*Outcome, error)
	}{
		{"ccds", 0, func(s *Scenario) (*Outcome, error) { return s.RunCCDS() }},
		{"baseline", 0, func(s *Scenario) (*Outcome, error) { return s.RunBaselineCCDS() }},
		{"tau", 1, func(s *Scenario) (*Outcome, error) { return s.RunTauCCDS(1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := InstanceSpec{N: 48, Tau: tc.tau}
			var exact, leap equivStats
			differ := 0
			for seed := uint64(1); seed <= leapEquivSeeds; seed++ {
				var outs [2]*Outcome
				for ei, isLeap := range []bool{false, true} {
					s, _ := leapScenario(t, spec, seed, isLeap)
					s.B = b
					out, err := tc.run(s)
					if err != nil {
						t.Fatalf("seed %d leap=%v: %v", seed, isLeap, err)
					}
					if rep := verify.CCDS(s.Net, s.H(), out.Outputs, 0); !rep.OK() {
						t.Fatalf("seed %d leap=%v: invalid CCDS: %v", seed, isLeap, rep.Err())
					}
					st := &exact
					if isLeap {
						st = &leap
					}
					st.push(countMembers(out.InMIS), out.DecidedRound, out.Rounds)
					outs[ei] = out
				}
				if diffOutcome(outs[1], outs[0]) != "" {
					differ++
				}
			}
			if differ == 0 {
				t.Error("exact and leap realized identical executions on every seed; Skip was never called")
			}
			for i := range exact.rounds {
				if exact.rounds[i] != leap.rounds[i] {
					t.Errorf("seed %d: fixed schedule length %d (exact) vs %d (leap)",
						i+1, exact.rounds[i], leap.rounds[i])
				}
			}
			checkBand(t, tc.name+" size", exact.sizes, leap.sizes)
		})
	}
}

// TestLeapEquivalenceAsyncMIS: asynchronous starts under bursty gray links
// with detector filtering; every leap trial solves MIS over H and decision
// rounds agree in distribution. AsyncMIS runs until all decide, so round
// counts are distributional, not exact. Listening and unwoken processes
// sleep, so some seed must realize a different execution under leap.
func TestLeapEquivalenceAsyncMIS(t *testing.T) {
	spec := InstanceSpec{N: 48, GrayProb: 0.3}
	var exact, leap equivStats
	differ := 0
	for seed := uint64(1); seed <= leapEquivSeeds; seed++ {
		var outs [2]*AsyncOutcome
		for ei, isLeap := range []bool{false, true} {
			s, _ := leapScenario(t, spec, seed, isLeap)
			out, err := s.RunAsyncMIS(spreadWakes(s.Net.N(), 0, 200), core.FilterDetector)
			if err != nil {
				t.Fatalf("seed %d leap=%v: %v", seed, isLeap, err)
			}
			if rep := verify.MIS(s.Net, s.H(), out.Outputs); !rep.OK() {
				t.Fatalf("seed %d leap=%v: invalid async MIS: %v", seed, isLeap, rep.Err())
			}
			st := &exact
			if isLeap {
				st = &leap
			}
			st.push(countMembers(out.InMIS), out.DecidedRound, out.Rounds)
			outs[ei] = out
		}
		if diffLeap(outs[1], outs[0]) != "" {
			differ++
		}
	}
	if differ == 0 {
		t.Error("exact and leap realized identical executions on every seed; Skip was never called")
	}
	checkBand(t, "async size", exact.sizes, leap.sizes)
	checkBand(t, "async decided round", exact.decided, leap.decided)
}

// TestLeapEquivalenceContinuousCCDS: the continuous rerun under a stable
// detector; committed outputs at the checkpoint must solve CCDS for both
// engines and the bounded execution length agrees exactly.
func TestLeapEquivalenceContinuousCCDS(t *testing.T) {
	const b = 1 << 15
	spec := InstanceSpec{N: 48}
	for seed := uint64(1); seed <= 4; seed++ {
		var rounds [2]int
		for ei, isLeap := range []bool{false, true} {
			s, _ := leapScenario(t, spec, seed, isLeap)
			s.B = b
			period, err := core.CCDSRounds(s.Net.N(), s.Net.Delta(), b, s.Params)
			if err != nil {
				t.Fatal(err)
			}
			dyn := detector.NewSchedule(detector.ScheduleStep{Round: 0, Detector: s.Det})
			checkpoint := 2 * period
			out, err := s.RunContinuousCCDS(dyn, 3, []int{checkpoint})
			if err != nil {
				t.Fatalf("seed %d leap=%v: %v", seed, isLeap, err)
			}
			outputs, ok := out.Checkpoints[checkpoint]
			if !ok {
				t.Fatalf("seed %d leap=%v: checkpoint %d not sampled", seed, isLeap, checkpoint)
			}
			if rep := verify.CCDS(s.Net, s.H(), outputs, 0); !rep.OK() {
				t.Fatalf("seed %d leap=%v: invalid committed CCDS: %v", seed, isLeap, rep.Err())
			}
			rounds[ei] = out.Rounds
		}
		if rounds[0] != rounds[1] {
			t.Errorf("seed %d: bounded run length %d (exact) vs %d (leap)", seed, rounds[0], rounds[1])
		}
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

// roundCount is an Observer counting the rounds the engine executed.
type roundCount int

func (c *roundCount) OnRound(int, []int, []sim.Delivery) { *c++ }

// leapProtocols are the protocols TestLeapMatchesExact runs, each on a
// scenario with a generous message bound.
var leapProtocols = []struct {
	name string
	tau  int
	run  func(s *Scenario) (any, error)
}{
	{"mis", 0, func(s *Scenario) (any, error) { return s.RunMIS() }},
	{"ccds", 0, func(s *Scenario) (any, error) { return s.RunCCDS() }},
	{"baseline", 0, func(s *Scenario) (any, error) { return s.RunBaselineCCDS() }},
	{"tau", 1, func(s *Scenario) (any, error) { return s.RunTauCCDS(1) }},
	{"async", 0, func(s *Scenario) (any, error) {
		return s.RunAsyncMIS(spreadWakes(s.Net.N(), 50, 600), core.FilterDetector)
	}},
	{"continuous", 0, func(s *Scenario) (any, error) {
		period, err := core.CCDSRounds(s.Net.N(), s.Net.Delta(), s.B, s.params())
		if err != nil {
			return nil, err
		}
		dyn := detector.NewSchedule(detector.ScheduleStep{Round: 0, Detector: s.Det})
		return s.RunContinuousCCDS(dyn, 2, []int{period / 3, period / 2, period, period + period/3, 2*period - 1})
	}},
}

// leapAdversary builds a fresh adversary of the named kind; the uniform
// one draws from a stream the seed fixes.
func leapAdversary(kind string, s *Scenario, seed uint64) adversary.Adversary {
	switch kind {
	case "full":
		return adversary.NewFull(s.Net)
	case "collision":
		return adversary.NewCollisionSeeking(s.Net)
	case "uniform":
		return adversary.NewUniformP(s.Net, 0.3, rand.New(rand.NewPCG(seed, 0xADA)))
	}
	return nil
}

// diffLeap names the first difference between a leap outcome and the exact
// one of the same protocol.
func diffLeap(got, want any) string {
	switch g := got.(type) {
	case *Outcome:
		return diffOutcome(g, want.(*Outcome))
	case *AsyncOutcome:
		w := want.(*AsyncOutcome)
		if d := diffOutcome(&g.Outcome, &w.Outcome); d != "" {
			return d
		}
		if !reflect.DeepEqual(g.Latency, w.Latency) {
			return fmt.Sprintf("Latency %v, want %v", g.Latency, w.Latency)
		}
	case *ContinuousOutcome:
		if !reflect.DeepEqual(g, want.(*ContinuousOutcome)) {
			return fmt.Sprintf("%+v, want %+v", g, want)
		}
	}
	return ""
}

// engineStats returns a protocol outcome's engine counters, or nil for the
// continuous CCDS, whose outcome carries none.
func engineStats(o any) *sim.Stats {
	switch o := o.(type) {
	case *Outcome:
		return &o.Stats
	case *AsyncOutcome:
		return &o.Stats
	}
	return nil
}

// TestLeapMatchesExact runs every protocol under both engines and the
// adversaries none, full, collision and uniform over several n and seeds,
// and requires equal Outcomes. The one counter allowed to differ is
// GrayActivations under Full, which counts every executed round's gray
// edges, so the leap engine's can only be lower. Each scenario runs on
// its instance unshared, so both engines execute the MIS phase too.
//
// It also requires that the leap engine executes every round of a full
// MIS schedule (the MIS phase memo shares one phase between the engines on
// that ground) and, so that the equality is not vacuous, that it does jump
// on a quiet async-MIS run: an Observer there sees fewer rounds than
// Stats.Rounds.
func TestLeapMatchesExact(t *testing.T) {
	cases := 0
	for _, n := range []int{16, 24, 32, 48} {
		for seed := uint64(1); seed <= 3; seed++ {
			for _, proto := range leapProtocols {
				inst, err := SharedInstance(InstanceSpec{N: n, GrayProb: 0.3, Tau: proto.tau, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				for _, kind := range []string{"none", "full", "collision", "uniform"} {
					var outs [2]any
					for ei, leap := range []bool{false, true} {
						s := &Scenario{Net: inst.Net, Asg: inst.Asg, Det: inst.Det,
							Seed: seed, B: 1 << 15, Leap: leap}
						s.Adv = leapAdversary(kind, s, seed)
						if outs[ei], err = proto.run(s); err != nil {
							t.Fatalf("%s/%s/n=%d/seed=%d leap=%v: %v", proto.name, kind, n, seed, leap, err)
						}
					}
					cases++
					exact, leap := engineStats(outs[0]), engineStats(outs[1])
					if kind == "full" && leap != nil {
						if leap.GrayActivations > exact.GrayActivations {
							t.Errorf("%s/full/n=%d/seed=%d: leap GrayActivations %d > exact %d",
								proto.name, n, seed, leap.GrayActivations, exact.GrayActivations)
						}
						leap.GrayActivations = exact.GrayActivations
					}
					if d := diffLeap(outs[1], outs[0]); d != "" {
						t.Errorf("%s/%s/n=%d/seed=%d: leap differs from exact: %s", proto.name, kind, n, seed, d)
					}
					if proto.name != "mis" {
						continue
					}
					var seen roundCount
					s := &Scenario{Net: inst.Net, Asg: inst.Asg, Det: inst.Det,
						Seed: seed, Leap: true, Observer: &seen}
					s.Adv = leapAdversary(kind, s, seed)
					out, err := s.RunMIS()
					if err != nil {
						t.Fatal(err)
					}
					if int(seen) != out.Rounds {
						t.Errorf("mis/%s/n=%d/seed=%d: leap executed %d of %d rounds of a full MIS schedule",
							kind, n, seed, seen, out.Rounds)
					}
				}
			}
		}
	}
	// A quiet async-MIS run: no gray edges and wake-ups spread over rounds
	// 1000 to 5000, so the clock can jump until the first member announces.
	inst, err := SharedInstance(InstanceSpec{N: 32, GrayProb: -1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var outs [2]*AsyncOutcome
	var seen roundCount
	for ei, leap := range []bool{false, true} {
		s := &Scenario{Net: inst.Net, Asg: inst.Asg, Seed: 5, Leap: leap}
		if leap {
			s.Observer = &seen
		}
		if outs[ei], err = s.RunAsyncMIS(spreadWakes(32, 1000, 4000), core.FilterNone); err != nil {
			t.Fatal(err)
		}
	}
	cases++
	if d := diffLeap(outs[1], outs[0]); d != "" {
		t.Errorf("quiet async: leap differs from exact: %s", d)
	}
	if int(seen) >= outs[1].Rounds {
		t.Errorf("quiet async: leap executed %d of %d rounds; the clock never jumped", seen, outs[1].Rounds)
	}
	t.Logf("%d cases; the quiet async run executed %d of %d rounds under leap", cases, seen, outs[1].Rounds)
}
