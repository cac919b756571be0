package harness

import (
	"math/rand/v2"
	"slices"
	"testing"

	"dualradio/internal/adversary"
	"dualradio/internal/core"
	"dualradio/internal/verify"
)

// FuzzLeapDifferential is the differential harness between the exact and
// leap engines: one fuzz input configures a workload (size, seed, protocol,
// adversary) and both engines run it. Both drive the same Broadcast calls,
// so under the nil and collision adversaries, which keep no state, the
// execution is the same one: the engines must agree on Outputs, Rounds and
// DecidedRound. Under bursty the leap engine's Skip advances the links
// through a jumped stretch in law only, so there the invariants are
// structural:
//
//   - neither engine panics, and both agree on whether the workload errors;
//   - fixed-schedule protocols run for the identical number of rounds (the
//     schedule length is seed-independent arithmetic, so any divergence is
//     an engine bug, not randomness);
//   - under a jam-free adversary both engines' outputs solve the problem
//     (validity is NOT an invariant under jamming: the adversary is allowed
//     to starve a run).
//
// Each run is on its instance unshared, so neither engine reads an MIS
// phase the other memoized.
//
// Kept small enough for the CI fuzz-smoke budget: n is clamped to [8, 48]
// and CCDS variants get a generous message bound so schedules stay short.
func FuzzLeapDifferential(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint16(24), uint64(1))
	f.Add(uint8(1), uint8(1), uint16(32), uint64(7))
	f.Add(uint8(2), uint8(2), uint16(16), uint64(3))
	f.Add(uint8(3), uint8(3), uint16(48), uint64(11))
	f.Add(uint8(4), uint8(0), uint16(8), uint64(5))
	f.Fuzz(func(t *testing.T, algo, advKind uint8, rawN uint16, seed uint64) {
		n := 8 + int(rawN)%41 // [8, 48]
		tau := 0
		if algo%5 == 3 {
			tau = 1
		}
		inst, err := SharedInstance(InstanceSpec{N: n, Tau: tau, Seed: seed})
		if err != nil {
			return // unbuildable instance: nothing to compare
		}
		jamFree := advKind%3 == 0
		buildAdv := func() adversary.Adversary {
			switch advKind % 3 {
			case 0:
				return nil
			case 1:
				return adversary.NewCollisionSeeking(inst.Net)
			default:
				return adversary.NewBursty(inst.Net, 4, 4, rand.New(rand.NewPCG(seed, 0xF122)))
			}
		}
		type result struct {
			outputs []int
			rounds  int
			decided int
			err     error
		}
		run := func(leap bool) result {
			s := &Scenario{
				Net:    inst.Net,
				Asg:    inst.Asg,
				Det:    inst.Det,
				Adv:    buildAdv(),
				Params: core.DefaultParams(),
				Seed:   seed,
				B:      1 << 15,
				Leap:   leap,
			}
			var out *Outcome
			var err error
			switch algo % 5 {
			case 0:
				out, err = s.RunMIS()
			case 1:
				out, err = s.RunCCDS()
			case 2:
				out, err = s.RunBaselineCCDS()
			case 3:
				out, err = s.RunTauCCDS(tau)
			default:
				out, err = s.RunMISFiltered(core.FilterNone)
			}
			if err != nil {
				return result{err: err}
			}
			return result{outputs: out.Outputs, rounds: out.Rounds, decided: out.DecidedRound}
		}
		exact := run(false)
		leap := run(true)
		if (exact.err == nil) != (leap.err == nil) {
			t.Fatalf("engines disagree on error: exact %v vs leap %v", exact.err, leap.err)
		}
		if exact.err != nil {
			return
		}
		if exact.rounds != leap.rounds {
			t.Fatalf("fixed schedule length diverged: exact %d vs leap %d rounds", exact.rounds, leap.rounds)
		}
		if advKind%3 != 2 {
			if !slices.Equal(exact.outputs, leap.outputs) || exact.decided != leap.decided {
				t.Fatalf("stateless adversary: leap outputs %v decided %d, exact %v decided %d",
					leap.outputs, leap.decided, exact.outputs, exact.decided)
			}
		}
		if jamFree {
			s := &Scenario{Net: inst.Net, Asg: inst.Asg, Det: inst.Det, Shared: inst}
			h := s.H()
			for name, r := range map[string][]int{"exact": exact.outputs, "leap": leap.outputs} {
				var rep *verify.Report
				if algo%5 == 0 || algo%5 == 4 {
					rep = verify.MISOver(inst.Net.G(), h, r)
				} else {
					rep = verify.CCDS(inst.Net, h, r, 0)
				}
				if !rep.OK() {
					t.Fatalf("%s engine produced invalid outputs on a jam-free run: %v", name, rep.Err())
				}
			}
		}
	})
}
