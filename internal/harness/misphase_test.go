package harness

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"reflect"
	"testing"

	"dualradio/internal/adversary"
	"dualradio/internal/core"
	"dualradio/internal/sim"
)

// phaseRun is one execution of the MIS family on a shared instance.
type phaseRun struct {
	algo string // "mis", "ccds" or "baseline"
	adv  string // "none", "full", "collision", "uniform" or "bursty"
	obs  bool   // watch the run with an Observer
	b    int    // message bound of the CCDS family
	seed uint64 // process seed
}

func (r phaseRun) String() string {
	return fmt.Sprintf("%s/%s/obs=%v/b=%d/seed=%d", r.algo, r.adv, r.obs, r.b, r.seed)
}

// scenario returns the run's scenario on inst with a fresh adversary; the
// uniform and bursty adversaries draw from a stream fixed by the seed, so
// every scenario of one run starts them in the same state.
func (r phaseRun) scenario(inst *Instance) *Scenario {
	var adv adversary.Adversary
	rng := rand.New(rand.NewPCG(r.seed, 0xAD))
	switch r.adv {
	case "full":
		adv = adversary.NewFull(inst.Net)
	case "collision":
		adv = adversary.NewCollisionSeeking(inst.Net)
	case "uniform":
		adv = adversary.NewUniformP(inst.Net, 0.3, rng)
	case "bursty":
		adv = adversary.NewBursty(inst.Net, 3, 5, rng)
	}
	s := &Scenario{
		Net: inst.Net, Asg: inst.Asg, Det: inst.Det, Adv: adv,
		Seed: r.seed, Shared: inst,
	}
	if r.algo != "mis" {
		s.B = r.b
	}
	if r.obs {
		s.Observer = &traceObserver{h: fnv.New64a()}
	}
	return s
}

// run executes the run through the harness: the two-stage path.
func (r phaseRun) run(s *Scenario) (*Outcome, error) {
	switch r.algo {
	case "mis":
		return s.RunMIS()
	case "ccds":
		return s.RunCCDS()
	default:
		return s.RunBaselineCCDS()
	}
}

// traceObserver hashes every round's broadcasters and deliveries.
type traceObserver struct {
	h interface {
		Write([]byte) (int, error)
		Sum64() uint64
	}
}

func (o *traceObserver) OnRound(round int, broadcasters []int, delivered []sim.Delivery) {
	fmt.Fprint(o.h, round, broadcasters)
	for _, d := range delivered {
		fmt.Fprint(o.h, d.To, d.Msg.From())
	}
}

// referenceRun is the single-runner reference: the run's core processes,
// built from round 0 with their own streams, driven by one Runner through
// the whole schedule and one closing round.
func referenceRun(t testing.TB, s *Scenario, algo string) *Outcome {
	t.Helper()
	n, delta := s.Net.N(), s.Net.Delta()
	procs := make([]sim.Process, n)
	total := 0
	for v := 0; v < n; v++ {
		mcfg := core.MISConfig{ID: s.Asg.ID(v), N: n, Detector: s.Det.Set(v),
			Filter: core.FilterDetector, Params: s.params(), Rng: s.RngFor(v)}
		ccfg := core.CCDSConfig{ID: s.Asg.ID(v), N: n, Delta: delta, B: s.B,
			Detector: s.Det.Set(v), Params: s.params(), Rng: mcfg.Rng}
		var p fixedProcess
		var err error
		switch algo {
		case "mis":
			p, err = core.NewMISProcess(mcfg)
		case "ccds":
			p, err = core.NewCCDSProcess(ccfg)
		default:
			p, err = core.NewBaselineCCDSProcess(ccfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		procs[v], total = p, p.Rounds()
	}
	runner, err := sim.NewRunner(s.config(procs, total+1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.Run(); err != nil {
		t.Fatal(err)
	}
	return collect(runner, func(p sim.Process) bool {
		return p.(interface{ InMIS() bool }).InMIS()
	})
}

// diffOutcome names the first field in which got differs from want.
func diffOutcome(got, want *Outcome) string {
	switch {
	case !reflect.DeepEqual(got.Outputs, want.Outputs):
		return fmt.Sprintf("Outputs %v, want %v", got.Outputs, want.Outputs)
	case !reflect.DeepEqual(got.InMIS, want.InMIS):
		return fmt.Sprintf("InMIS %v, want %v", got.InMIS, want.InMIS)
	case got.Rounds != want.Rounds:
		return fmt.Sprintf("Rounds %d, want %d", got.Rounds, want.Rounds)
	case got.DecidedRound != want.DecidedRound:
		return fmt.Sprintf("DecidedRound %d, want %d", got.DecidedRound, want.DecidedRound)
	case got.Stats != want.Stats:
		return fmt.Sprintf("Stats %+v, want %+v", got.Stats, want.Stats)
	}
	return ""
}

// phasePath names the path a run takes on inst: "cold" claims the empty
// memo slot, "warm" reads the slot its key filled, "inline" runs its own
// stage 1 (an ineligible run, or a key other than the slot's).
func phasePath(inst *Instance, s *Scenario) string {
	key, ok := s.misPhaseKey(core.FilterDetector)
	switch {
	case !ok:
		return "inline"
	case inst.mis == nil:
		return "cold"
	case inst.mis.key == key:
		return "warm"
	}
	return "inline"
}

// checkPhaseRun runs r on inst through the harness and through the
// reference, and fails on any difference in outputs, InMIS, rounds,
// decided round, engine counters or, with an Observer, any round's
// broadcasters and deliveries. It returns the path the run took.
func checkPhaseRun(t testing.TB, inst *Instance, r phaseRun) string {
	t.Helper()
	s := r.scenario(inst)
	path := phasePath(inst, s)
	got, err := r.run(s)
	if err != nil {
		t.Fatalf("%v: %v", r, err)
	}
	ref := r.scenario(inst)
	want := referenceRun(t, ref, r.algo)
	if d := diffOutcome(got, want); d != "" {
		t.Fatalf("%v (%s path): %s", r, path, d)
	}
	if r.obs {
		if g, w := s.Observer.(*traceObserver).h.Sum64(), ref.Observer.(*traceObserver).h.Sum64(); g != w {
			t.Fatalf("%v: round trace %x, want %x", r, g, w)
		}
	}
	if path != "inline" {
		if inst.mis == nil || inst.mis.out == nil {
			t.Fatalf("%v: the %s path left the memo empty", r, path)
		}
		checkMemo(t, inst.mis.out, r.scenario(inst), r)
	}
	return path
}

// checkMemo restores the memoized phase o into fresh MIS processes and
// requires the state of the reference's MIS phase: every process's
// output, M_u, joining epoch and PCG at the cut, and stage 1's counters.
// Outcome comparison alone cannot see every restore fault: the Section 5
// search re-adopts a master whose id M_u lost once its banned-list chunk
// arrives.
func checkMemo(t testing.TB, o *misOutcome, s *Scenario, r phaseRun) {
	t.Helper()
	n := s.Net.N()
	cut := core.MISRounds(n, s.params())
	procs := make([]sim.Process, n)
	refPCGs := make([]*rand.PCG, n)
	mis := make([]*core.MISProcess, n)
	pcgs := make([]rand.PCG, n)
	for v := 0; v < n; v++ {
		cfg := core.MISConfig{ID: s.Asg.ID(v), N: n, Detector: s.Det.Set(v),
			Filter: core.FilterDetector, Params: s.params()}
		refPCGs[v] = rand.NewPCG(s.Seed, s.stream(v))
		cfg.Rng = rand.New(refPCGs[v])
		p, err := core.NewMISProcess(cfg)
		if err != nil {
			t.Fatal(err)
		}
		procs[v] = p
		cfg.Rng = rand.New(&pcgs[v])
		if mis[v], err = core.NewMISProcess(cfg); err != nil {
			t.Fatal(err)
		}
	}
	runner, err := sim.NewRunner(s.config(procs, cut))
	if err != nil {
		t.Fatal(err)
	}
	want, err := runner.Run()
	if err != nil {
		t.Fatal(err)
	}
	if o.stats != want {
		t.Fatalf("%v: memoized counters %+v, want %+v", r, o.stats, want)
	}
	o.restore(mis, pcgs)
	for v, p := range procs {
		if got, want := mis[v].Outcome(), p.(*core.MISProcess).Outcome(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: node %d restored to %+v, want %+v", r, v, got, want)
		}
		if pcgs[v] != *refPCGs[v] {
			t.Fatalf("%v: node %d restored PCG %+v, want %+v", r, v, pcgs[v], *refPCGs[v])
		}
	}
}

// TestMISPhaseReuseMatchesReference is the equivalence test of the
// two-stage CCDS family and the memoized MIS phase: every run, on every
// path, must equal the single-runner reference exactly. On each fresh
// instance the first eligible run fills the memo (cold), its siblings under
// the same key read it (warm) in both orders, and runs under another
// adversary kind or seed run inline beside it, as do the stateful
// adversaries and Observer runs.
func TestMISPhaseReuseMatchesReference(t *testing.T) {
	paths := map[string]int{}
	for _, shape := range []InstanceSpec{{N: 24, GrayProb: 0.15}, {N: 48, GrayProb: 0.4}} {
		for _, adv := range []string{"none", "full", "collision"} {
			for _, misFirst := range []bool{true, false} {
				inst, err := BuildInstance(InstanceSpec{N: shape.N, GrayProb: shape.GrayProb, Seed: 7})
				if err != nil {
					t.Fatal(err)
				}
				base := phaseRun{adv: adv, b: 512, seed: 3}
				order := []string{"ccds", "mis", "baseline"}
				if misFirst {
					order = []string{"mis", "ccds", "baseline"}
				}
				for i, algo := range order {
					r := base
					r.algo = algo
					want := "warm"
					if i == 0 {
						want = "cold"
					}
					if p := checkPhaseRun(t, inst, r); p != want {
						t.Fatalf("%v: took the %s path, want %s", r, p, want)
					}
					paths[want]++
				}
				// The message bound stays out of the key.
				small := base
				small.algo, small.b = "ccds", 160
				paths[checkPhaseRun(t, inst, small)]++
				// Every other key runs inline beside the memoized one.
				for _, o := range []phaseRun{{algo: "mis", adv: otherAdv(adv), seed: 3},
					{algo: "ccds", adv: adv, b: 512, seed: 4}} {
					if p := checkPhaseRun(t, inst, o); p != "inline" {
						t.Fatalf("%v: took the %s path beside key %+v", o, p, inst.mis.key)
					}
					paths["inline"]++
				}
			}
		}
		// Stateful adversaries and Observers run inline.
		inst, err := BuildInstance(InstanceSpec{N: shape.N, GrayProb: shape.GrayProb, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []string{"mis", "ccds", "baseline"} {
			for _, r := range []phaseRun{
				{algo: algo, adv: "uniform", b: 512, seed: 5},
				{algo: algo, adv: "bursty", b: 512, seed: 5},
				{algo: algo, adv: "collision", obs: true, b: 512, seed: 5},
			} {
				if p := checkPhaseRun(t, inst, r); p != "inline" {
					t.Fatalf("%v: took the %s path", r, p)
				}
				paths["inline"]++
			}
		}
		if inst.mis != nil {
			t.Fatalf("ineligible runs filled the memo")
		}
	}
	t.Logf("runs per path: %v", paths)
}

// otherAdv returns a stateless adversary kind other than adv.
func otherAdv(adv string) string {
	if adv == "none" {
		return "full"
	}
	return "none"
}

// TestMISPhaseCappedRunsUnsplit checks the runs that keep the single
// runner: capped inside the MIS phase, or an MIS stopping once decided.
// They neither read nor fill the memo, and equal the reference's prefix.
func TestMISPhaseCappedRunsUnsplit(t *testing.T) {
	inst, err := BuildInstance(InstanceSpec{N: 32, GrayProb: 0.3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cut := core.MISRounds(32, core.DefaultParams())
	r := phaseRun{algo: "ccds", adv: "collision", b: 512, seed: 1}
	for _, capped := range []int{cut / 2, cut} {
		s := r.scenario(inst)
		s.MaxRounds = capped
		out, err := s.RunCCDS()
		if err != nil {
			t.Fatal(err)
		}
		if out.Rounds != capped || out.DecidedRound != -1 {
			t.Fatalf("capped at %d: %d rounds, decided %d", capped, out.Rounds, out.DecidedRound)
		}
	}
	s := r.scenario(inst)
	s.StopWhenDecided = true
	if _, err := s.RunMIS(); err != nil {
		t.Fatal(err)
	}
	if inst.mis != nil {
		t.Fatal("a run capped inside the MIS phase filled the memo")
	}
	// The full-schedule sibling fills it, and the reference agrees.
	if p := checkPhaseRun(t, inst, r); p != "cold" {
		t.Fatalf("full CCDS run took the %s path", p)
	}
}

// TestMISPhaseTinyBoundFails checks that an MIS run whose bound is below
// its messages' size fails as it always did, even beside a memoized phase
// that a CCDS sibling filled, and stores nothing of its own.
func TestMISPhaseTinyBoundFails(t *testing.T) {
	for _, warm := range []bool{false, true} {
		inst, err := BuildInstance(InstanceSpec{N: 32, Seed: 12})
		if err != nil {
			t.Fatal(err)
		}
		r := phaseRun{algo: "ccds", adv: "collision", b: 512, seed: 1}
		if warm {
			checkPhaseRun(t, inst, r)
		}
		s := r.scenario(inst)
		s.B = core.MISMessageBits(32) - 1
		if _, err := s.RunMIS(); err == nil {
			t.Fatalf("warm=%v: MIS with a %d-bit bound ran", warm, s.B)
		}
		if !warm && inst.mis != nil {
			t.Fatal("a failed MIS phase was stored")
		}
	}
}

// TestMISPhaseConcurrentSiblings runs the siblings of one key concurrently
// (under -race this checks the singleflight): every run equals the
// reference, whichever claims the slot.
func TestMISPhaseConcurrentSiblings(t *testing.T) {
	inst, err := BuildInstance(InstanceSpec{N: 40, GrayProb: 0.3, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	algos := []string{"mis", "ccds", "baseline", "ccds", "mis", "ccds"}
	outs, err := TrialsWorkers(len(algos), 4, func(i int) (*Outcome, error) {
		r := phaseRun{algo: algos[i], adv: "collision", b: 512, seed: 2}
		return r.run(r.scenario(inst))
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, algo := range algos {
		r := phaseRun{algo: algo, adv: "collision", b: 512, seed: 2}
		if d := diffOutcome(outs[i], referenceRun(t, r.scenario(inst), algo)); d != "" {
			t.Fatalf("%v: %s", r, d)
		}
	}
}

// FuzzMISPhaseReuse fuzzes the memoized MIS phase against the
// single-runner reference: n, gray probability, seed, adversary kind and
// the order of two siblings on one fresh instance. Each run must equal the
// reference exactly, whether it filled the memo, read it or ran inline.
func FuzzMISPhaseReuse(f *testing.F) {
	f.Add(uint8(24), uint8(40), uint64(1), uint8(2), uint8(0))
	f.Add(uint8(40), uint8(100), uint64(7), uint8(1), uint8(1))
	f.Add(uint8(16), uint8(10), uint64(3), uint8(0), uint8(2))
	f.Add(uint8(32), uint8(80), uint64(5), uint8(3), uint8(3))
	f.Add(uint8(20), uint8(60), uint64(9), uint8(4), uint8(4))
	f.Fuzz(func(t *testing.T, rawN, rawGray uint8, seed uint64, adv uint8, order uint8) {
		n := 8 + int(rawN)%41 // [8, 48]
		inst, err := BuildInstance(InstanceSpec{N: n, GrayProb: float64(rawGray%128) / 255, Seed: seed})
		if err != nil {
			return // unbuildable instance: nothing to compare
		}
		kinds := []string{"none", "full", "collision", "uniform", "bursty"}
		pairs := [][2]string{{"mis", "ccds"}, {"ccds", "mis"}, {"mis", "baseline"}, {"baseline", "ccds"}, {"ccds", "ccds"}}
		pair := pairs[int(order)%len(pairs)]
		for _, algo := range pair {
			checkPhaseRun(t, inst, phaseRun{algo: algo, adv: kinds[int(adv)%len(kinds)], b: 512, seed: seed})
		}
	})
}
