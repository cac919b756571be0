package harness

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand/v2"
	"reflect"
	"testing"

	"dualradio/internal/adversary"
	"dualradio/internal/core"
	"dualradio/internal/detector"
	"dualradio/internal/dualgraph"
	"dualradio/internal/geom"
	"dualradio/internal/graph"
	"dualradio/internal/sim"
)

// phaseRun is one execution of the MIS family on a shared instance.
type phaseRun struct {
	algo      string          // "mis", "ccds" or "baseline"
	adv       string          // "none", "full", "collision", "uniform" or "bursty"
	obs       bool            // watch the run with an Observer
	b         int             // message bound (0 = unbounded, the MIS only)
	seed      uint64          // process seed
	filter    core.FilterMode // the MIS's reception filter (0 = detector)
	maxRounds int             // Scenario.MaxRounds
	stop      bool            // Scenario.StopWhenDecided
}

func (r phaseRun) String() string {
	return fmt.Sprintf("%s/%s/obs=%v/b=%d/seed=%d/filter=%d/max=%d/stop=%v",
		r.algo, r.adv, r.obs, r.b, r.seed, r.filter, r.maxRounds, r.stop)
}

// misFilter returns the MIS's reception filter.
func (r phaseRun) misFilter() core.FilterMode {
	if r.filter == 0 {
		return core.FilterDetector
	}
	return r.filter
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
		Seed: r.seed, B: r.b, MaxRounds: r.maxRounds, StopWhenDecided: r.stop,
		Shared: inst,
	}
	if r.obs {
		s.Observer = &traceObserver{h: fnv.New64a()}
	}
	return s
}

// run executes the run through the harness.
func (r phaseRun) run(s *Scenario) (*Outcome, error) {
	switch r.algo {
	case "mis":
		return s.RunMISFiltered(r.misFilter())
	case "ccds":
		return s.RunCCDS()
	default:
		return s.RunBaselineCCDS()
	}
}

// traceObserver hashes every round's broadcasters and deliveries.
type traceObserver struct {
	h   hash.Hash64
	buf []byte
}

func (o *traceObserver) OnRound(round int, broadcasters []int, delivered []sim.Delivery) {
	b := binary.AppendUvarint(o.buf[:0], uint64(round))
	b = binary.AppendUvarint(b, uint64(len(broadcasters)))
	for _, v := range broadcasters {
		b = binary.AppendUvarint(b, uint64(v))
	}
	b = binary.AppendUvarint(b, uint64(len(delivered)))
	for _, d := range delivered {
		b = binary.AppendUvarint(b, uint64(d.To))
		b = binary.AppendUvarint(b, uint64(d.Msg.From()))
	}
	o.h.Write(b)
	o.buf = b
}

// refRun is the single-runner reference of a run: its core processes,
// built from round 0 with their own streams, driven by one Runner to the
// run's cap (MaxRounds, else one round past the schedule end) or its first
// error. stats[k] and trace[k] are the runner's counters and the hash of
// its round trace after k rounds; bits is the largest message an MIS
// process may send.
type refRun struct {
	out   *Outcome
	err   error
	stats []sim.Stats
	trace []uint64
	bits  int
}

// referenceRun runs r's single-runner reference on inst.
func referenceRun(t testing.TB, inst *Instance, r phaseRun) *refRun {
	t.Helper()
	s := r.scenario(inst)
	obs := &traceObserver{h: fnv.New64a()}
	s.Observer = obs
	n, delta := s.Net.N(), s.Net.Delta()
	procs := make([]sim.Process, n)
	ref := &refRun{}
	total := 0
	for v := 0; v < n; v++ {
		mcfg := core.MISConfig{ID: s.Asg.ID(v), N: n, Detector: s.Det.Set(v),
			Filter: r.misFilter(), LabelMessages: r.misFilter() == core.FilterMutual,
			Params: s.params(), Rng: s.RngFor(v)}
		ccfg := core.CCDSConfig{ID: s.Asg.ID(v), N: n, Delta: delta, B: s.B,
			Detector: s.Det.Set(v), Params: s.params(), Rng: mcfg.Rng}
		var p fixedProcess
		var err error
		switch r.algo {
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
		if m, ok := p.(*core.MISProcess); ok {
			ref.bits = max(ref.bits, m.MessageBits())
		}
		procs[v], total = p, p.Rounds()
	}
	maxRounds := s.MaxRounds
	if maxRounds <= 0 {
		maxRounds = total + 1
	}
	runner, err := sim.NewRunner(s.config(procs, maxRounds))
	if err != nil {
		t.Fatal(err)
	}
	ref.stats, ref.trace = []sim.Stats{runner.Stats()}, []uint64{obs.h.Sum64()}
	for more := true; more; {
		more = runner.Step()
		if runner.Round() == len(ref.stats) {
			ref.stats = append(ref.stats, runner.Stats())
			ref.trace = append(ref.trace, obs.h.Sum64())
		}
	}
	ref.out = collect(runner, func(p sim.Process) bool {
		return p.(interface{ InMIS() bool }).InMIS()
	})
	ref.err = runner.Err()
	return ref
}

// simulated returns how many rounds the harness simulates of r, and
// whether it stops at the decided round: a standalone MIS does unless an
// Observer watches it or one of its messages could exceed the bound, and
// StopWhenDecided stops every run there.
func (ref *refRun) simulated(r phaseRun) (int, bool) {
	tail := r.algo == "mis" && !r.obs && (r.b <= 0 || r.b >= ref.bits)
	if d := ref.out.DecidedRound; d >= 0 && (tail || r.stop) {
		return d, true
	}
	return len(ref.stats) - 1, false
}

// diff names the first way the harness's outcome got and error err for r
// differ from the reference, or returns "". Outputs, InMIS, the decided
// round and, unless the run stops once decided, rounds and error are the
// whole run's; Stats are the reference's after the rounds r simulates.
func (ref *refRun) diff(r phaseRun, got *Outcome, err error) string {
	k, stopped := ref.simulated(r)
	wantErr := ref.err
	if stopped {
		wantErr = nil
	}
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		return fmt.Sprintf("error %v, want %v", err, wantErr)
	}
	if err != nil {
		return ""
	}
	want := *ref.out
	want.Stats = ref.stats[k]
	if r.stop {
		want.Rounds = k
	}
	return diffOutcome(got, &want)
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

// phasePath names the path a run takes on inst: a standalone MIS takes
// "none", neither reading nor filling the memo; a CCDS-family run takes
// "cold" when it claims the empty memo slot, "warm" when it reads the slot
// its key filled, and "inline" when it runs its own stage 1 (an ineligible
// run, or a key other than the slot's).
func phasePath(inst *Instance, s *Scenario, algo string) string {
	if algo == "mis" {
		return "none"
	}
	key, ok := s.misPhaseKey()
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
// reference, and fails on any difference diff names or, with an Observer,
// in any simulated round's broadcasters and deliveries. It returns the
// path the run took.
func checkPhaseRun(t testing.TB, inst *Instance, r phaseRun) string {
	t.Helper()
	return checkRun(t, inst, r, referenceRun(t, inst, r))
}

// checkRun is checkPhaseRun against a reference already run.
func checkRun(t testing.TB, inst *Instance, r phaseRun, ref *refRun) string {
	t.Helper()
	s := r.scenario(inst)
	slot := inst.mis
	path := phasePath(inst, s, r.algo)
	got, err := r.run(s)
	if d := ref.diff(r, got, err); d != "" {
		t.Fatalf("%v (%s path): %s", r, path, d)
	}
	if r.obs && err == nil {
		k, _ := ref.simulated(r)
		if g, w := s.Observer.(*traceObserver).h.Sum64(), ref.trace[k]; g != w {
			t.Fatalf("%v: round trace %x, want %x", r, g, w)
		}
	}
	switch path {
	case "none":
		if inst.mis != slot {
			t.Fatalf("%v: a standalone MIS changed the memo slot", r)
		}
	case "cold", "warm":
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
// instance the first CCDS-family run fills the memo (cold) and its sibling
// under the same key reads it (warm), with a standalone MIS before, between
// or after them taking neither path; runs under another adversary kind or
// seed run inline beside it, as do the stateful adversaries and Observer
// runs.
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
				for _, algo := range order {
					r := base
					r.algo = algo
					want := "warm"
					switch {
					case algo == "mis":
						want = "none"
					case inst.mis == nil:
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
				for _, o := range []phaseRun{{algo: "baseline", adv: otherAdv(adv), b: 512, seed: 3},
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
				want := "inline"
				if algo == "mis" {
					want = "none"
				}
				if p := checkPhaseRun(t, inst, r); p != want {
					t.Fatalf("%v: took the %s path, want %s", r, p, want)
				}
				paths[want]++
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

// TestMISStopsAtDecisionMatchesReference is the differential test of the
// decided tail: a standalone MIS, which stops at its decided round unless
// an Observer watches it or a message could exceed the bound, must report
// the whole run's outputs, InMIS, rounds, decided round and error, Stats
// equal to the reference runner's after the rounds it simulated and, with
// an Observer, the reference's round trace. The grid crosses n, the
// adversaries, the three reception filters, MaxRounds (0, below the
// decided round, between it and the schedule end, and past the end), an
// unbounded and the tightest fitting bound, StopWhenDecided and an
// Observer.
func TestMISStopsAtDecisionMatchesReference(t *testing.T) {
	stopped := 0
	for _, n := range []int{16, 48, 96} {
		inst, err := BuildInstance(InstanceSpec{N: n, GrayProb: 0.3, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		for _, adv := range []string{"none", "full", "collision", "uniform", "bursty"} {
			for _, filter := range []core.FilterMode{core.FilterDetector, core.FilterNone, core.FilterMutual} {
				base := phaseRun{algo: "mis", adv: adv, filter: filter, seed: uint64(n)}
				whole := referenceRun(t, inst, base)
				decided, end := whole.out.DecidedRound, whole.out.Rounds
				if decided < 0 {
					t.Fatalf("%v: the reference never decided", base)
				}
				for _, maxRounds := range []int{0, decided / 2, (decided + end) / 2, end + 5} {
					capped := base
					capped.maxRounds = maxRounds
					// A cap at or past the end leaves the reference whole.
					ref := whole
					if maxRounds > 0 && maxRounds < end {
						ref = referenceRun(t, inst, capped)
					}
					for _, stop := range []bool{false, true} {
						// An Observer keeps the whole run at any bound.
						for _, v := range []struct {
							b   int
							obs bool
						}{{0, false}, {ref.bits, false}, {ref.bits, true}} {
							r := capped
							r.b, r.stop, r.obs = v.b, stop, v.obs
							checkRun(t, inst, r, ref)
							if k, ok := ref.simulated(r); ok && k < len(ref.stats)-1 {
								stopped++
							}
						}
					}
				}
			}
		}
	}
	if stopped == 0 {
		t.Fatal("no run stopped short of its reference")
	}
	t.Logf("%d runs stopped at their decided round", stopped)
	checkSizeGuardAfterDecision(t)
}

// checkSizeGuardAfterDecision checks the size guard on the runs it exists
// for: a bound one bit under every message, at n=2, where both processes
// stay silent through the first competition phase and the first
// announcement round, so each joins and every process has decided before
// the first broadcast fails. About one seed in 1,000 does; the scan must
// find one, and such a run must fail as the reference does rather than
// stop at its decided round.
func checkSizeGuardAfterDecision(t *testing.T) {
	t.Helper()
	b := graph.NewBuilder(2)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	net := dualgraph.New(g, g, []geom.Point{{X: 0}, {X: 1}}, 2)
	asg := dualgraph.IdentityAssignment(2)
	inst := &Instance{Net: net, Asg: asg, Det: detector.Complete(net, asg)}
	late := 0
	for seed := uint64(1); seed <= 4000; seed++ {
		r := phaseRun{algo: "mis", adv: "none", b: core.MISMessageBits(2) - 1, seed: seed}
		ref := referenceRun(t, inst, r)
		if ref.err == nil {
			t.Fatalf("%v: the reference ran with a bound under every message", r)
		}
		if ref.out.DecidedRound < 0 {
			continue
		}
		late++
		checkRun(t, inst, r, ref)
	}
	if late == 0 {
		t.Fatal("no seed fails on size only after its decided round")
	}
	t.Logf("%d seeds fail on size after deciding", late)
}

// TestMISPhaseCappedRunsUnsplit checks the runs that keep the single
// runner: a CCDS run capped inside the MIS phase, and a standalone MIS,
// here one stopping once decided. They neither read nor fill the memo.
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
		t.Fatal("a capped CCDS run or a standalone MIS filled the memo")
	}
	// The full-schedule CCDS run fills it, and the reference agrees.
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
// reference, whichever claims the slot, and each standalone MIS beside
// them stops at its decided round, so it read no phase.
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
		if d := referenceRun(t, inst, r).diff(r, outs[i], nil); d != "" {
			t.Fatalf("%v: %s", r, d)
		}
	}
}

// FuzzMISPhaseReuse fuzzes the memoized MIS phase and the standalone MIS
// against the single-runner reference: n, gray probability, seed,
// adversary kind and the order of two siblings on one fresh instance. Each
// CCDS-family run must equal the reference exactly, whether it filled the
// memo, read it or ran inline; each MIS run must meet the decided-tail
// contract checkPhaseRun states.
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
