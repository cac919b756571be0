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

// fixedRun is one execution of the MIS family on a shared instance.
type fixedRun struct {
	algo      string          // "mis", "ccds" or "baseline"
	adv       string          // "none", "full", "collision", "uniform" or "bursty"
	obs       bool            // watch the run with an Observer
	b         int             // message bound (0 = unbounded, the MIS only)
	seed      uint64          // process seed
	filter    core.FilterMode // the MIS's reception filter (0 = detector)
	maxRounds int             // Scenario.MaxRounds
	stop      bool            // Scenario.StopWhenDecided
}

func (r fixedRun) String() string {
	return fmt.Sprintf("%s/%s/obs=%v/b=%d/seed=%d/filter=%d/max=%d/stop=%v",
		r.algo, r.adv, r.obs, r.b, r.seed, r.filter, r.maxRounds, r.stop)
}

// misFilter returns the MIS's reception filter.
func (r fixedRun) misFilter() core.FilterMode {
	if r.filter == 0 {
		return core.FilterDetector
	}
	return r.filter
}

// scenario returns the run's scenario on inst with a fresh adversary; the
// uniform and bursty adversaries draw from a stream fixed by the seed, so
// every scenario of one run starts them in the same state.
func (r fixedRun) scenario(inst *Instance) *Scenario {
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
func (r fixedRun) run(s *Scenario) (*Outcome, error) {
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
func referenceRun(t testing.TB, inst *Instance, r fixedRun) *refRun {
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
func (ref *refRun) simulated(r fixedRun) (int, bool) {
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
func (ref *refRun) diff(r fixedRun, got *Outcome, err error) string {
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

// checkRun runs r on inst through the harness and fails on any difference
// from its reference ref that diff names or, with an Observer, in any
// simulated round's broadcasters and deliveries.
func checkRun(t testing.TB, inst *Instance, r fixedRun, ref *refRun) {
	t.Helper()
	s := r.scenario(inst)
	got, err := r.run(s)
	if d := ref.diff(r, got, err); d != "" {
		t.Fatalf("%v: %s", r, d)
	}
	if r.obs && err == nil {
		k, _ := ref.simulated(r)
		if g, w := s.Observer.(*traceObserver).h.Sum64(), ref.trace[k]; g != w {
			t.Fatalf("%v: round trace %x, want %x", r, g, w)
		}
	}
}

// TestCCDSFamilyMatchesReference is the differential test of the CCDS
// family: every RunCCDS and RunBaselineCCDS run, with and without an
// Observer, must equal the single-runner reference exactly: outputs,
// InMIS, rounds, decided round, every Stats field and, with an Observer,
// the round trace. The grid crosses two instance shapes, the five
// adversaries and MaxRounds 0, inside the MIS phase and inside the search.
func TestCCDSFamilyMatchesReference(t *testing.T) {
	for _, spec := range []InstanceSpec{{N: 24, GrayProb: 0.15, Seed: 7}, {N: 48, GrayProb: 0.4, Seed: 7}} {
		inst, err := BuildInstance(spec)
		if err != nil {
			t.Fatal(err)
		}
		mis := core.MISRounds(spec.N, core.DefaultParams())
		for _, algo := range []string{"ccds", "baseline"} {
			for _, adv := range []string{"none", "full", "collision", "uniform", "bursty"} {
				base := fixedRun{algo: algo, adv: adv, b: 512, seed: 3}
				whole := referenceRun(t, inst, base)
				for _, maxRounds := range []int{0, mis / 2, (mis + whole.out.Rounds) / 2} {
					capped := base
					capped.maxRounds = maxRounds
					ref := whole
					if maxRounds > 0 {
						ref = referenceRun(t, inst, capped)
						if ref.out.Rounds != maxRounds {
							t.Fatalf("%v: the reference ran %d rounds", capped, ref.out.Rounds)
						}
					}
					for _, obs := range []bool{false, true} {
						r := capped
						r.obs = obs
						checkRun(t, inst, r, ref)
					}
				}
			}
		}
	}
}

// TestMISPhaseReuseMatchesReference checks sibling runs that share one
// instance: on each fresh instance a standalone MIS, a CCDS and a baseline
// run (the MIS first or not), a CCDS run under a smaller bound, runs under
// another adversary kind or seed, the stateful adversaries and Observer
// runs must each equal the single-runner reference on a separately built
// copy of the instance. Every run computes its own MIS phase, so no run may
// leave state on the shared instance that changes a later sibling's.
func TestMISPhaseReuseMatchesReference(t *testing.T) {
	runs := 0
	for _, spec := range []InstanceSpec{{N: 24, GrayProb: 0.15, Seed: 7}, {N: 48, GrayProb: 0.4, Seed: 7}} {
		pristine, err := BuildInstance(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, adv := range []string{"none", "full", "collision", "uniform", "bursty"} {
			for _, misFirst := range []bool{true, false} {
				inst, err := BuildInstance(spec)
				if err != nil {
					t.Fatal(err)
				}
				base := fixedRun{adv: adv, b: 512, seed: 3}
				order := []string{"ccds", "mis", "baseline"}
				if misFirst {
					order = []string{"mis", "ccds", "baseline"}
				}
				var siblings []fixedRun
				for _, algo := range order {
					r := base
					r.algo = algo
					siblings = append(siblings, r)
				}
				small := base
				small.algo, small.b = "ccds", 160
				other := fixedRun{algo: "baseline", adv: "none", b: 512, seed: 3}
				if adv == "none" {
					other.adv = "full"
				}
				watched := base
				watched.algo, watched.obs = order[0], true
				siblings = append(siblings, small, other,
					fixedRun{algo: "ccds", adv: adv, b: 512, seed: 4}, watched)
				for _, r := range siblings {
					checkRun(t, inst, r, referenceRun(t, pristine, r))
					runs++
				}
			}
		}
	}
	t.Logf("%d sibling runs matched", runs)
}

// TestMISPhaseCappedRunsUnsplit checks a CCDS run capped inside its MIS
// phase or at its end: it reports the cap's rounds and no decided round,
// and equals the reference. A standalone MIS stopping once decided and the
// uncapped CCDS run on the same instance then equal theirs.
func TestMISPhaseCappedRunsUnsplit(t *testing.T) {
	inst, err := BuildInstance(InstanceSpec{N: 32, GrayProb: 0.3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cut := core.MISRounds(32, core.DefaultParams())
	r := fixedRun{algo: "ccds", adv: "collision", b: 512, seed: 1}
	for _, capped := range []int{cut / 2, cut} {
		c := r
		c.maxRounds = capped
		out, err := c.run(c.scenario(inst))
		if err != nil {
			t.Fatal(err)
		}
		if out.Rounds != capped || out.DecidedRound != -1 {
			t.Fatalf("capped at %d: %d rounds, decided %d", capped, out.Rounds, out.DecidedRound)
		}
		checkRun(t, inst, c, referenceRun(t, inst, c))
	}
	mis := r
	mis.algo, mis.stop = "mis", true
	checkRun(t, inst, mis, referenceRun(t, inst, mis))
	checkRun(t, inst, r, referenceRun(t, inst, r))
}

// TestMISPhaseTinyBoundFails checks that an MIS run whose bound is below
// its messages' size fails as the reference does, on a fresh instance and
// beside a CCDS sibling that ran first.
func TestMISPhaseTinyBoundFails(t *testing.T) {
	for _, sibling := range []bool{false, true} {
		inst, err := BuildInstance(InstanceSpec{N: 32, Seed: 12})
		if err != nil {
			t.Fatal(err)
		}
		r := fixedRun{algo: "ccds", adv: "collision", b: 512, seed: 1}
		if sibling {
			checkRun(t, inst, r, referenceRun(t, inst, r))
		}
		r.algo, r.b = "mis", core.MISMessageBits(32)-1
		if _, err := r.run(r.scenario(inst)); err == nil {
			t.Fatalf("sibling=%v: MIS with a %d-bit bound ran", sibling, r.b)
		}
		checkRun(t, inst, r, referenceRun(t, inst, r))
	}
}

// TestMISStopsAtDecisionMatchesReference is the differential test of the
// decided tail: a standalone MIS, which stops at its decided round unless
// an Observer watches it or a message could exceed the bound, must report
// the whole run's outputs, InMIS, rounds, decided round and error, Stats
// equal to the reference runner's after the rounds it simulated and, with
// an Observer, the reference's round trace. The grid crosses n, the
// adversaries, the three reception filters, MaxRounds (0, below the
// decided round, between it and the schedule end, and past the end), no
// bound, the tightest fitting bound and one a bit under it (every
// unlabeled run then fails, as the reference does), StopWhenDecided and an
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
				base := fixedRun{algo: "mis", adv: adv, filter: filter, seed: uint64(n)}
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
					// A bound one bit under the largest message keeps the
					// whole run. Unlabeled messages all have that size, so
					// the run fails before any process decides.
					under := capped
					under.b = whole.bits - 1
					underRef := referenceRun(t, inst, under)
					if filter != core.FilterMutual && (underRef.err == nil || underRef.out.DecidedRound >= 0) {
						t.Fatalf("%v: the reference decided (%d) or ran (%v) with a bound under every message",
							under, underRef.out.DecidedRound, underRef.err)
					}
					for _, stop := range []bool{false, true} {
						// An Observer keeps the whole run at any bound.
						for _, v := range []struct {
							b   int
							obs bool
							ref *refRun
						}{{0, false, ref}, {ref.bits, false, ref}, {ref.bits, true, ref},
							{under.b, false, underRef}, {under.b, true, underRef}} {
							r := capped
							r.b, r.stop, r.obs = v.b, stop, v.obs
							checkRun(t, inst, r, v.ref)
							if k, ok := v.ref.simulated(r); ok && k < len(v.ref.stats)-1 {
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
		r := fixedRun{algo: "mis", adv: "none", b: core.MISMessageBits(2) - 1, seed: seed}
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

// FuzzRunFixedMatchesReference fuzzes runFixed against the single-runner
// reference: per input one mis, ccds or baseline run over a fuzzed n, gray
// probability, seed, adversary kind, MIS filter and MaxRounds. A CCDS-family
// run must equal the reference exactly; an MIS run must meet the
// decided-tail contract diff states.
func FuzzRunFixedMatchesReference(f *testing.F) {
	f.Add(uint8(24), uint8(40), uint64(1), uint8(0), uint8(2), uint8(0), uint16(0))
	f.Add(uint8(40), uint8(100), uint64(7), uint8(1), uint8(1), uint8(0), uint16(0))
	f.Add(uint8(16), uint8(10), uint64(3), uint8(2), uint8(0), uint8(0), uint16(0))
	f.Add(uint8(32), uint8(80), uint64(5), uint8(1), uint8(3), uint8(0), uint16(900))
	f.Add(uint8(20), uint8(60), uint64(9), uint8(2), uint8(4), uint8(0), uint16(9000))
	f.Add(uint8(28), uint8(50), uint64(4), uint8(0), uint8(4), uint8(1), uint16(300))
	f.Add(uint8(36), uint8(30), uint64(6), uint8(0), uint8(1), uint8(2), uint16(0))
	f.Fuzz(func(t *testing.T, rawN, rawGray uint8, seed uint64, algo, adv, filter uint8, maxRounds uint16) {
		n := 8 + int(rawN)%41 // [8, 48]
		inst, err := BuildInstance(InstanceSpec{N: n, GrayProb: float64(rawGray%128) / 255, Seed: seed})
		if err != nil {
			return // unbuildable instance: nothing to compare
		}
		algos := []string{"mis", "ccds", "baseline"}
		kinds := []string{"none", "full", "collision", "uniform", "bursty"}
		filters := []core.FilterMode{core.FilterDetector, core.FilterNone, core.FilterMutual}
		r := fixedRun{algo: algos[int(algo)%len(algos)], adv: kinds[int(adv)%len(kinds)], b: 512, seed: seed,
			filter: filters[int(filter)%len(filters)], maxRounds: int(maxRounds)}
		checkRun(t, inst, r, referenceRun(t, inst, r))
	})
}
