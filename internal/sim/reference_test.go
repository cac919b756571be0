package sim_test

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"dualradio/internal/adversary"
	"dualradio/internal/core"
	"dualradio/internal/detector"
	"dualradio/internal/dualgraph"
	"dualradio/internal/gen"
	"dualradio/internal/sim"
)

// refReception computes the Section 2 reception rule naively: for each node,
// enumerate every broadcaster reachable through G or an active gray edge and
// apply the collision rule. This is the specification the optimized engine
// must match.
func refReception(net *dualgraph.Network, bcast []bool, activeGray map[int]bool) []int {
	n := net.N()
	gray := net.GrayEdges()
	// 0 = no reception (⊥, or a broadcaster, which hears only itself);
	// otherwise the 1-based index of the sender node.
	out := make([]int, n)
	for v := 0; v < n; v++ {
		if bcast[v] {
			continue
		}
		count, sender := 0, 0
		for u := 0; u < n; u++ {
			if !bcast[u] || u == v {
				continue
			}
			reach := net.G().HasEdge(u, v)
			if !reach {
				for idx, e := range gray {
					if activeGray[idx] && ((e[0] == u && e[1] == v) || (e[0] == v && e[1] == u)) {
						reach = true
						break
					}
				}
			}
			if reach {
				count++
				sender = u + 1
			}
		}
		if count == 1 {
			out[v] = sender
		}
	}
	return out
}

// recordingProc broadcasts per a random script and records, per round, the
// 1-based sender node of the Receive call: 0 when Receive was not called,
// -1 when it was called with nil (which the contract forbids). It is done
// after limit Broadcast calls.
type recordingProc struct {
	node   int
	script []bool
	heard  []int
	limit  int
	round  int
}

func (p *recordingProc) Broadcast(round int) (sim.Message, int) {
	p.round++
	if round < len(p.script) && p.script[round] {
		return refMsg{from: p.node + 1}, round + 1
	}
	return nil, round + 1
}

type refMsg struct{ from int }

func (m refMsg) From() int    { return m.from }
func (m refMsg) BitSize() int { return 16 }

func (p *recordingProc) Receive(round int, msg sim.Message) {
	p.heard[round] = -1
	if msg != nil {
		p.heard[round] = msg.From()
	}
}
func (p *recordingProc) Output() int { return 0 }
func (p *recordingProc) Done() bool  { return p.round >= p.limit }

// capturingAdversary wraps an inner adversary and records its choices so the
// reference model can replay them.
type capturingAdversary struct {
	inner adversary.Adversary
	log   []map[int]bool
}

func (c *capturingAdversary) Reach(round int, bcast []bool, broadcasters []int, relCnt, hitNodes []int32) []int {
	got := c.inner.Reach(round, bcast, broadcasters, relCnt, hitNodes)
	m := make(map[int]bool, len(got))
	for _, idx := range got {
		m[idx] = true
	}
	c.log = append(c.log, m)
	return got
}

// TestEngineMatchesReferenceModel drives the engine with random broadcast
// scripts and a random adversary, then replays every round through the
// naive specification and compares receptions exactly.
func TestEngineMatchesReferenceModel(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0xEF))
		n := 8 + rng.IntN(24)
		net, err := gen.RandomGeometric(gen.GeometricConfig{N: n, TargetDegree: 6}, rng)
		if err != nil {
			// Tiny sparse instances occasionally fail to connect.
			return true
		}
		rounds := 12
		procs := make([]sim.Process, n)
		recs := make([]*recordingProc, n)
		for v := 0; v < n; v++ {
			script := make([]bool, rounds)
			for r := range script {
				script[r] = rng.Float64() < 0.3
			}
			recs[v] = &recordingProc{node: v, script: script, heard: make([]int, rounds), limit: rounds}
			procs[v] = recs[v]
		}
		adv := &capturingAdversary{
			inner: adversary.NewUniformP(net, 0.5, rand.New(rand.NewPCG(seed, 2))),
		}
		runner, err := sim.NewRunner(sim.Config{
			Net:       net,
			Adversary: adv,
			Processes: procs,
			MaxRounds: rounds,
		})
		if err != nil {
			return false
		}
		if _, err := runner.Run(); err != nil {
			return false
		}
		// Replay.
		for r := 0; r < rounds; r++ {
			bcast := make([]bool, n)
			for v := 0; v < n; v++ {
				bcast[v] = recs[v].script[r]
			}
			want := refReception(net, bcast, adv.log[r])
			for v := 0; v < n; v++ {
				if recs[v].heard[r] != want[v] {
					t.Logf("seed=%d round=%d node=%d: engine heard %d, reference says %d",
						seed, r, v, recs[v].heard[r], want[v])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// roundTrace is one round as an Observer sees it: the broadcaster list, and
// each delivery as the receiving node and the sender's id, in node order.
type roundTrace struct {
	round        int
	broadcasters []int
	deliveries   [][2]int
}

// traceObserver records every round it is shown, copying the slices the
// engine reuses between rounds.
type traceObserver struct{ rounds []roundTrace }

func (o *traceObserver) OnRound(round int, broadcasters []int, delivered []sim.Delivery) {
	rt := roundTrace{round: round, broadcasters: slices.Clone(broadcasters)}
	for _, d := range delivered {
		rt.deliveries = append(rt.deliveries, [2]int{d.To, d.Msg.From()})
	}
	o.rounds = append(o.rounds, rt)
}

// refExecution is the naive whole-execution reference for the exact engine:
// the Section 2 round rule with no active set, wake calendar or hit list.
// Every round it calls Broadcast on each process that is not done unless the
// wake round the process last declared while silent is still ahead (a
// per-process compare, no heap), hands the adversary a round view it
// computes itself (the ascending broadcaster list, and per node the count of
// broadcasting G-neighbors, with the counted nodes in ascending order),
// dispatches Receive to every silent process that is not done and is
// reached by exactly one broadcaster, and then checks Done directly.
// Reception counters and the delivery list cover every silent node reached
// by exactly one broadcaster, done or not. It stops where Runner.Run does
// (every process done, or maxRounds), or, with untilDecided, where
// Runner.RunUntil(AllDecided) does. It returns the outputs, the Stats, and
// each round's broadcasters and deliveries as an Observer would see them.
func refExecution(net *dualgraph.Network, adv adversary.Adversary, procs []sim.Process,
	maxRounds int, untilDecided bool) ([]int, sim.Stats, []roundTrace) {
	n := net.N()
	gray := net.GrayEdges()
	done := make([]bool, n)
	wake := make([]int, n)
	msgs := make([]sim.Message, n)
	bcast := make([]bool, n)
	cnt := make([]int, n)
	from := make([]int, n)
	relCnt := make([]int32, n)
	decided := func() bool {
		for _, p := range procs {
			if p.Output() == sim.Undecided {
				return false
			}
		}
		return true
	}
	for v, p := range procs {
		done[v] = p.Done()
	}
	st := sim.Stats{DecidedRound: -1}
	var trace []roundTrace
	for round := 0; round < maxRounds && !(untilDecided && decided()); round++ {
		for v, p := range procs {
			msgs[v], bcast[v] = nil, false
			if done[v] || round < wake[v] {
				continue
			}
			m, w := p.Broadcast(round)
			if m == nil {
				wake[v] = w
				continue
			}
			msgs[v], bcast[v] = m, true
			st.Broadcasts++
		}
		clear(cnt)
		reach := func(u, v int) {
			if bcast[u] {
				cnt[v]++
				from[v] = u
			}
		}
		for u := 0; u < n; u++ {
			if !bcast[u] {
				continue
			}
			for _, v := range net.G().Neighbors(u) {
				reach(u, int(v))
			}
		}
		// cnt holds only reliable hits until the gray edges are added.
		var broadcasters []int
		var hitNodes []int32
		for v := 0; v < n; v++ {
			if bcast[v] {
				broadcasters = append(broadcasters, v)
			}
			relCnt[v] = int32(cnt[v])
			if cnt[v] > 0 {
				hitNodes = append(hitNodes, int32(v))
			}
		}
		active := adv.Reach(round, bcast, broadcasters, relCnt, hitNodes)
		st.GrayActivations += len(active)
		for _, idx := range active {
			e := gray[idx]
			reach(e[0], e[1])
			reach(e[1], e[0])
		}
		rt := roundTrace{round: round, broadcasters: broadcasters}
		for v, p := range procs {
			switch {
			case bcast[v]: // a broadcaster hears only itself: no reception
			case cnt[v] == 1:
				st.Deliveries++
				rt.deliveries = append(rt.deliveries, [2]int{v, msgs[from[v]].From()})
				if !done[v] {
					p.Receive(round, msgs[from[v]])
				}
			case cnt[v] > 1:
				st.Collisions++
			}
		}
		trace = append(trace, rt)
		st.Rounds = round + 1
		for v, p := range procs {
			done[v] = done[v] || p.Done()
		}
		if st.DecidedRound < 0 && decided() {
			st.DecidedRound = st.Rounds
		}
		if !slices.Contains(done, false) {
			st.AllDone = true
			break
		}
	}
	outs := make([]int, n)
	for v, p := range procs {
		outs[v] = p.Output()
	}
	return outs, st, trace
}

// refAdversaries builds each adversary kind afresh per call, so the engine
// and the reference see identically seeded, independently stateful copies.
var refAdversaries = []struct {
	name string
	make func(net *dualgraph.Network, seed uint64) adversary.Adversary
}{
	{"none", func(*dualgraph.Network, uint64) adversary.Adversary { return adversary.None{} }},
	{"full", func(net *dualgraph.Network, _ uint64) adversary.Adversary { return adversary.NewFull(net) }},
	{"collision-seeking", func(net *dualgraph.Network, _ uint64) adversary.Adversary {
		return adversary.NewCollisionSeeking(net)
	}},
	{"uniform", func(net *dualgraph.Network, seed uint64) adversary.Adversary {
		return adversary.NewUniformP(net, 0.5, rand.New(rand.NewPCG(seed, 0xADA)))
	}},
	{"bursty", func(net *dualgraph.Network, seed uint64) adversary.Adversary {
		return adversary.NewBursty(net, 4, 4, rand.New(rand.NewPCG(seed, 0xB0)))
	}},
}

// refFleet is one protocol's seeded fleet on one instance. Each call returns
// fresh processes with identical RNG streams.
type refFleet struct {
	name         string
	build        func(t *testing.T) []sim.Process
	maxRounds    int
	untilDecided bool
}

// refFleets returns the five protocols on net, seeded by seed: the
// fixed-schedule ones run one round past their schedule (as the harness
// does), async MIS until every process decides.
func refFleets(t *testing.T, net *dualgraph.Network, seed uint64) []refFleet {
	t.Helper()
	n := net.N()
	const b = 1 << 12
	asg := dualgraph.IdentityAssignment(n)
	det := detector.Complete(net, asg)
	tauDet := detector.TauComplete(net, asg, 1, detector.PlaceGrayFirst, rand.New(rand.NewPCG(seed, 0x7A)))
	rng := func(v int) *rand.Rand { return rand.New(rand.NewPCG(seed, uint64(asg.ID(v)))) }
	ccdsCfg := func(v int, d *detector.Detector) core.CCDSConfig {
		return core.CCDSConfig{ID: asg.ID(v), N: n, Delta: net.Delta(), B: b,
			Detector: d.Set(v), Params: core.DefaultParams(), Rng: rng(v)}
	}
	fixed := func(name string, mk func(v int) (sim.Process, error)) refFleet {
		f := refFleet{name: name}
		f.build = func(t *testing.T) []sim.Process {
			t.Helper()
			procs := make([]sim.Process, n)
			for v := range procs {
				p, err := mk(v)
				if err != nil {
					t.Fatal(err)
				}
				procs[v] = p
			}
			return procs
		}
		f.maxRounds = f.build(t)[0].(interface{ Rounds() int }).Rounds() + 1
		return f
	}
	async := refFleet{name: "async-mis", maxRounds: 1 << 16, untilDecided: true}
	async.build = func(t *testing.T) []sim.Process { return buildAsyncProcs(t, n, asg, seed) }
	return []refFleet{
		fixed("mis", func(v int) (sim.Process, error) {
			return core.NewMISProcess(core.MISConfig{ID: asg.ID(v), N: n, Detector: det.Set(v),
				Filter: core.FilterDetector, Params: core.DefaultParams(), Rng: rng(v)})
		}),
		fixed("ccds", func(v int) (sim.Process, error) {
			return core.NewCCDSProcess(ccdsCfg(v, det))
		}),
		fixed("baseline", func(v int) (sim.Process, error) {
			return core.NewBaselineCCDSProcess(ccdsCfg(v, det))
		}),
		fixed("tau", func(v int) (sim.Process, error) {
			return core.NewTauCCDSProcess(ccdsCfg(v, tauDet), 1)
		}),
		async,
	}
}

// runEngine executes procs on the optimized engine with MessageBits and a
// fixed MaxRounds, the configuration refExecution mirrors. With observe it
// attaches an Observer and returns the rounds it saw; otherwise the trace
// is nil.
func runEngine(t *testing.T, net *dualgraph.Network, adv adversary.Adversary, procs []sim.Process,
	maxRounds int, untilDecided, observe bool) ([]int, sim.Stats, []roundTrace) {
	t.Helper()
	cfg := sim.Config{Net: net, Adversary: adv, Processes: procs, MessageBits: 1 << 12, MaxRounds: maxRounds}
	var obs traceObserver
	if observe {
		cfg.Observer = &obs
	}
	r, err := sim.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if untilDecided {
		_, err = r.RunUntil(r.AllDecided)
	} else {
		_, err = r.Run()
	}
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]int, len(procs))
	for v, p := range procs {
		outs[v] = p.Output()
	}
	return outs, r.Stats(), obs.rounds
}

// assertMatchesReference runs one fleet through refExecution and through
// the engine twice, without and with an Observer attached. Both engine
// runs must give the reference's outputs and Stats, and the observed run
// must show the reference's broadcaster and delivery lists every round.
func assertMatchesReference(t *testing.T, net *dualgraph.Network, f refFleet,
	mkAdv func(*dualgraph.Network, uint64) adversary.Adversary, seed uint64) {
	t.Helper()
	wantOut, wantStats, wantTrace := refExecution(net, mkAdv(net, seed), f.build(t), f.maxRounds, f.untilDecided)
	for _, observe := range []bool{false, true} {
		gotOut, gotStats, gotTrace := runEngine(t, net, mkAdv(net, seed), f.build(t), f.maxRounds, f.untilDecided, observe)
		if gotStats != wantStats {
			t.Errorf("observer %v: stats: engine %+v, reference %+v", observe, gotStats, wantStats)
		}
		for v := range wantOut {
			if gotOut[v] != wantOut[v] {
				t.Fatalf("observer %v: node %d: engine output %d, reference %d", observe, v, gotOut[v], wantOut[v])
			}
		}
		if !observe {
			continue
		}
		if len(gotTrace) != len(wantTrace) {
			t.Fatalf("observer saw %d rounds, reference ran %d", len(gotTrace), len(wantTrace))
		}
		for i, w := range wantTrace {
			g := gotTrace[i]
			if g.round != w.round || !slices.Equal(g.broadcasters, w.broadcasters) || !slices.Equal(g.deliveries, w.deliveries) {
				t.Fatalf("observed round %d: broadcasters %v, deliveries %v; reference round %d: %v, %v",
					g.round, g.broadcasters, g.deliveries, w.round, w.broadcasters, w.deliveries)
			}
		}
	}
}

// TestRunnerMatchesReference is the exact engine's whole-execution oracle:
// every protocol under every adversary kind, on small random instances,
// must produce the naive reference's outputs and every Stats field, with
// and without an Observer, and the Observer must see the reference's
// broadcaster and delivery lists.
func TestRunnerMatchesReference(t *testing.T) {
	const n = 48
	for seed := uint64(1); seed <= 3; seed++ {
		net, err := gen.RandomGeometric(gen.GeometricConfig{N: n}, rand.New(rand.NewPCG(seed, 0x5EED)))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range refFleets(t, net, seed) {
			for _, a := range refAdversaries {
				t.Run(fmt.Sprintf("%s/%s/seed%d", f.name, a.name, seed), func(t *testing.T) {
					assertMatchesReference(t, net, f, a.make, seed)
				})
			}
		}
	}
}

// FuzzRunnerMatchesReference runs the whole-execution oracle over fuzzed
// cases: the instance seed, a small n, the protocol, and the adversary
// kind. The corpus starts from TestRunnerMatchesReference's 75 cases.
func FuzzRunnerMatchesReference(f *testing.F) {
	for seed := uint64(1); seed <= 3; seed++ {
		for proto := uint8(0); proto < 5; proto++ {
			for adv := range refAdversaries {
				f.Add(seed, uint8(48), proto, uint8(adv))
			}
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, rawN, proto, adv uint8) {
		n := int(rawN) % 65 // [0, 64]; the generator rejects n <= 2
		net, err := gen.RandomGeometric(gen.GeometricConfig{N: n}, rand.New(rand.NewPCG(seed, 0x5EED)))
		if err != nil {
			return // unbuildable instance: nothing to compare
		}
		fleets := refFleets(t, net, seed)
		a := refAdversaries[int(adv)%len(refAdversaries)]
		assertMatchesReference(t, net, fleets[int(proto)%len(fleets)], a.make, seed)
	})
}
