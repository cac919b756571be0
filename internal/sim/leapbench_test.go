package sim_test

import (
	"math"
	"math/rand/v2"
	"testing"

	"dualradio/internal/adversary"
	"dualradio/internal/core"
	"dualradio/internal/detector"
	"dualradio/internal/dualgraph"
	"dualradio/internal/gen"
	"dualradio/internal/sim"
)

// benchmarkLeapMIS measures full MIS executions with either engine. The
// interesting regime is the quiet phase: in the late competition phases
// each process broadcasts with probability 2^-Θ(log n) per round, so the
// exact engine spends almost every round drawing coins that come up tails
// while the leap engine samples the next heads round geometrically and
// jumps. params lets the quiet variant stretch those phases; quiet mode
// additionally disables member re-announcements (the documented ablation
// switch), leaving late epochs globally broadcast-free — the regime where
// round-skipping turns O(rounds) into O(events).
//
// Single-core-CI caveat: both engines run one sequential round loop, so the
// ratio reported here is per-core work; absolute ns/op on shared CI runners
// is noisy and only the exact/leap ratio on one machine is meaningful.
func benchmarkLeapMIS(b *testing.B, n int, leap, quiet bool, params core.Params) {
	b.Helper()
	rng := rand.New(rand.NewPCG(1, 1))
	net, err := gen.RandomGeometric(gen.GeometricConfig{N: n}, rng)
	if err != nil {
		b.Fatal(err)
	}
	asg := dualgraph.IdentityAssignment(n)
	det := detector.Complete(net, asg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		procs := make([]sim.Process, n)
		for v := 0; v < n; v++ {
			p, err := core.NewMISProcess(core.MISConfig{
				ID:                asg.ID(v),
				N:                 n,
				Detector:          det.Set(v),
				Filter:            core.FilterDetector,
				DisableReannounce: quiet,
				Params:            params,
				Rng:               rand.New(rand.NewPCG(uint64(i), uint64(v))),
			})
			if err != nil {
				b.Fatal(err)
			}
			procs[v] = p
		}
		r, err := sim.NewRunner(sim.Config{
			Net:       net,
			Adversary: adversary.NewCollisionSeeking(net),
			Processes: procs,
			Leap:      leap,
		})
		if err != nil {
			b.Fatal(err)
		}
		st, err := r.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(st.Rounds), "rounds")
	}
}

// quietParams stretches the competition phases, the regime the leap engine
// exists for: long stretches where every awake process holds a coin with
// success probability far below one per round.
func quietParams() core.Params {
	p := core.DefaultParams()
	p.Phase = 16
	return p
}

// bernoulliProc is the quiet-phase microcosm: the decay-style broadcast
// primitive every competition phase of the paper reduces to. Each round it
// broadcasts with probability p — under the exact contract that means one
// coin per round whether or not it transmits (so Broadcast can never sleep:
// the next round needs the next draw), while the leap contract
// samples the round of the next success geometrically and parks in the
// wake calendar.
type bernoulliProc struct {
	id    int
	p     float64
	total int
	rng   *rand.Rand
	sent  int
	next  int // pre-sampled round of the next success; 0 = not sampled yet
}

func (b *bernoulliProc) flip(round int) sim.Message {
	if b.rng.Float64() < b.p {
		b.sent++
		return testMsg{from: b.id, bits: 8}
	}
	return nil
}

func (b *bernoulliProc) Broadcast(round int) (sim.Message, int) {
	// Every round costs a coin, so the earliest possibly-broadcasting
	// round is always the next one: the exact engine gets no skipping help.
	return b.flip(round), round + 1
}

// geom samples the number of failures before the first success of iid
// Bernoulli(p) trials: floor(ln U / ln(1-p)) with U uniform on (0, 1].
func (b *bernoulliProc) geom() int {
	return int(math.Log(1-b.rng.Float64()) / math.Log1p(-b.p))
}

func (b *bernoulliProc) BroadcastLeap(round int) (sim.Message, int) {
	if b.next < round {
		b.next = round + b.geom()
	}
	if round < b.next {
		return nil, b.next
	}
	// The pre-sampled success round: broadcast with certainty, then sample
	// the following success afresh (the geometric gap restarts after one).
	b.sent++
	b.next = round + 1 + b.geom()
	return testMsg{from: b.id, bits: 8}, b.next
}

func (b *bernoulliProc) Receive(int, sim.Message) {}
func (b *bernoulliProc) Output() int              { return 0 }
func (b *bernoulliProc) Done() bool               { return false }
func (b *bernoulliProc) Rounds() int              { return b.total }

var _ sim.LeapBroadcaster = (*bernoulliProc)(nil)

// benchmarkQuietPhase is the headline quiet-phase measurement: n broadcast
// processes with per-round probability p over a long horizon. The exact
// engine owes one RNG draw per process per round (the bit-identity
// contract), so its cost is Θ(n·T); the leap engine's cost is Θ(events) —
// the broadcasts themselves plus the executed wake rounds.
func benchmarkQuietPhase(b *testing.B, leap bool, n, total int, p float64) {
	b.Helper()
	rng := rand.New(rand.NewPCG(9, 9))
	net, err := gen.RandomGeometric(gen.GeometricConfig{N: n}, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		procs := make([]sim.Process, n)
		for v := 0; v < n; v++ {
			procs[v] = &bernoulliProc{
				id: v + 1, p: p, total: total,
				rng: rand.New(rand.NewPCG(uint64(i)+17, uint64(v))),
			}
		}
		r, err := sim.NewRunner(sim.Config{
			Net: net, Processes: procs, MaxRounds: total, Leap: leap,
		})
		if err != nil {
			b.Fatal(err)
		}
		st, err := r.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(st.Broadcasts), "broadcasts")
	}
}

// BenchmarkLeapVsExact is the headline engine comparison. The quiet pair is
// the E1-class quiet-phase regime distilled: 64 decay-primitive processes
// (exactly the MIS competition-phase broadcaster) with per-round probability
// 2^-10 over a 100k-round horizon — the exact engine owes 6.4M coin draws,
// the leap engine owes ~6k events. The mis pairs run the full MIS protocol
// end to end; there the competition resolves within a few epochs and the
// exact engine's own wake calendar already sleeps decided processes, so the
// end-to-end gap is modest — the quiet pair isolates what leap adds on top.
func BenchmarkLeapVsExact(b *testing.B) {
	b.Run("quiet-exact-64", func(b *testing.B) { benchmarkQuietPhase(b, false, 64, 100_000, 1.0/1024) })
	b.Run("quiet-leap-64", func(b *testing.B) { benchmarkQuietPhase(b, true, 64, 100_000, 1.0/1024) })
	b.Run("mis-exact-256", func(b *testing.B) { benchmarkLeapMIS(b, 256, false, false, core.DefaultParams()) })
	b.Run("mis-leap-256", func(b *testing.B) { benchmarkLeapMIS(b, 256, true, false, core.DefaultParams()) })
	b.Run("mis-quiet-exact-256", func(b *testing.B) { benchmarkLeapMIS(b, 256, false, true, quietParams()) })
	b.Run("mis-quiet-leap-256", func(b *testing.B) { benchmarkLeapMIS(b, 256, true, true, quietParams()) })
}
