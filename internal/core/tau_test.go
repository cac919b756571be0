package core

import (
	"math/rand/v2"
	"testing"

	"dualradio/internal/detector"
	"dualradio/internal/dualgraph"
	"dualradio/internal/gen"
	"dualradio/internal/sim"
)

func tauProcs(t *testing.T, net interface {
	N() int
	Delta() int
}, asg *dualgraph.Assignment, det *detector.Detector, tau int, seed uint64) []sim.Process {
	t.Helper()
	procs := make([]sim.Process, net.N())
	for v := 0; v < net.N(); v++ {
		p, err := NewTauCCDSProcess(CCDSConfig{
			ID: asg.ID(v), N: net.N(), Delta: net.Delta(), B: 1 << 16,
			Detector: det.Set(v), Params: DefaultParams(),
			Rng: rand.New(rand.NewPCG(seed, uint64(v+1))),
		}, tau)
		if err != nil {
			t.Fatal(err)
		}
		procs[v] = p
	}
	return procs
}

func TestTauCCDSRejectsNegativeTau(t *testing.T) {
	cfg := CCDSConfig{
		ID: 1, N: 4, Delta: 2, B: 512,
		Detector: detector.NewSet(4), Params: DefaultParams(),
		Rng: rand.New(rand.NewPCG(1, 1)),
	}
	if _, err := NewTauCCDSProcess(cfg, -1); err == nil {
		t.Error("negative tau accepted")
	}
}

// TestTauIterationsRunSequentially: with τ=1 the process runs exactly two
// MIS iterations before the connect procedure, and the total length matches
// the exported calculator.
func TestTauIterationsRunSequentially(t *testing.T) {
	cfg := CCDSConfig{
		ID: 1, N: 8, Delta: 3, B: 1 << 12,
		Detector: detector.SetOf(8, 2), Params: DefaultParams(),
		Rng: rand.New(rand.NewPCG(2, 2)),
	}
	p, err := NewTauCCDSProcess(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := TauCCDSRounds(8, 3, 1<<12, DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Rounds() != want {
		t.Errorf("Rounds() = %d, calculator says %d", p.Rounds(), want)
	}
}

// TestTauWinnerSilentInLaterIterations: a process that wins iteration 0
// never broadcasts contenders again during iteration 1.
func TestTauWinnerSilentInLaterIterations(t *testing.T) {
	// A lone process always wins iteration 0 (no competition).
	cfg := CCDSConfig{
		ID: 1, N: 8, Delta: 3, B: 1 << 12,
		Detector: detector.NewSet(8), Params: DefaultParams(),
		Rng: rand.New(rand.NewPCG(3, 3)),
	}
	p, err := NewTauCCDSProcess(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	misTotal := newMISSchedule(8, DefaultParams()).total
	for r := 0; r < misTotal; r++ {
		p.Broadcast(r)
		p.Receive(r, nil)
	}
	if !p.Dominator() || p.WonIteration() != 0 {
		t.Fatalf("lone process should win iteration 0, won=%d", p.WonIteration())
	}
	for r := misTotal; r < 2*misTotal; r++ {
		if msg, _ := p.Broadcast(r); msg != nil {
			t.Fatalf("iteration-0 winner broadcast during iteration 1 at round %d", r)
		}
		p.Receive(r, nil)
	}
}

// TestTauCliqueProducesTauPlusOneDominators: on a clique, each iteration
// elects exactly one winner, so τ+1 iterations produce τ+1 dominators.
func TestTauCliqueProducesTauPlusOneDominators(t *testing.T) {
	for _, tau := range []int{0, 1, 2} {
		net, err := gen.Clique(10)
		if err != nil {
			t.Fatal(err)
		}
		asg := dualgraph.IdentityAssignment(net.N())
		det := detector.Complete(net, asg)
		procs := tauProcs(t, net, asg, det, tau, uint64(tau+5))
		r, err := sim.NewRunner(sim.Config{Net: net, Processes: procs, MessageBits: 1 << 16})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
		dominators := 0
		for _, p := range procs {
			if p.(*TauCCDSProcess).Dominator() {
				dominators++
			}
		}
		if dominators != tau+1 {
			t.Errorf("tau=%d: %d dominators on clique, want %d", tau, dominators, tau+1)
		}
	}
}

// TestTauOutputsAllDecided: at schedule end, every process has output 0/1
// and dominators output 1.
func TestTauOutputsAllDecided(t *testing.T) {
	net, err := gen.Line(10)
	if err != nil {
		t.Fatal(err)
	}
	asg := dualgraph.IdentityAssignment(net.N())
	det := detector.Complete(net, asg)
	procs := tauProcs(t, net, asg, det, 1, 9)
	r, err := sim.NewRunner(sim.Config{Net: net, Processes: procs, MessageBits: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	for v, p := range procs {
		tp := p.(*TauCCDSProcess)
		if p.Output() == sim.Undecided {
			t.Errorf("node %d undecided", v)
		}
		if tp.Dominator() && p.Output() != 1 {
			t.Errorf("dominator %d output %d", v, p.Output())
		}
	}
}
