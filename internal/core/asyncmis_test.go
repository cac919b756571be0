package core

import (
	"math/rand/v2"
	"testing"

	"dualradio/internal/detector"
	"dualradio/internal/dualgraph"
	"dualradio/internal/gen"
	"dualradio/internal/sim"
)

func asyncProc(t *testing.T, id, n, wake int, det *detector.Set, filter FilterMode, seed uint64) *AsyncMISProcess {
	t.Helper()
	p, err := NewAsyncMISProcess(MISConfig{
		ID:       id,
		N:        n,
		Detector: det,
		Filter:   filter,
		Params:   DefaultParams(),
		Rng:      rand.New(rand.NewPCG(seed, uint64(id))),
	}, wake)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestAsyncSilentBeforeWake: a process neither broadcasts nor reacts before
// its wake round.
func TestAsyncSilentBeforeWake(t *testing.T) {
	p := asyncProc(t, 1, 8, 10, nil, FilterNone, 1)
	for r := 0; r < 10; r++ {
		if m, _ := p.Broadcast(r); m != nil {
			t.Fatalf("broadcast before wake at round %d", r)
		}
		p.Receive(r, newAnnounce(8, 2, nil))
	}
	if p.Output() != sim.Undecided || p.EpochsStarted() != 0 {
		t.Error("state changed while asleep")
	}
}

// TestAsyncListeningPhaseSilent: after waking, the listening phase sends
// nothing.
func TestAsyncListeningPhaseSilent(t *testing.T) {
	p := asyncProc(t, 1, 8, 0, nil, FilterNone, 2)
	listen := p.listenLen
	for r := 0; r < listen; r++ {
		if m, _ := p.Broadcast(r); m != nil {
			t.Fatalf("broadcast during listening phase at round %d", r)
		}
		p.Receive(r, nil)
	}
}

// TestAsyncKnockbackRestartsEpoch: a contender received mid-competition
// knocks the process back to a fresh listening phase.
func TestAsyncKnockbackRestartsEpoch(t *testing.T) {
	det := detector.SetOf(8, 2)
	p := asyncProc(t, 1, 8, 0, det, FilterDetector, 3)
	// Advance past the listening phase.
	r := 0
	for ; r < p.listenLen+2; r++ {
		p.Broadcast(r)
		p.Receive(r, nil)
	}
	if p.EpochsStarted() != 1 {
		t.Fatalf("epochs = %d", p.EpochsStarted())
	}
	p.Broadcast(r)
	p.Receive(r, newContender(8, 2, nil))
	r++
	if p.EpochsStarted() != 2 {
		t.Fatalf("knockback did not restart epoch: epochs = %d", p.EpochsStarted())
	}
	// The fresh epoch begins with a silent listening phase.
	for i := 0; i < p.listenLen; i++ {
		if m, _ := p.Broadcast(r + i); m != nil {
			t.Fatalf("broadcast during post-knockback listening at %d", i)
		}
		p.Receive(r+i, nil)
	}
}

// TestAsyncAnnounceDecidesZero: receiving a kept announce fixes output 0 and
// finishes the process.
func TestAsyncAnnounceDecidesZero(t *testing.T) {
	det := detector.SetOf(8, 2)
	p := asyncProc(t, 1, 8, 0, det, FilterDetector, 4)
	p.Broadcast(0)
	p.Receive(0, newAnnounce(8, 2, nil))
	if p.Output() != 0 || !p.Done() {
		t.Errorf("output=%d done=%v", p.Output(), p.Done())
	}
	if p.DecisionLatency() != 0 {
		t.Errorf("latency = %d", p.DecisionLatency())
	}
}

// TestAsyncLoneProcessJoins: an isolated process joins after one epoch and
// keeps announcing.
func TestAsyncLoneProcessJoins(t *testing.T) {
	p := asyncProc(t, 1, 8, 0, nil, FilterNone, 5)
	total := p.epochLen + 10
	announced := false
	for r := 0; r < total; r++ {
		if msg, _ := p.Broadcast(r); msg != nil {
			if _, ok := msg.(*announceMsg); ok && p.InMIS() {
				announced = true
			}
		}
		p.Receive(r, nil)
	}
	if !p.InMIS() {
		t.Fatal("lone process did not join")
	}
	if !announced {
		t.Error("member never announced")
	}
	if p.DecisionLatency() < 0 || p.DecisionLatency() > p.epochLen {
		t.Errorf("latency = %d outside one epoch", p.DecisionLatency())
	}
}

// TestAsyncStaggeredLineSolves: end-to-end over the engine with highly
// staggered wake-ups on a path in the classic model.
func TestAsyncStaggeredLineSolves(t *testing.T) {
	net, err := gen.Line(12)
	if err != nil {
		t.Fatal(err)
	}
	asg := dualgraph.IdentityAssignment(net.N())
	procs := make([]sim.Process, net.N())
	for v := 0; v < net.N(); v++ {
		procs[v] = asyncProc(t, asg.ID(v), net.N(), v*50, nil, FilterNone, 6)
	}
	r, err := sim.NewRunner(sim.Config{Net: net, Processes: procs, MaxRounds: 1 << 17})
	if err != nil {
		t.Fatal(err)
	}
	allDecided := func() bool {
		for _, p := range procs {
			if p.Output() == sim.Undecided {
				return false
			}
		}
		return true
	}
	if _, err := r.RunUntil(allDecided); err != nil {
		t.Fatal(err)
	}
	if !allDecided() {
		t.Fatal("not all processes decided within the round cap")
	}
	for v := 0; v+1 < net.N(); v++ {
		if procs[v].Output() == 1 && procs[v+1].Output() == 1 {
			t.Errorf("adjacent nodes %d,%d both joined", v, v+1)
		}
	}
	for v, p := range procs {
		if p.Output() == 0 {
			covered := false
			ap := p.(*AsyncMISProcess)
			for _, w := range net.G().Neighbors(v) {
				if procs[w].Output() == 1 && ap.MISSet().Contains(asg.ID(int(w))) {
					covered = true
				}
			}
			if !covered {
				t.Errorf("node %d output 0 without a known MIS neighbor", v)
			}
		}
	}
}
