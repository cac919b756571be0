package core

import (
	"math/rand/v2"
	"testing"

	"dualradio/internal/detector"
	"dualradio/internal/dualgraph"
	"dualradio/internal/gen"
	"dualradio/internal/sim"
)

func misProc(t *testing.T, id, n int, det *detector.Set, seed uint64, filter FilterMode) *MISProcess {
	t.Helper()
	p, err := NewMISProcess(MISConfig{
		ID:       id,
		N:        n,
		Detector: det,
		Filter:   filter,
		Params:   DefaultParams(),
		Rng:      rand.New(rand.NewPCG(seed, uint64(id))),
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMISConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	base := MISConfig{ID: 1, N: 4, Detector: detector.NewSet(4), Params: DefaultParams(), Rng: rng}

	bad := base
	bad.ID = 0
	if _, err := NewMISProcess(bad); err == nil {
		t.Error("id 0 accepted")
	}
	bad = base
	bad.ID = 5
	if _, err := NewMISProcess(bad); err == nil {
		t.Error("id > n accepted")
	}
	bad = base
	bad.Rng = nil
	if _, err := NewMISProcess(bad); err == nil {
		t.Error("nil rng accepted")
	}
	bad = base
	bad.Detector = nil
	bad.Filter = FilterDetector
	if _, err := NewMISProcess(bad); err == nil {
		t.Error("nil detector with detector filter accepted")
	}
	ok := base
	ok.Detector = nil
	ok.Filter = FilterNone
	if _, err := NewMISProcess(ok); err != nil {
		t.Errorf("FilterNone without detector rejected: %v", err)
	}
}

// TestMISCliqueExactlyOneWinner: on a clique, independence forces exactly
// one MIS member and maximality forces at least one.
func TestMISCliqueExactlyOneWinner(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		net, err := gen.Clique(12)
		if err != nil {
			t.Fatal(err)
		}
		asg := dualgraph.IdentityAssignment(net.N())
		det := detector.Complete(net, asg)
		procs := make([]sim.Process, net.N())
		for v := 0; v < net.N(); v++ {
			procs[v] = misProc(t, asg.ID(v), net.N(), det.Set(v), seed, FilterDetector)
		}
		r, err := sim.NewRunner(sim.Config{Net: net, Processes: procs})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
		winners := 0
		for _, p := range procs {
			if p.(*MISProcess).InMIS() {
				winners++
			}
		}
		if winners != 1 {
			t.Errorf("seed %d: clique MIS has %d winners, want 1", seed, winners)
		}
	}
}

// TestMISLineIndependence: on a path, MIS members are never adjacent and
// every node is decided.
func TestMISLineIndependence(t *testing.T) {
	net, err := gen.Line(20)
	if err != nil {
		t.Fatal(err)
	}
	asg := dualgraph.IdentityAssignment(net.N())
	det := detector.Complete(net, asg)
	procs := make([]sim.Process, net.N())
	for v := 0; v < net.N(); v++ {
		procs[v] = misProc(t, asg.ID(v), net.N(), det.Set(v), 7, FilterDetector)
	}
	r, err := sim.NewRunner(sim.Config{Net: net, Processes: procs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v+1 < net.N(); v++ {
		if procs[v].Output() == 1 && procs[v+1].Output() == 1 {
			t.Errorf("adjacent nodes %d,%d both in MIS", v, v+1)
		}
	}
	for v, p := range procs {
		if p.Output() == sim.Undecided {
			t.Errorf("node %d undecided", v)
		}
	}
}

// TestMISMessageFiltering: contender messages from processes outside the
// detector set must be ignored.
func TestMISMessageFiltering(t *testing.T) {
	det := detector.SetOf(8, 2) // only process 2 is a reliable neighbor
	p := misProc(t, 1, 8, det, 1, FilterDetector)
	// Drive one broadcast so internal epoch state initializes.
	p.Broadcast(0)
	p.Receive(0, newContender(8, 5, nil)) // not in detector: ignored
	if p.Output() != sim.Undecided {
		t.Error("filtered contender changed state")
	}
	p.Receive(0, newAnnounce(8, 5, nil)) // not in detector: ignored
	if p.MISSet().Len() != 0 {
		t.Error("filtered announce recorded")
	}
	p.Receive(1, newAnnounce(8, 2, nil)) // reliable neighbor announce
	if p.Output() != 0 {
		t.Errorf("announce from reliable neighbor should decide 0, got %d", p.Output())
	}
	if !p.MISSet().Contains(2) {
		t.Error("announce sender missing from M_u")
	}
}

// TestMISMutualFilter: with FilterMutual, a message is kept only when the
// label proves the receiver is in the sender's detector set.
func TestMISMutualFilter(t *testing.T) {
	det := detector.SetOf(8, 2)
	p, err := NewMISProcess(MISConfig{
		ID: 1, N: 8, Detector: det, Filter: FilterMutual,
		LabelMessages: true, Params: DefaultParams(),
		Rng: rand.New(rand.NewPCG(1, 1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Broadcast(0)
	// Sender 2 is in L_1 but its label does not include id 1: discard.
	p.Receive(0, newAnnounce(8, 2, detector.SetOf(8, 3)))
	if p.Output() != sim.Undecided {
		t.Error("non-mutual announce accepted")
	}
	// Mutual: kept.
	p.Receive(1, newAnnounce(8, 2, detector.SetOf(8, 1)))
	if p.Output() != 0 {
		t.Error("mutual announce rejected")
	}
}

// TestMISKnockoutSilences: a contender from a reliable neighbor knocks an
// active process out for the epoch (it stops broadcasting).
func TestMISKnockoutSilences(t *testing.T) {
	det := detector.SetOf(4, 2)
	p := misProc(t, 1, 4, det, 3, FilterDetector)
	p.Broadcast(0)
	p.Receive(0, newContender(4, 2, nil))
	// Drain the rest of the epoch: a knocked-out process must stay silent
	// through the end of the current epoch (it may re-activate later).
	s := newMISSchedule(4, DefaultParams())
	for r := 1; r < s.epochLen; r++ {
		if msg, _ := p.Broadcast(r); msg != nil {
			t.Fatalf("knocked-out process broadcast at round %d", r)
		}
		p.Receive(r, nil)
	}
}

// TestMISDoneAfterSchedule: the process reports Done once the fixed schedule
// has elapsed.
func TestMISDoneAfterSchedule(t *testing.T) {
	det := detector.NewSet(4)
	p := misProc(t, 1, 4, det, 4, FilterDetector)
	total := p.Rounds()
	for r := 0; r < total; r++ {
		p.Broadcast(r)
		p.Receive(r, nil)
	}
	if p.Done() {
		t.Error("done before schedule end")
	}
	p.Broadcast(total)
	if !p.Done() {
		t.Error("not done after schedule end")
	}
	// A lone process must have joined the MIS (maximality).
	if !p.InMIS() {
		t.Error("isolated process should join the MIS")
	}
}

// TestMastersExcludesSelf: Masters never includes the process's own id.
func TestMastersExcludesSelf(t *testing.T) {
	det := detector.SetOf(4, 2)
	p := misProc(t, 1, 4, det, 5, FilterDetector)
	p.Broadcast(0)
	p.Receive(0, newAnnounce(4, 2, nil))
	for r := 1; r <= p.Rounds(); r++ {
		p.Broadcast(r)
		p.Receive(r, nil)
	}
	masters := p.Masters()
	if len(masters) != 1 || masters[0] != 2 {
		t.Errorf("masters = %v", masters)
	}
}
