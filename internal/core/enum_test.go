package core

import (
	"math/rand/v2"
	"testing"

	"dualradio/internal/detector"
	"dualradio/internal/sim"
)

func newTestEnum(t *testing.T, id int, det *detector.Set, joined *bool) *enumConnect {
	t.Helper()
	e, err := newEnumConnect(id, 16, 1<<12, 6, det, DefaultParams(),
		rand.New(rand.NewPCG(1, uint64(id))), false, func() { *joined = true })
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEnumScheduleStaggering(t *testing.T) {
	s, err := newEnumSchedule(64, 10, 1<<12, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if s.p0Len != enumStagger*s.chunks0*s.bb {
		t.Error("phase 0 not staggered")
	}
	if s.pALen != 10*s.bb {
		t.Error("phase A should have one slot per detector rank")
	}
	if s.total != s.p0Len+s.pALen+s.pBLen+s.pCLen+s.pDLen {
		t.Error("total inconsistent")
	}
}

func TestEnumScheduleRejectsTinyB(t *testing.T) {
	if _, err := newEnumSchedule(64, 10, 8, DefaultParams()); err == nil {
		t.Error("tiny b accepted")
	}
}

// TestEnumDominatorAdjacency: a dominator receiving another dominator's
// phase-0 chunk records a direct path.
func TestEnumDominatorAdjacency(t *testing.T) {
	var joined bool
	e := newTestEnum(t, 1, detector.SetOf(16, 2, 3), &joined)
	e.start(true, nil)
	e.Receive(0, newBannedChunk(16, 2, 0, []int{1, 3}, nil))
	paths := e.Paths()
	if len(paths) != 1 || paths[0].Dom != 2 || hops(paths[0]) != 1 {
		t.Errorf("paths = %+v", paths)
	}
}

// TestEnumCoveredLearnsRanksAndAnnounces: a covered process pieces together
// its master's detector list from chunks and announces in its rank slot of
// phase A.
func TestEnumCoveredLearnsRanksAndAnnounces(t *testing.T) {
	var joined bool
	// Process 3; master is process 9 whose detector list is {2,3,5}.
	e := newTestEnum(t, 3, detector.SetOf(16, 9, 2), &joined)
	e.start(false, []int{9})
	e.Receive(0, newBannedChunk(16, 9, 0, []int{2, 3, 5}, nil))
	if !e.hasRank(1) {
		t.Error("process 3 should hold rank 1 in {2,3,5}")
	}
	if e.hasRank(0) || e.hasRank(2) {
		t.Error("spurious ranks")
	}
	// In phase A slot 1 it eventually broadcasts an annA with its masters.
	bA, _, _, _ := e.boundaries()
	slotStart := bA + 1*e.sched.bb
	var msg sim.Message
	for r := slotStart; r < slotStart+e.sched.bb && msg == nil; r++ {
		msg = e.broadcastRound(r)
	}
	ann, ok := msg.(*annAMsg)
	if !ok {
		t.Fatalf("no phase-A announcement in rank slot (got %T)", msg)
	}
	if len(ann.Masters) != 1 || ann.Masters[0] != 9 {
		t.Errorf("announced masters = %v", ann.Masters)
	}
}

// TestEnumThreeHopPathAssembly: dominator u learns a 3-hop path from a
// phase-B summary and tells the first-hop relay, which joins and forwards.
func TestEnumThreeHopPathAssembly(t *testing.T) {
	var uJoined, vJoined bool
	// Dominator u = 1 with neighbor v = 4; v reports dominator 9 through
	// witness 6.
	u := newTestEnum(t, 1, detector.SetOf(16, 4), &uJoined)
	u.start(true, nil)
	u.Receive(100, newAnnB(16, 4, []domWitness{{Dom: 9, Witness: 6}}, nil))
	paths := u.Paths()
	if len(paths) != 1 || paths[0].Dom != 9 || paths[0].V != 4 || paths[0].W != 6 {
		t.Fatalf("paths = %+v", paths)
	}
	u.freezeSelection()
	msg := u.buildSelPaths(0)
	sel, ok := msg.(*selPathsMsg)
	if !ok {
		t.Fatalf("selection message type %T", msg)
	}
	// Relay v = 4 receives the selection: joins and queues w = 6.
	v := newTestEnum(t, 4, detector.SetOf(16, 1, 6), &vJoined)
	v.start(false, []int{})
	v.Receive(200, sel)
	if !vJoined {
		t.Error("first-hop relay did not join")
	}
	if len(v.forward) != 1 || v.forward[0] != 6 {
		t.Errorf("forward list = %v", v.forward)
	}
	// And the second-hop relay joins on the forwarded selection.
	var wJoined bool
	w := newTestEnum(t, 6, detector.SetOf(16, 4, 9), &wJoined)
	w.start(false, []int{9})
	w.Receive(300, newRelaySel(16, 4, []int{6}, nil))
	if !wJoined {
		t.Error("second-hop relay did not join")
	}
}

// TestEnumShorterPathWins: recordPath prefers fewer hops.
func TestEnumShorterPathWins(t *testing.T) {
	var joined bool
	e := newTestEnum(t, 1, detector.SetOf(16, 4, 5), &joined)
	e.start(true, nil)
	e.recordPath(9, 4, 6) // 3 hops
	e.recordPath(9, 5, 0) // 2 hops
	if p := e.paths[9]; p.V != 5 || p.W != 0 {
		t.Errorf("kept %+v, want the 2-hop path", p)
	}
	e.recordPath(9, 4, 7) // another 3-hop: ignored
	if p := e.paths[9]; p.V != 5 {
		t.Error("longer path overwrote shorter")
	}
}

// TestEnumMutualFilterRejects: in mutual mode, messages whose label lacks
// the receiver are discarded.
func TestEnumMutualFilterRejects(t *testing.T) {
	var joined bool
	e, err := newEnumConnect(3, 16, 1<<12, 6, detector.SetOf(16, 9), DefaultParams(),
		rand.New(rand.NewPCG(2, 2)), true, func() { joined = true })
	if err != nil {
		t.Fatal(err)
	}
	e.start(false, []int{9})
	// Label excludes id 3: dropped.
	e.Receive(0, newBannedChunk(16, 9, 0, []int{2, 3}, detector.SetOf(16, 2)))
	if len(e.domList[9]) != 0 {
		t.Error("non-mutual chunk accepted")
	}
	// Mutual: kept.
	e.Receive(1, newBannedChunk(16, 9, 0, []int{2, 3}, detector.SetOf(16, 2, 3)))
	if len(e.domList[9]) != 2 {
		t.Error("mutual chunk rejected")
	}
	_ = joined
}
