package core

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"dualradio/internal/detector"
)

// TestMessageSizesAccountIDs: every id carried by a message costs idBits(n),
// so larger payloads always report larger sizes and the header overhead
// bound in the schedule calculations is honored.
func TestMessageSizesAccountIDs(t *testing.T) {
	n := 1000
	base := newContender(n, 1, nil).BitSize()
	if base <= 0 {
		t.Fatal("non-positive message size")
	}
	small := newBannedChunk(n, 1, 0, []int{1, 2}, nil)
	large := newBannedChunk(n, 1, 0, []int{1, 2, 3, 4, 5, 6}, nil)
	if large.BitSize()-small.BitSize() != 4*idBits(n) {
		t.Errorf("4 extra ids should cost 4·idBits: %d vs %d", small.BitSize(), large.BitSize())
	}
}

// TestDetectorLabelCostsBits: labeling a message with the sender's detector
// set (Section 6) must charge for every id in the set.
func TestDetectorLabelCostsBits(t *testing.T) {
	n := 256
	unlabeled := newAnnounce(n, 1, nil).BitSize()
	label := detector.SetOf(n, 2, 3, 4, 5)
	labeled := newAnnounce(n, 1, label).BitSize()
	wantExtra := countBits + 4*idBits(n)
	if labeled-unlabeled != wantExtra {
		t.Errorf("label cost = %d bits, want %d", labeled-unlabeled, wantExtra)
	}
}

// TestMISMessageBitsMatchesMessages: MessageBits is the size of both
// messages an MIS process sends, labeled or not; unlabeled, it is
// MISMessageBits.
func TestMISMessageBitsMatchesMessages(t *testing.T) {
	n := 64
	for _, label := range []bool{false, true} {
		p, err := NewMISProcess(MISConfig{ID: 1, N: n, Detector: detector.SetOf(n, 2, 3, 4, 5),
			Filter: FilterMutual, LabelMessages: label, Params: DefaultParams(), Rng: rand.New(rand.NewPCG(1, 1))})
		if err != nil {
			t.Fatal(err)
		}
		bits := p.MessageBits()
		if c, a := p.contender().BitSize(), p.announce().BitSize(); c != bits || a != bits {
			t.Errorf("label=%v: contender %d and announcement %d bits, MessageBits %d", label, c, a, bits)
		}
		if !label && bits != MISMessageBits(n) {
			t.Errorf("unlabeled MessageBits %d, MISMessageBits %d", bits, MISMessageBits(n))
		}
	}
}

// TestMessagesFitScheduleCapacity: a banned chunk built at the schedule's
// capIDs capacity never exceeds b — the invariant the runner enforces.
func TestMessagesFitScheduleCapacity(t *testing.T) {
	f := func(bRaw uint16, nRaw uint16) bool {
		n := 8 + int(nRaw%2000)
		b := messageOverheadBits(n) + idBits(n) + int(bRaw)
		sched, err := newCCDSSchedule(n, 16, b, DefaultParams())
		if err != nil {
			return false
		}
		ids := make([]int, sched.capIDs)
		for i := range ids {
			ids[i] = i + 1
		}
		msg := newBannedChunk(n, 1, 0, ids, nil)
		return msg.BitSize() <= b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMessageFromAndLabel(t *testing.T) {
	n := 64
	label := detector.SetOf(n, 9)
	m := newNominate(n, 7, []nomination{{Dest: 3, Candidate: 5}})
	if m.From() != 7 {
		t.Errorf("From = %d", m.From())
	}
	if m.DetLabel() != nil {
		t.Error("unlabeled message reports a label")
	}
	a := newAnnA(n, 7, []int{1, 2}, label)
	if a.DetLabel() != label {
		t.Error("label lost")
	}
}

// TestRespondEntryBits: respond/relay sizes grow with both entries and ids.
func TestRespondEntryBits(t *testing.T) {
	n := 512
	one := newRespond(n, 1, []respondEntry{{Origin: 2, MISID: 3, Seq: 0, IDs: []int{4, 5}}})
	two := newRespond(n, 1, []respondEntry{
		{Origin: 2, MISID: 3, Seq: 0, IDs: []int{4, 5}},
		{Origin: 6, MISID: 3, Seq: 0, IDs: []int{4, 5}},
	})
	if two.BitSize() <= one.BitSize() {
		t.Error("second entry should cost bits")
	}
	relay := newRelay(n, 1, []respondEntry{{Origin: 2, MISID: 3, Seq: 0, IDs: []int{4, 5}}})
	if relay.BitSize() != one.BitSize() {
		t.Error("relay and respond with identical payloads should cost the same")
	}
}
