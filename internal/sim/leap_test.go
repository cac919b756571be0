package sim_test

import (
	"testing"

	"dualradio/internal/sim"
)

// calendarProc broadcasts at a fixed set of scripted rounds and sleeps in
// between. It lets the leap tests observe the engine's clock jumps without
// any protocol randomness.
type calendarProc struct {
	id     int
	total  int
	script map[int]sim.Message
	recv   map[int]sim.Message
}

func newCalendarProc(id, total int, rounds ...int) *calendarProc {
	p := &calendarProc{
		id:     id,
		total:  total,
		script: map[int]sim.Message{},
		recv:   map[int]sim.Message{},
	}
	for _, r := range rounds {
		p.script[r] = testMsg{from: id, bits: 8}
	}
	return p
}

// Broadcast returns this round's message and the earliest future scripted
// round (or the schedule end).
func (p *calendarProc) Broadcast(round int) (sim.Message, int) {
	m := p.script[round]
	for r := round + 1; r < p.total; r++ {
		if p.script[r] != nil {
			return m, r
		}
	}
	return m, p.total
}

func (p *calendarProc) Receive(round int, msg sim.Message) {
	if msg != nil {
		p.recv[round] = msg
	}
}
func (p *calendarProc) Output() int { return 0 }
func (p *calendarProc) Done() bool  { return false }
func (p *calendarProc) Rounds() int { return p.total }

var _ sim.Process = (*calendarProc)(nil)

// roundLog records which rounds the engine actually executed.
type roundLog struct{ rounds []int }

func (l *roundLog) OnRound(round int, _ []int, _ []sim.Delivery) {
	l.rounds = append(l.rounds, round)
}

// skipLog is an adversary recording per-round Reach calls and leap Skip
// calls.
type skipLog struct {
	reach []int
	skips [][2]int
}

func (a *skipLog) Reach(round int, _ []bool, _ []int, _, _ []int32) []int {
	a.reach = append(a.reach, round)
	return nil
}
func (a *skipLog) Skip(round, rounds int) { a.skips = append(a.skips, [2]int{round, rounds}) }

// TestLeapJumpsQuietStretch: when every process is parked, the clock jumps
// to the earliest wake. Executed rounds are exactly the scripted ones plus
// their successors (the engine re-drives a broadcaster's next round), while
// Stats.Rounds still counts the whole horizon.
func TestLeapJumpsQuietStretch(t *testing.T) {
	net := lineNet(t)
	const total = 1000
	procs := make([]sim.Process, net.N())
	cps := make([]*calendarProc, net.N())
	for v := range procs {
		// Only node 0 ever broadcasts; simultaneous broadcasters would
		// collide at their common neighbors and deliver nothing.
		if v == 0 {
			cps[v] = newCalendarProc(v+1, total, 100, 600)
		} else {
			cps[v] = newCalendarProc(v+1, total)
		}
		procs[v] = cps[v]
	}
	log := &roundLog{}
	r, err := sim.NewRunner(sim.Config{
		Net: net, Processes: procs, MaxRounds: total, Observer: log, Leap: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != total {
		t.Errorf("Stats.Rounds=%d want %d (skipped rounds must still count)", st.Rounds, total)
	}
	if len(log.rounds) >= total/2 {
		t.Errorf("executed %d rounds of %d; quiet stretches were not skipped", len(log.rounds), total)
	}
	seen := map[int]bool{}
	for _, r := range log.rounds {
		seen[r] = true
	}
	for _, want := range []int{0, 100, 600} {
		if !seen[want] {
			t.Errorf("scripted round %d was never executed (executed %v)", want, log.rounds)
		}
	}
	// Both scripted broadcasts must have been delivered to a G-neighbor.
	for _, want := range []int{100, 600} {
		if cps[1].recv[want] == nil {
			t.Errorf("node 1 missed the round-%d broadcast (recv %v)", want, cps[1].recv)
		}
	}
}

// TestLeapSkipperInvocation: a Skipper adversary sees one Skip call per
// jumped stretch, and Reach calls plus skipped rounds account for every
// round of the horizon. The exact engine must never call Skip.
func TestLeapSkipperInvocation(t *testing.T) {
	for _, leap := range []bool{false, true} {
		net := lineNet(t)
		const total = 500
		procs := make([]sim.Process, net.N())
		for v := range procs {
			procs[v] = newCalendarProc(v+1, total, 50, 300)
		}
		adv := &skipLog{}
		r, err := sim.NewRunner(sim.Config{
			Net: net, Adversary: adv, Processes: procs, MaxRounds: total, Leap: leap,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !leap {
			if len(adv.skips) != 0 {
				t.Fatalf("exact engine called Skip: %v", adv.skips)
			}
			continue
		}
		if len(adv.skips) == 0 {
			t.Fatal("leap engine never called Skip on a quiet-calendar run")
		}
		skipped := 0
		for _, s := range adv.skips {
			if s[1] <= 0 {
				t.Errorf("Skip called with non-positive stretch %v", s)
			}
			skipped += s[1]
		}
		if got := len(adv.reach) + skipped; got != st.Rounds {
			t.Errorf("reach calls (%d) + skipped rounds (%d) = %d, want Stats.Rounds %d",
				len(adv.reach), skipped, got, st.Rounds)
		}
	}
}
