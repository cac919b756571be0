package sim_test

import (
	"errors"
	"testing"

	"dualradio/internal/adversary"
	"dualradio/internal/dualgraph"
	"dualradio/internal/geom"
	"dualradio/internal/graph"
	"dualradio/internal/sim"
)

// testMsg is a minimal message.
type testMsg struct {
	from int
	bits int
}

func (m testMsg) From() int    { return m.from }
func (m testMsg) BitSize() int { return m.bits }

// scriptProc broadcasts according to a per-round script and records every
// Receive call. It is done after limit Broadcast calls: under the reception
// contract a process is not called back on ⊥ rounds, so Receive calls cannot
// count rounds.
type scriptProc struct {
	id     int
	script map[int]sim.Message // round -> message
	recv   map[int]sim.Message // round -> received (a nil call is recorded too)
	rounds int
	limit  int
}

var _ sim.Process = (*scriptProc)(nil)

func newScriptProc(id, limit int) *scriptProc {
	return &scriptProc{
		id:     id,
		script: map[int]sim.Message{},
		recv:   map[int]sim.Message{},
		limit:  limit,
	}
}

func (p *scriptProc) Broadcast(round int) (sim.Message, int) {
	p.rounds++
	return p.script[round], round + 1
}
func (p *scriptProc) Receive(round int, msg sim.Message) {
	p.recv[round] = msg
}

// assertNoReceive fails when the engine called Receive on p in round.
func assertNoReceive(t *testing.T, p *scriptProc, round int, why string) {
	t.Helper()
	if m, ok := p.recv[round]; ok {
		t.Errorf("process %d: Receive(%d, %v) called on %s", p.id, round, m, why)
	}
}
func (p *scriptProc) Output() int { return 0 }
func (p *scriptProc) Done() bool  { return p.rounds >= p.limit }

// lineNet builds a 4-node unit line: G = consecutive, G' adds skip-one gray
// edges.
func lineNet(t *testing.T) *dualgraph.Network {
	t.Helper()
	n := 4
	g := graph.NewBuilder(n)
	gp := graph.NewBuilder(n)
	coords := make([]geom.Point, n)
	for i := 0; i < n; i++ {
		coords[i] = geom.Point{X: float64(i)}
	}
	add := func(gr *graph.Builder, u, v int) {
		t.Helper()
		if err := gr.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i+1 < n; i++ {
		add(g, i, i+1)
		add(gp, i, i+1)
	}
	for i := 0; i+2 < n; i++ {
		add(gp, i, i+2)
	}
	return dualgraph.New(g.Build(), gp.Build(), coords, 2)
}

func runScripted(t *testing.T, net *dualgraph.Network, procs []*scriptProc,
	adv adversary.Adversary, bits int) (*sim.Runner, sim.Stats) {
	t.Helper()
	ps := make([]sim.Process, len(procs))
	for i, p := range procs {
		ps[i] = p
	}
	r, err := sim.NewRunner(sim.Config{
		Net:         net,
		Adversary:   adv,
		Processes:   ps,
		MessageBits: bits,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.Run()
	if err != nil && !errors.Is(err, sim.ErrMessageTooLarge) {
		t.Fatal(err)
	}
	return r, st
}

// TestSoloDelivery: a single broadcaster reaches exactly its G neighbors,
// and neither the broadcaster (its own echo) nor the unreached node (⊥) is
// called back.
func TestSoloDelivery(t *testing.T) {
	net := lineNet(t)
	procs := make([]*scriptProc, 4)
	for v := range procs {
		procs[v] = newScriptProc(v+1, 1)
	}
	msg := testMsg{from: 2, bits: 8}
	procs[1].script[0] = msg
	_, st := runScripted(t, net, procs, nil, 0)
	if procs[0].recv[0] != msg || procs[2].recv[0] != msg {
		t.Error("G neighbors of node 1 should receive")
	}
	// Node 3 is not a G neighbor and gray edges are inactive.
	assertNoReceive(t, procs[3], 0, "a ⊥ round")
	assertNoReceive(t, procs[1], 0, "its own broadcast round")
	if st.Deliveries != 2 || st.Broadcasts != 1 || st.Collisions != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestCollision: two broadcasters reaching the same node produce ⊥.
func TestCollision(t *testing.T) {
	net := lineNet(t)
	procs := make([]*scriptProc, 4)
	for v := range procs {
		procs[v] = newScriptProc(v+1, 1)
	}
	procs[0].script[0] = testMsg{from: 1, bits: 8}
	procs[2].script[0] = testMsg{from: 3, bits: 8}
	_, st := runScripted(t, net, procs, nil, 0)
	// Node 1 hears both broadcasters: a collision, so ⊥.
	assertNoReceive(t, procs[1], 0, "a collision round")
	// Node 3 hears only node 2 -> delivery.
	if procs[3].recv[0] == nil || procs[3].recv[0].From() != 3 {
		t.Error("node 3 should receive from node 2 (id 3)")
	}
	if st.Collisions != 1 {
		t.Errorf("collisions = %d", st.Collisions)
	}
}

// TestBroadcasterDeaf: a broadcaster hears nothing, not even a neighbor
// that broadcasts alone to it, and is not called back with its own echo.
func TestBroadcasterDeaf(t *testing.T) {
	net := lineNet(t)
	procs := make([]*scriptProc, 4)
	for v := range procs {
		procs[v] = newScriptProc(v+1, 1)
	}
	m0 := testMsg{from: 1, bits: 8}
	m1 := testMsg{from: 2, bits: 8}
	procs[0].script[0] = m0
	procs[1].script[0] = m1
	runScripted(t, net, procs, nil, 0)
	// Nodes 0 and 1 reach each other uniquely over G: only deafness keeps
	// them from receiving.
	assertNoReceive(t, procs[0], 0, "its own broadcast round")
	assertNoReceive(t, procs[1], 0, "its own broadcast round")
	if procs[2].recv[0] != m1 {
		t.Error("node 2 hears only node 1 and should receive")
	}
	// Node 3's one G neighbor, node 2, is silent.
	assertNoReceive(t, procs[3], 0, "a ⊥ round")
}

// TestGrayActivation: with the Full adversary a gray edge delivers (or
// collides).
func TestGrayActivation(t *testing.T) {
	net := lineNet(t)
	procs := make([]*scriptProc, 4)
	for v := range procs {
		procs[v] = newScriptProc(v+1, 1)
	}
	msg := testMsg{from: 2, bits: 8}
	procs[1].script[0] = msg
	_, st := runScripted(t, net, procs, adversary.NewFull(net), 0)
	// Gray edge (1,3) now delivers node 1's broadcast to node 3.
	if procs[3].recv[0] != msg {
		t.Error("gray edge should deliver under Full adversary")
	}
	if st.GrayActivations == 0 {
		t.Error("gray activations not counted")
	}
}

// TestGrayCausesCollision: the adversary can turn a G delivery into ⊥.
func TestGrayCausesCollision(t *testing.T) {
	net := lineNet(t)
	procs := make([]*scriptProc, 4)
	for v := range procs {
		procs[v] = newScriptProc(v+1, 1)
	}
	procs[1].script[0] = testMsg{from: 2, bits: 8} // node 1 -> reaches node 0 reliably
	procs[2].script[0] = testMsg{from: 3, bits: 8} // node 2: gray edge (0,2)
	_, _ = runScripted(t, net, procs, adversary.NewFull(net), 0)
	// Gray edge (0,2) is active: node 0 must hear a collision.
	assertNoReceive(t, procs[0], 0, "a collision round")
}

// TestMessageSizeEnforced: exceeding b aborts with ErrMessageTooLarge.
func TestMessageSizeEnforced(t *testing.T) {
	net := lineNet(t)
	procs := make([]*scriptProc, 4)
	for v := range procs {
		procs[v] = newScriptProc(v+1, 2)
	}
	procs[0].script[0] = testMsg{from: 1, bits: 100}
	r, _ := runScripted(t, net, procs, nil, 64)
	if !errors.Is(r.Err(), sim.ErrMessageTooLarge) {
		t.Errorf("want ErrMessageTooLarge, got %v", r.Err())
	}
	var se *sim.SizeError
	if !errors.As(r.Err(), &se) || se.Bits != 100 || se.Bound != 64 {
		t.Errorf("size error detail = %+v", se)
	}
}

// TestMaxRoundsCap: executions stop at the round cap.
// retireProc has no fixed length: a sender broadcasts in round 1 and is
// done from inside that Broadcast; a listener sleeps indefinitely from
// round 0 and is done from inside its first Receive. Any call after done
// is counted.
type retireProc struct {
	id, sender int
	done       bool
	late       int
}

func (p *retireProc) Broadcast(round int) (sim.Message, int) {
	if p.done {
		p.late++
	}
	switch {
	case p.sender == 0:
		return nil, 1 << 30
	case round == 1:
		p.done = true
		return testMsg{from: p.id, bits: 8}, round + 1
	}
	return nil, round + 1
}
func (p *retireProc) Receive(int, sim.Message) {
	if p.done {
		p.late++
	}
	p.done = true
}
func (p *retireProc) Output() int { return 0 }
func (p *retireProc) Done() bool  { return p.done }

// TestRetireWhereDoneFlips checks that the engine retires a process in the
// round its Done flips, whether the flip happens inside Broadcast or inside
// Receive while the process sleeps, and never drives it afterwards: on the
// line 0-1-2-3 the ends broadcast once, in round 1, and the sleeping
// middles each hear one of them, so every process is done after round 1.
func TestRetireWhereDoneFlips(t *testing.T) {
	procs := []*retireProc{{id: 1, sender: 1}, {id: 2}, {id: 3}, {id: 4, sender: 1}}
	ps := make([]sim.Process, len(procs))
	for i, p := range procs {
		ps[i] = p
	}
	r, err := sim.NewRunner(sim.Config{Net: lineNet(t), Processes: ps, MaxRounds: 50})
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !st.AllDone || st.Rounds != 2 || st.Deliveries != 2 {
		t.Fatalf("stats %+v, want AllDone after 2 rounds with 2 deliveries", st)
	}
	for _, p := range procs {
		if !p.done || p.late != 0 {
			t.Errorf("process %d: done %v, %d calls after done", p.id, p.done, p.late)
		}
	}
}

func TestMaxRoundsCap(t *testing.T) {
	net := lineNet(t)
	procs := make([]sim.Process, 4)
	for v := range procs {
		procs[v] = newScriptProc(v+1, 1<<30) // never done
	}
	r, err := sim.NewRunner(sim.Config{Net: net, Processes: procs, MaxRounds: 7})
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 7 || st.AllDone {
		t.Errorf("stats = %+v", st)
	}
}

// TestRunUntil stops when the condition fires.
func TestRunUntil(t *testing.T) {
	net := lineNet(t)
	procs := make([]sim.Process, 4)
	for v := range procs {
		procs[v] = newScriptProc(v+1, 1<<30)
	}
	r, err := sim.NewRunner(sim.Config{Net: net, Processes: procs, MaxRounds: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunUntil(func() bool { return r.Round() >= 3 }); err != nil {
		t.Fatal(err)
	}
	if r.Round() != 3 {
		t.Errorf("stopped at round %d", r.Round())
	}
}

// TestConfigValidation rejects broken configurations.
func TestConfigValidation(t *testing.T) {
	net := lineNet(t)
	if _, err := sim.NewRunner(sim.Config{Net: nil}); err == nil {
		t.Error("nil network accepted")
	}
	if _, err := sim.NewRunner(sim.Config{Net: net, Processes: make([]sim.Process, 2)}); err == nil {
		t.Error("process count mismatch accepted")
	}
	// Node indices must fit the wake calendar's 20-bit key field.
	empty := graph.NewBuilder(1<<20 + 1).Build()
	if _, err := sim.NewRunner(sim.Config{Net: dualgraph.New(empty, empty, nil, 2)}); err == nil {
		t.Error("network above 2^20 nodes accepted")
	}
}
