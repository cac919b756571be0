package core

import (
	"math/rand/v2"
	"slices"
	"testing"

	"dualradio/internal/detector"
	"dualradio/internal/dualgraph"
	"dualradio/internal/gen"
	"dualradio/internal/sim"
)

func ccdsProc(t *testing.T, cfg CCDSConfig) *CCDSProcess {
	t.Helper()
	p, err := NewCCDSProcess(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCCDSConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	base := CCDSConfig{
		ID: 1, N: 8, Delta: 3, B: 512,
		Detector: detector.NewSet(8),
		Params:   DefaultParams(),
		Rng:      rng,
	}
	bad := base
	bad.Delta = 0
	if _, err := NewCCDSProcess(bad); err == nil {
		t.Error("zero delta accepted")
	}
	bad = base
	bad.B = 4
	if _, err := NewCCDSProcess(bad); err == nil {
		t.Error("tiny b accepted")
	}
}

// TestCCDSRunsFixedSchedule: a full run terminates exactly at the schedule
// length with every output decided.
func TestCCDSRunsFixedSchedule(t *testing.T) {
	net, err := gen.Line(10)
	if err != nil {
		t.Fatal(err)
	}
	asg := dualgraph.IdentityAssignment(net.N())
	det := detector.Complete(net, asg)
	procs := make([]sim.Process, net.N())
	var total int
	for v := 0; v < net.N(); v++ {
		p := ccdsProc(t, CCDSConfig{
			ID: asg.ID(v), N: net.N(), Delta: net.Delta(), B: 512,
			Detector: det.Set(v), Params: DefaultParams(),
			Rng: rand.New(rand.NewPCG(3, uint64(v))),
		})
		procs[v] = p
		total = p.Rounds()
	}
	r, err := sim.NewRunner(sim.Config{Net: net, Processes: procs, MessageBits: 512})
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != total+1 && st.Rounds != total {
		t.Errorf("ran %d rounds, schedule is %d", st.Rounds, total)
	}
	for v, p := range procs {
		if p.Output() == sim.Undecided {
			t.Errorf("node %d undecided at schedule end", v)
		}
	}
}

// TestCCDSPathConnectsMISOnLine: on a path the MIS members are ≥2 hops
// apart; the search epochs must add relays so the CCDS is connected, and
// every relay lies between two MIS members.
func TestCCDSPathConnectsMISOnLine(t *testing.T) {
	net, err := gen.Line(16)
	if err != nil {
		t.Fatal(err)
	}
	asg := dualgraph.IdentityAssignment(net.N())
	det := detector.Complete(net, asg)
	procs := make([]sim.Process, net.N())
	for v := 0; v < net.N(); v++ {
		procs[v] = ccdsProc(t, CCDSConfig{
			ID: asg.ID(v), N: net.N(), Delta: net.Delta(), B: 512,
			Detector: det.Set(v), Params: DefaultParams(),
			Rng: rand.New(rand.NewPCG(9, uint64(v))),
		})
	}
	r, err := sim.NewRunner(sim.Config{Net: net, Processes: procs, MessageBits: 512})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	member := make([]bool, net.N())
	for v, p := range procs {
		member[v] = p.Output() == 1
	}
	if !net.G().ConnectedSubset(member) {
		t.Error("CCDS disconnected on the line")
	}
	for v, p := range procs {
		if p.Output() == 0 {
			dominated := false
			for _, w := range net.G().Neighbors(v) {
				if member[w] {
					dominated = true
				}
			}
			if !dominated {
				t.Errorf("node %d undominated", v)
			}
		}
	}
}

// TestCCDSMessageBudgetRespected: a full execution with the runner's size
// enforcement active never violates the b bound.
func TestCCDSMessageBudgetRespected(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 1))
	net, err := gen.RandomGeometric(gen.GeometricConfig{N: 64}, rng)
	if err != nil {
		t.Fatal(err)
	}
	asg := dualgraph.RandomAssignment(net.N(), rng)
	det := detector.Complete(net, asg)
	const b = 160 // small: forces multi-chunk banned lists
	procs := make([]sim.Process, net.N())
	for v := 0; v < net.N(); v++ {
		procs[v] = ccdsProc(t, CCDSConfig{
			ID: asg.ID(v), N: net.N(), Delta: net.Delta(), B: b,
			Detector: det.Set(v), Params: DefaultParams(),
			Rng: rand.New(rand.NewPCG(11, uint64(v+1))),
		})
	}
	r, err := sim.NewRunner(sim.Config{Net: net, Processes: procs, MessageBits: b})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatalf("message budget violated: %v", err)
	}
}

// TestCCDSDiscoveriesWithinThreeHops: every MIS id discovered through
// exploration belongs to an MIS process within 3 hops in G (the Section 5
// invariant behind Claim 1).
func TestCCDSDiscoveriesWithinThreeHops(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 1))
	net, err := gen.RandomGeometric(gen.GeometricConfig{N: 80}, rng)
	if err != nil {
		t.Fatal(err)
	}
	asg := dualgraph.RandomAssignment(net.N(), rng)
	det := detector.Complete(net, asg)
	procs := make([]sim.Process, net.N())
	for v := 0; v < net.N(); v++ {
		procs[v] = ccdsProc(t, CCDSConfig{
			ID: asg.ID(v), N: net.N(), Delta: net.Delta(), B: 512,
			Detector: det.Set(v), Params: DefaultParams(),
			Rng: rand.New(rand.NewPCG(21, uint64(v+1))),
		})
	}
	r, err := sim.NewRunner(sim.Config{Net: net, Processes: procs, MessageBits: 512})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	for v, p := range procs {
		cp := p.(*CCDSProcess)
		if !cp.InMIS() {
			continue
		}
		for _, id := range cp.Discovered() {
			w := asg.Node(id)
			if d := net.G().HopDistance(v, w); d < 0 || d > 3 {
				t.Errorf("MIS node %d discovered %d at hop distance %d", v, w, d)
			}
			if !procs[w].(*CCDSProcess).InMIS() {
				t.Errorf("discovered id %d is not an MIS process", id)
			}
		}
	}
}

// TestCCDSResponseTracksMasters checks the covered process's cached
// exploration answer: it is its lowest-id master x with the primary replica
// P_x, rebuilt when a banned chunk grows P_x in epoch 0 or adopts a new
// lower-id master later, and the detector id list it shares stays intact.
func TestCCDSResponseTracksMasters(t *testing.T) {
	const n = 16
	det := detector.SetOf(n, 3, 5, 9)
	p := ccdsProc(t, CCDSConfig{ID: 7, N: n, Delta: 4, B: 512, Detector: det,
		Params: DefaultParams(), Rng: rand.New(rand.NewPCG(1, 2))})
	p.mis.misSet.Add(9) // the MIS outcome: covered, with master 9
	p.initSearch()
	epoch0 := p.sched.mis.total
	epoch1 := epoch0 + p.sched.epochLen
	check := func(step string, wantMIS int, wantIDs []int) {
		t.Helper()
		mis, chunks, ok := p.responseChunks()
		var got []int
		for _, c := range chunks {
			got = append(got, c...)
		}
		if !ok || mis != wantMIS || !slices.Equal(got, wantIDs) {
			t.Fatalf("%s: response (%d, %v, %v), want (%d, %v)", step, mis, got, ok, wantMIS, wantIDs)
		}
	}
	p.onBannedChunk(epoch0, newBannedChunk(n, 9, 0, []int{1, 2, 9}, nil))
	check("first chunk", 9, []int{1, 2, 9})
	p.onBannedChunk(epoch0+1, newBannedChunk(n, 9, 1, []int{4}, nil))
	check("P_x grew in epoch 0", 9, []int{1, 2, 4, 9})
	p.onBannedChunk(epoch1, newBannedChunk(n, 3, 0, []int{3, 6}, nil))
	check("lower-id master adopted", 3, []int{3})
	if id, ok := p.nominationFor(9); !ok || id != 3 {
		t.Fatalf("nominationFor(9) = (%d, %v), want (3, true)", id, ok)
	}
	if got := p.detectorIDs(); !slices.Equal(got, []int{3, 5, 9}) {
		t.Fatalf("detector ids %v, want [3 5 9]", got)
	}
}
