package detector

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"dualradio/internal/dualgraph"
	"dualradio/internal/geom"
	"dualradio/internal/graph"
)

// lineNetwork builds a 5-node unit-spaced line with skip-one gray edges.
func lineNetwork(t *testing.T) *dualgraph.Network {
	t.Helper()
	n := 5
	g := graph.NewBuilder(n)
	gp := graph.NewBuilder(n)
	coords := make([]geom.Point, n)
	for i := 0; i < n; i++ {
		coords[i] = geom.Point{X: float64(i)}
	}
	for i := 0; i+1 < n; i++ {
		addEdge(t, g, i, i+1)
		addEdge(t, gp, i, i+1)
	}
	for i := 0; i+2 < n; i++ {
		addEdge(t, gp, i, i+2)
	}
	return dualgraph.New(g.Build(), gp.Build(), coords, 2)
}

func addEdge(t *testing.T, g *graph.Builder, u, v int) {
	t.Helper()
	if err := g.AddEdge(u, v); err != nil {
		t.Fatal(err)
	}
}

func TestCompleteDetector(t *testing.T) {
	net := lineNetwork(t)
	asg := dualgraph.IdentityAssignment(net.N())
	d := Complete(net, asg)
	if err := d.Verify(net, asg, 0); err != nil {
		t.Fatal(err)
	}
	// Node 2's reliable neighbors are 1 and 3 -> ids 2 and 4.
	got := d.Set(2).IDs()
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Errorf("L_2 = %v", got)
	}
}

func TestTauCompleteWithinBudget(t *testing.T) {
	net := lineNetwork(t)
	asg := dualgraph.IdentityAssignment(net.N())
	for _, tau := range []int{0, 1, 2, 3} {
		rng := rand.New(rand.NewPCG(uint64(tau), 1))
		d := TauComplete(net, asg, tau, PlaceGrayFirst, rng)
		if err := d.Verify(net, asg, tau); err != nil {
			t.Errorf("tau=%d: %v", tau, err)
		}
	}
}

func TestTauCompletePlacementPrefersGray(t *testing.T) {
	net := lineNetwork(t)
	asg := dualgraph.IdentityAssignment(net.N())
	rng := rand.New(rand.NewPCG(1, 1))
	d := TauComplete(net, asg, 1, PlaceGrayFirst, rng)
	// Node 0's gray neighbor is node 2 (distance 2). With exactly one
	// false positive and gray-first placement, it must be id 3.
	mistakes := 0
	for _, id := range d.Set(0).IDs() {
		if !net.G().HasEdge(0, asg.Node(id)) {
			mistakes++
			if asg.Node(id) != 2 {
				t.Errorf("false positive at node %d, want gray neighbor 2", asg.Node(id))
			}
		}
	}
	if mistakes != 1 {
		t.Errorf("mistakes = %d, want 1", mistakes)
	}
}

func TestVerifyDetectsMissingNeighbor(t *testing.T) {
	net := lineNetwork(t)
	asg := dualgraph.IdentityAssignment(net.N())
	d := Complete(net, asg)
	d.Set(0).Remove(2) // drop node 1's id from node 0's set
	if err := d.Verify(net, asg, 0); err == nil {
		t.Error("missing reliable neighbor not detected")
	}
}

func TestVerifyDetectsExcessMistakes(t *testing.T) {
	net := lineNetwork(t)
	asg := dualgraph.IdentityAssignment(net.N())
	d := Complete(net, asg)
	d.Set(0).Add(4) // node 3 is not a reliable neighbor of node 0
	if err := d.Verify(net, asg, 0); err == nil {
		t.Error("excess mistake not detected")
	}
	if err := d.Verify(net, asg, 1); err != nil {
		t.Errorf("one mistake should pass tau=1: %v", err)
	}
}

func TestBuildHEqualsGForZeroComplete(t *testing.T) {
	net := lineNetwork(t)
	asg := dualgraph.IdentityAssignment(net.N())
	h := BuildH(net, asg, Complete(net, asg))
	if h.M() != net.G().M() {
		t.Fatalf("H has %d edges, G has %d", h.M(), net.G().M())
	}
	net.G().Edges(func(u, v int) {
		if !h.HasEdge(u, v) {
			t.Errorf("H missing G edge (%d,%d)", u, v)
		}
	})
}

// naiveH builds H edge by edge from mutual membership, the construction
// BuildH falls back to, as a graph distinct from G.
func naiveH(net *dualgraph.Network, asg *dualgraph.Assignment, d *Detector) *graph.Graph {
	h := graph.NewBuilder(net.N())
	for u := 0; u < net.N(); u++ {
		for v := u + 1; v < net.N(); v++ {
			if d.Set(u).Contains(asg.ID(v)) && d.Set(v).Contains(asg.ID(u)) {
				_ = h.AddEdge(u, v)
			}
		}
	}
	return h.Build()
}

// sameGraph reports whether a and b have the same edge set.
func sameGraph(a, b *graph.Graph) bool {
	same := a.M() == b.M()
	a.Edges(func(u, v int) { same = same && b.HasEdge(u, v) })
	return same
}

// TestBuildHIsGForExactDetector checks that an exact detector's H is the
// network's G itself, not a copy, under random assignments.
func TestBuildHIsGForExactDetector(t *testing.T) {
	for _, net := range []*dualgraph.Network{lineNetwork(t), cycleNetwork(t, 7)} {
		for seed := uint64(1); seed <= 5; seed++ {
			asg := dualgraph.RandomAssignment(net.N(), rand.New(rand.NewPCG(seed, 5)))
			d := Complete(net, asg)
			if !d.Exact(net, asg) {
				t.Fatal("the complete detector is not exact")
			}
			if h := BuildH(net, asg, d); h != net.G() {
				t.Fatalf("seed %d: H of an exact detector is a copy, not G", seed)
			}
		}
	}
}

// TestBuildHBuildsForInexactDetectors checks that τ-complete and
// incomplete detectors still get H built from mutual membership, as a
// graph distinct from G even where its edges coincide with G's.
func TestBuildHBuildsForInexactDetectors(t *testing.T) {
	line, cycle := lineNetwork(t), cycleNetwork(t, 6)
	built := 0
	for seed := uint64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewPCG(seed, 6))
		lineAsg := dualgraph.RandomAssignment(line.N(), rng)
		cycleAsg := dualgraph.IdentityAssignment(cycle.N())
		for _, c := range []struct {
			net *dualgraph.Network
			asg *dualgraph.Assignment
			d   *Detector
		}{
			{line, lineAsg, TauComplete(line, lineAsg, 1+int(seed%3), PlaceUniform, rng)},
			{cycle, cycleAsg, Incomplete(cycle, cycleAsg, 1, rng)},
		} {
			if c.d.Exact(c.net, c.asg) {
				t.Fatalf("seed %d: a detector with mistakes or drops passed as exact", seed)
			}
			h := BuildH(c.net, c.asg, c.d)
			if h == c.net.G() {
				t.Fatalf("seed %d: H of an inexact detector is G itself", seed)
			}
			if !sameGraph(h, naiveH(c.net, c.asg, c.d)) {
				t.Fatalf("seed %d: H differs from mutual membership", seed)
			}
			built++
		}
	}
	if built != 20 {
		t.Fatalf("built %d graphs H, want 20", built)
	}
}

// TestExactChecksMembership swaps one neighbour of a node for a
// non-neighbour: every set keeps its size, so only membership shows the
// detector is not exact.
func TestExactChecksMembership(t *testing.T) {
	net := lineNetwork(t)
	asg := dualgraph.IdentityAssignment(net.N())
	d := Complete(net, asg)
	d.Set(1).Remove(asg.ID(0))
	d.Set(1).Add(asg.ID(4))
	if d.Exact(net, asg) {
		t.Fatal("a swapped neighbour passed as exact")
	}
	if h := BuildH(net, asg, d); h == net.G() || !sameGraph(h, naiveH(net, asg, d)) {
		t.Fatal("H of the swapped detector is not its mutual-membership graph")
	}
}

// TestBuildHContainsG verifies G ⊆ H for any τ-complete detector (the
// Section 3 observation), under random assignments and mistake budgets.
func TestBuildHContainsG(t *testing.T) {
	net := lineNetwork(t)
	f := func(seed uint64, tauRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		tau := int(tauRaw % 4)
		asg := dualgraph.RandomAssignment(net.N(), rng)
		d := TauComplete(net, asg, tau, PlaceUniform, rng)
		ok := true
		net.G().Edges(func(u, v int) {
			if !BuildH(net, asg, d).HasEdge(u, v) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMistakeCount(t *testing.T) {
	net := lineNetwork(t)
	asg := dualgraph.IdentityAssignment(net.N())
	d := Complete(net, asg)
	for v, m := range d.MistakeCount(net, asg) {
		if m != 0 {
			t.Errorf("node %d: %d mistakes on complete detector", v, m)
		}
	}
	d.Set(1).Add(5)
	if d.MistakeCount(net, asg)[1] != 1 {
		t.Error("injected mistake not counted")
	}
}
