package adversary_test

import (
	"math/rand/v2"
	"slices"
	"testing"

	"dualradio/internal/adversary"
	"dualradio/internal/dualgraph"
	"dualradio/internal/gen"
	"dualradio/internal/geom"
	"dualradio/internal/graph"
)

// lineNet builds a 4-node unit line with skip-one gray edges: gray edges are
// (0,2) and (1,3).
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

// reach calls a.Reach with the round view the engine hands an adversary,
// computed naively: the ascending broadcaster list, per node the number of
// broadcasting G-neighbors, and the nodes with a nonzero count in ascending
// order.
func reach(a adversary.Adversary, net *dualgraph.Network, round int, bcast []bool) []int {
	var broadcasters []int
	relCnt := make([]int32, net.N())
	var hitNodes []int32
	for v := range bcast {
		if bcast[v] {
			broadcasters = append(broadcasters, v)
		}
		for _, u := range net.G().Neighbors(v) {
			if bcast[u] {
				relCnt[v]++
			}
		}
		if relCnt[v] > 0 {
			hitNodes = append(hitNodes, int32(v))
		}
	}
	return a.Reach(round, bcast, broadcasters, relCnt, hitNodes)
}

func TestNoneActivatesNothing(t *testing.T) {
	if got := reach(adversary.None{}, lineNet(t), 0, []bool{true, true, true, true}); len(got) != 0 {
		t.Errorf("None activated %v", got)
	}
}

func TestFullActivatesEverything(t *testing.T) {
	net := lineNet(t)
	a := adversary.NewFull(net)
	got := reach(a, net, 0, []bool{false, false, false, false})
	if len(got) != len(net.GrayEdges()) {
		t.Errorf("Full activated %d of %d", len(got), len(net.GrayEdges()))
	}
}

func TestUniformPExtremes(t *testing.T) {
	net := lineNet(t)
	bcast := []bool{true, true, true, true}
	never := adversary.NewUniformP(net, 0, rand.New(rand.NewPCG(1, 1)))
	if got := reach(never, net, 0, bcast); len(got) != 0 {
		t.Errorf("p=0 activated %v", got)
	}
	always := adversary.NewUniformP(net, 1, rand.New(rand.NewPCG(1, 1)))
	if got := reach(always, net, 0, bcast); len(got) != len(net.GrayEdges()) {
		t.Errorf("p=1 activated %d edges", len(got))
	}
	// Edges not incident to a broadcaster are never activated.
	if got := reach(always, net, 0, []bool{false, false, false, false}); len(got) != 0 {
		t.Errorf("idle round activated %v", got)
	}
}

// TestCollisionSeekingDestroysUniqueDelivery: node 1 broadcasts; node 2
// would uniquely receive; node 3 also broadcasts and has a gray edge to
// node 1... more precisely the adversary should activate gray (1,3) to
// collide node 1's reception or (0,2)-style edges for node 0.
func TestCollisionSeekingDestroysUniqueDelivery(t *testing.T) {
	net := lineNet(t)
	a := adversary.NewCollisionSeeking(net)
	// Node 0 and node 3 broadcast. Node 1 uniquely hears node 0 over G;
	// gray edge (1,3) lets the adversary collide it. Symmetrically node 2
	// hears node 3 and gray (0,2) collides it.
	got := reach(a, net, 0, []bool{true, false, false, true})
	if len(got) != 2 {
		t.Fatalf("expected 2 activations, got %v", got)
	}
	gray := net.GrayEdges()
	seen := map[[2]int]bool{}
	for _, idx := range got {
		seen[gray[idx]] = true
	}
	if !seen[[2]int{0, 2}] || !seen[[2]int{1, 3}] {
		t.Errorf("activated %v, want {0,2} and {1,3}", seen)
	}
}

func TestCollisionSeekingLeavesHopelessAlone(t *testing.T) {
	net := lineNet(t)
	a := adversary.NewCollisionSeeking(net)
	// Only node 0 broadcasts: node 1's unique delivery cannot be collided
	// (node 1's only gray neighbor, node 3, is silent).
	if got := reach(a, net, 0, []bool{true, false, false, false}); len(got) != 0 {
		t.Errorf("activated %v with no colliding partner available", got)
	}
}

// TestCollisionSeekingBranchesAgree: the sparse branch (at most 16
// broadcasters) and the dense branch both return, for each silent node with
// exactly one reliable hit, the lowest-index gray edge from a broadcaster
// into it. The engine oracle cannot catch a divergence between the
// branches, because the engine and the reference run the same one.
func TestCollisionSeekingBranchesAgree(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	net, err := gen.RandomGeometric(gen.GeometricConfig{N: 128}, rng)
	if err != nil {
		t.Fatal(err)
	}
	a := adversary.NewCollisionSeeking(net)
	gray := net.GrayEdges()
	sparse, dense := 0, 0 // rounds with a victim, per branch
	for round := 0; round < 200; round++ {
		k := 1 + rng.IntN(40)
		bcast := make([]bool, net.N())
		for _, v := range rng.Perm(net.N())[:k] {
			bcast[v] = true
		}
		var want []int
		for v := range bcast {
			rel := 0
			for _, u := range net.G().Neighbors(v) {
				if bcast[u] {
					rel++
				}
			}
			if bcast[v] || rel != 1 {
				continue
			}
			for idx, e := range gray {
				if (e[0] == v && bcast[e[1]]) || (e[1] == v && bcast[e[0]]) {
					want = append(want, idx)
					break
				}
			}
		}
		slices.Sort(want)
		got := slices.Sorted(slices.Values(reach(a, net, round, bcast)))
		if !slices.Equal(got, want) {
			t.Fatalf("round %d, %d broadcasters: activated %v, want %v", round, k, got, want)
		}
		switch {
		case len(want) == 0:
		case k <= 16:
			sparse++
		default:
			dense++
		}
	}
	if sparse == 0 || dense == 0 {
		t.Fatalf("rounds with a victim: sparse %d, dense %d; both branches must be exercised", sparse, dense)
	}
}

func TestCliqueIsolatingBlocksBridge(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	net, meta, err := gen.BridgeCliques(4, rng)
	if err != nil {
		t.Fatal(err)
	}
	a := adversary.NewCliqueIsolating(net, meta.BridgeA, meta.BridgeB)

	// Bridge endpoint A broadcasts alongside another node: the adversary
	// must activate a gray edge into endpoint B to collide the crossing.
	bcast := make([]bool, net.N())
	bcast[meta.BridgeA] = true
	other := (meta.BridgeA + 1) % meta.Beta // another clique-A node
	bcast[other] = true
	got := reach(a, net, 0, bcast)
	if len(got) == 0 {
		t.Fatal("adversary failed to block the bridge crossing")
	}
	gray := net.GrayEdges()
	blocked := false
	for _, idx := range got {
		e := gray[idx]
		if e[0] == meta.BridgeB || e[1] == meta.BridgeB {
			blocked = true
		}
	}
	if !blocked {
		t.Errorf("activations %v do not reach bridge endpoint B", got)
	}

	// A solo broadcast by the bridge endpoint cannot be blocked.
	solo := make([]bool, net.N())
	solo[meta.BridgeA] = true
	if got := reach(a, net, 1, solo); len(got) != 0 {
		t.Errorf("solo crossing should be unblockable, activated %v", got)
	}
}

func TestCliqueIsolatingIgnoresIntraCliqueTraffic(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	net, meta, err := gen.BridgeCliques(4, rng)
	if err != nil {
		t.Fatal(err)
	}
	a := adversary.NewCliqueIsolating(net, meta.BridgeA, meta.BridgeB)
	// Two non-bridge nodes of clique A broadcast: no cross threat, no
	// activations.
	bcast := make([]bool, net.N())
	count := 0
	for v := 0; v < meta.Beta && count < 2; v++ {
		if v != meta.BridgeA {
			bcast[v] = true
			count++
		}
	}
	if got := reach(a, net, 0, bcast); len(got) != 0 {
		t.Errorf("intra-clique traffic triggered activations %v", got)
	}
}
