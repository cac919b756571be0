package detector

import (
	"fmt"
	"math/rand/v2"

	"dualradio/internal/dualgraph"
	"dualradio/internal/graph"
)

// Placement selects where a τ-complete detector's false positives come
// from. The paper leaves the ≤ τ mistaken ids to the adversary; these
// strategies cover the interesting cases.
type Placement int

const (
	// PlaceGrayFirst prefers G'-only neighbors as false positives — the
	// most deceptive choice, since those links sometimes work. Falls back
	// to arbitrary non-neighbors when a node has too few gray neighbors.
	PlaceGrayFirst Placement = iota + 1
	// PlaceUniform draws false positives uniformly from all non-G-neighbors.
	PlaceUniform
)

// Detector holds one link detector set per node, indexed by node index.
type Detector struct {
	sets []*Set
	n    int
}

// NewEmpty returns a detector with an empty set for every node (useful for
// building custom fixtures).
func NewEmpty(n int) *Detector {
	d := &Detector{sets: make([]*Set, n), n: n}
	for v := range d.sets {
		d.sets[v] = NewSet(n)
	}
	return d
}

// Sets returns the per-node detector sets. The slice and sets are owned by
// the detector.
func (d *Detector) Sets() []*Set { return d.sets }

// Set returns the detector set L for the process at node v.
func (d *Detector) Set(v int) *Set { return d.sets[v] }

// N returns the number of nodes covered.
func (d *Detector) N() int { return d.n }

// Complete builds the 0-complete detector: L_u = ids of u's G-neighbors,
// exactly. This models perfect link classification.
func Complete(net *dualgraph.Network, asg *dualgraph.Assignment) *Detector {
	d := NewEmpty(net.N())
	for v := 0; v < net.N(); v++ {
		for _, w := range net.G().Neighbors(v) {
			d.sets[v].Add(asg.ID(int(w)))
		}
	}
	return d
}

// TauComplete builds a τ-complete detector: every node's set contains all of
// its reliable neighbors' ids plus up to tau additional ids chosen by the
// given placement strategy. tau = 0 reduces to Complete.
func TauComplete(net *dualgraph.Network, asg *dualgraph.Assignment, tau int,
	place Placement, rng *rand.Rand) *Detector {
	d := Complete(net, asg)
	if tau <= 0 {
		return d
	}
	for v := 0; v < net.N(); v++ {
		candidates := falseCandidates(net, asg, v, place)
		rng.Shuffle(len(candidates), func(i, j int) {
			candidates[i], candidates[j] = candidates[j], candidates[i]
		})
		k := tau
		if k > len(candidates) {
			k = len(candidates)
		}
		for _, id := range candidates[:k] {
			d.sets[v].Add(id)
		}
	}
	return d
}

func falseCandidates(net *dualgraph.Network, asg *dualgraph.Assignment,
	v int, place Placement) []int {
	var gray, far []int
	selfID := asg.ID(v)
	isGNeighbor := make(map[int]bool, net.G().Degree(v))
	for _, w := range net.G().Neighbors(v) {
		isGNeighbor[int(w)] = true
	}
	isGPrime := make(map[int]bool, net.GPrime().Degree(v))
	for _, w := range net.GPrime().Neighbors(v) {
		isGPrime[int(w)] = true
	}
	for w := 0; w < net.N(); w++ {
		id := asg.ID(w)
		if w == v || id == selfID || isGNeighbor[w] {
			continue
		}
		if isGPrime[w] {
			gray = append(gray, id)
		} else {
			far = append(far, id)
		}
	}
	switch place {
	case PlaceGrayFirst:
		return append(sortedCopy(gray), sortedCopy(far)...)
	default:
		return sortedCopy(append(gray, far...))
	}
}

// MistakeCount returns, for each node, how many ids in its set are not
// reliable neighbors — the per-node τ actually realized.
func (d *Detector) MistakeCount(net *dualgraph.Network, asg *dualgraph.Assignment) []int {
	out := make([]int, d.n)
	for v := 0; v < d.n; v++ {
		for _, id := range d.sets[v].IDs() {
			if !net.G().HasEdge(v, asg.Node(id)) {
				out[v]++
			}
		}
	}
	return out
}

// Verify checks that d is τ-complete for the given network and assignment:
// every reliable neighbor present and at most tau mistakes per node.
func (d *Detector) Verify(net *dualgraph.Network, asg *dualgraph.Assignment, tau int) error {
	if d.n != net.N() {
		return fmt.Errorf("detector: covers %d nodes, network has %d", d.n, net.N())
	}
	for v := 0; v < d.n; v++ {
		for _, w := range net.G().Neighbors(v) {
			if !d.sets[v].Contains(asg.ID(int(w))) {
				return fmt.Errorf("detector: node %d missing reliable neighbor id %d",
					v, asg.ID(int(w)))
			}
		}
		if d.sets[v].Contains(asg.ID(v)) {
			return fmt.Errorf("detector: node %d contains its own id", v)
		}
	}
	for v, m := range d.MistakeCount(net, asg) {
		if m > tau {
			return fmt.Errorf("detector: node %d has %d mistakes > tau=%d", v, m, tau)
		}
	}
	return nil
}

// Exact reports whether every node's set is exactly the ids of its
// G-neighbours: the 0-complete detector with no mistakes, for which H = G.
// Each neighbour is checked by membership; sizes alone could hide a missing
// neighbour behind a false one.
func (d *Detector) Exact(net *dualgraph.Network, asg *dualgraph.Assignment) bool {
	g := net.G()
	for v := 0; v < net.N(); v++ {
		nb := g.Neighbors(v)
		if d.sets[v].Len() != len(nb) {
			return false
		}
		for _, w := range nb {
			if !d.sets[v].Contains(asg.ID(int(w))) {
				return false
			}
		}
	}
	return true
}

// BuildH constructs the graph H of Section 3: (u,v) ∈ E_H iff u ∈ L_v and
// v ∈ L_u. For any τ-complete detector, G ⊆ H; for an exact detector
// (τ = 0) H = G, and BuildH returns the network's G itself.
func BuildH(net *dualgraph.Network, asg *dualgraph.Assignment, d *Detector) *graph.Graph {
	if d.Exact(net, asg) {
		return net.G()
	}
	h := graph.NewBuilder(net.N())
	for u := 0; u < net.N(); u++ {
		for _, idv := range d.sets[u].IDs() {
			v := asg.Node(idv)
			if v > u && d.sets[v].Contains(asg.ID(u)) {
				// Error ignored: endpoints are validated by construction
				// and duplicates are impossible with v > u.
				_ = h.AddEdge(u, v)
			}
		}
	}
	return h.Build()
}
