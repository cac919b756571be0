package adversary

import "dualradio/internal/dualgraph"

// CollisionSeeking is a greedy adaptive adversary: whenever a silent node
// would receive a unique message over reliable edges, it activates a gray
// edge from some other broadcaster to that node, turning the delivery into a
// collision. This is the strongest general-purpose strategy the model
// permits without knowledge of algorithm internals, and it is the behavior
// the paper's Section 4 discussion warns about: unreliable edges thwarting
// standard contention-reduction techniques.
type CollisionSeeking struct {
	grayAdj [][]dualgraph.GrayArc
	reuse   []int
	// cand[v] is the smallest-index gray edge from a current broadcaster
	// to victim v (-1 when none), maintained by the broadcaster-driven
	// pass; candTouched lists the victims it marked, in marking order.
	cand        []int32
	candTouched []int32
}

var _ Adversary = (*CollisionSeeking)(nil)

// NewCollisionSeeking returns a CollisionSeeking adversary bound to net.
func NewCollisionSeeking(net *dualgraph.Network) *CollisionSeeking {
	c := &CollisionSeeking{
		grayAdj: net.GrayAdjacency(),
		cand:    make([]int32, net.N()),
	}
	for i := range c.cand {
		c.cand[i] = -1
	}
	return c
}

// Reach implements Adversary: the engine's reliable hit counts name the
// victims, so the strategy needs no counting walks of its own. Both
// branches below pick, for each uniquely-reached node, the lowest-index gray
// edge from a broadcaster (gray adjacency lists are in edge-index order), so
// they produce the same activation set; the split only picks the cheaper
// walk direction. The order of the activations differs between the
// branches, which the Adversary contract allows and no caller can observe:
// every victim already holds a reliable hit, so the activation only turns
// its delivery into a collision.
func (c *CollisionSeeking) Reach(_ int, bcast []bool, broadcasters []int, relCnt []int32, hitNodes []int32) []int {
	c.reuse = c.reuse[:0]
	if len(broadcasters) <= 16 {
		// Sparse round: walk the gray arcs of the few broadcasters, keep
		// only arcs into a victim (a silent node with exactly one reliable
		// hit), then emit each victim's lowest-index arc.
		for _, u := range broadcasters {
			for _, arc := range c.grayAdj[u] {
				v := arc.Peer
				if relCnt[v] != 1 || bcast[v] {
					continue
				}
				switch prev := c.cand[v]; {
				case prev < 0:
					c.candTouched = append(c.candTouched, v)
					c.cand[v] = arc.Idx
				case arc.Idx < prev:
					c.cand[v] = arc.Idx
				}
			}
		}
		for _, v := range c.candTouched {
			c.reuse = append(c.reuse, int(c.cand[v]))
			c.cand[v] = -1
		}
		c.candTouched = c.candTouched[:0]
		return c.reuse
	}
	// Dense round: scanning each victim's gray arcs terminates quickly
	// because most arcs lead to a broadcaster.
	for _, v := range hitNodes {
		if relCnt[v] == 1 && !bcast[v] {
			for _, arc := range c.grayAdj[v] {
				if bcast[arc.Peer] {
					c.reuse = append(c.reuse, int(arc.Idx))
					break
				}
			}
		}
	}
	return c.reuse
}

// CliqueIsolating is the adversary from the Section 7 lower bound proof,
// specialized to the two-clique bridge network: it keeps the two cliques
// informationally independent by colliding any message that would cross the
// bridge while a second broadcaster exists anywhere in the network. Cross
// information can then flow only when a bridge endpoint broadcasts alone
// network-wide — the Ω(Δ) "hitting" event.
type CliqueIsolating struct {
	grayAdj [][]dualgraph.GrayArc
	bridgeA int
	bridgeB int
	reuse   []int
}

var _ Adversary = (*CliqueIsolating)(nil)

// NewCliqueIsolating returns the lower-bound adversary. bridgeA and bridgeB
// are the node indices of the bridge endpoints (see gen.BridgeCliques).
func NewCliqueIsolating(net *dualgraph.Network, bridgeA, bridgeB int) *CliqueIsolating {
	return &CliqueIsolating{
		grayAdj: net.GrayAdjacency(),
		bridgeA: bridgeA,
		bridgeB: bridgeB,
	}
}

// Reach implements Adversary.
func (c *CliqueIsolating) Reach(_ int, bcast []bool, broadcasters []int, relCnt []int32, _ []int32) []int {
	c.reuse = c.reuse[:0]
	if len(broadcasters) < 2 {
		// A solo broadcast cannot be collided; if it comes from a bridge
		// endpoint it crosses, which is exactly the hitting event.
		return c.reuse
	}
	c.blockBridge(bcast, relCnt, c.bridgeA, c.bridgeB)
	c.blockBridge(bcast, relCnt, c.bridgeB, c.bridgeA)
	return c.reuse
}

// blockBridge collides the delivery from broadcasting endpoint src to silent
// endpoint dst by activating a gray edge from any other broadcaster to dst.
func (c *CliqueIsolating) blockBridge(bcast []bool, relCnt []int32, src, dst int) {
	// If dst already hears 2+ reliable broadcasters it is collided anyway.
	if !bcast[src] || bcast[dst] || relCnt[dst] != 1 {
		return
	}
	for _, arc := range c.grayAdj[dst] {
		if bcast[arc.Peer] && int(arc.Peer) != src {
			c.reuse = append(c.reuse, int(arc.Idx))
			return
		}
	}
}
