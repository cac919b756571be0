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
	net     *dualgraph.Network
	grayAdj [][]dualgraph.GrayArc
	relCnt  []int32
	touched []int32
	reuse   []int
	blist   []int
	// cand[v] is the smallest-index gray edge from a current broadcaster
	// to victim v (-1 when none), maintained by the broadcaster-driven
	// pass; candTouched lists the victims it marked, in marking order.
	cand        []int32
	candTouched []int32
}

var _ ListAdversary = (*CollisionSeeking)(nil)
var _ CountedAdversary = (*CollisionSeeking)(nil)

// NewCollisionSeeking returns a CollisionSeeking adversary bound to net.
func NewCollisionSeeking(net *dualgraph.Network) *CollisionSeeking {
	c := &CollisionSeeking{
		net:     net,
		grayAdj: net.GrayAdjacency(),
		relCnt:  make([]int32, net.N()),
		cand:    make([]int32, net.N()),
	}
	for i := range c.cand {
		c.cand[i] = -1
	}
	return c
}

// Reach implements Adversary.
func (c *CollisionSeeking) Reach(round int, bcast []bool) []int {
	c.blist = c.blist[:0]
	for u, b := range bcast {
		if b {
			c.blist = append(c.blist, u)
		}
	}
	return c.ReachList(round, bcast, c.blist)
}

// ReachList implements ListAdversary.
func (c *CollisionSeeking) ReachList(round int, bcast []bool, broadcasters []int) []int {
	// Count reliable broadcasters reaching each node.
	g := c.net.G()
	for _, u := range broadcasters {
		for _, v := range g.Neighbors(u) {
			if c.relCnt[v] == 0 {
				c.touched = append(c.touched, v)
			}
			c.relCnt[v]++
		}
	}
	out := c.ReachCounted(round, bcast, broadcasters, c.relCnt, c.touched)
	for _, v := range c.touched {
		c.relCnt[v] = 0
	}
	c.touched = c.touched[:0]
	return out
}

// ReachCounted implements CountedAdversary: with the engine's reliable hit
// counts in hand the strategy needs no counting walks of its own. Both
// branches below pick, for each uniquely-reached node, the lowest-index gray
// edge from a broadcaster (gray adjacency lists are in edge-index order), so
// they produce the same activation set; the split only picks the cheaper
// walk direction. The order of the activations differs between the
// branches, which the Adversary contract allows and no caller can observe:
// every victim already holds a reliable hit, so the activation only turns
// its delivery into a collision.
func (c *CollisionSeeking) ReachCounted(_ int, bcast []bool, broadcasters []int, relCnt []int32, hitNodes []int32) []int {
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
	grayAdj  [][]dualgraph.GrayArc
	g        *dualgraph.Network
	bridgeA  int
	bridgeB  int
	reuse    []int
	bcasters []int
}

var _ ListAdversary = (*CliqueIsolating)(nil)

// NewCliqueIsolating returns the lower-bound adversary. bridgeA and bridgeB
// are the node indices of the bridge endpoints (see gen.BridgeCliques).
func NewCliqueIsolating(net *dualgraph.Network, bridgeA, bridgeB int) *CliqueIsolating {
	return &CliqueIsolating{
		grayAdj: net.GrayAdjacency(),
		g:       net,
		bridgeA: bridgeA,
		bridgeB: bridgeB,
	}
}

// Reach implements Adversary.
func (c *CliqueIsolating) Reach(round int, bcast []bool) []int {
	c.bcasters = c.bcasters[:0]
	for v, b := range bcast {
		if b {
			c.bcasters = append(c.bcasters, v)
		}
	}
	return c.ReachList(round, bcast, c.bcasters)
}

// ReachList implements ListAdversary.
func (c *CliqueIsolating) ReachList(_ int, bcast []bool, broadcasters []int) []int {
	c.reuse = c.reuse[:0]
	if len(broadcasters) < 2 {
		// A solo broadcast cannot be collided; if it comes from a bridge
		// endpoint it crosses, which is exactly the hitting event.
		return c.reuse
	}
	c.blockBridge(bcast, c.bridgeA, c.bridgeB)
	c.blockBridge(bcast, c.bridgeB, c.bridgeA)
	return c.reuse
}

// blockBridge collides the delivery from broadcasting endpoint src to silent
// endpoint dst by activating a gray edge from any other broadcaster to dst.
func (c *CliqueIsolating) blockBridge(bcast []bool, src, dst int) {
	if !bcast[src] || bcast[dst] {
		return
	}
	// If dst already hears 2+ reliable broadcasters it is collided anyway.
	relCount := 0
	for _, w := range c.g.G().Neighbors(dst) {
		if bcast[w] {
			relCount++
		}
	}
	if relCount != 1 {
		return
	}
	for _, arc := range c.grayAdj[dst] {
		if bcast[arc.Peer] && int(arc.Peer) != src {
			c.reuse = append(c.reuse, int(arc.Idx))
			return
		}
	}
}
