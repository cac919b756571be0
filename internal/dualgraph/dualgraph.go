// Package dualgraph defines the dual graph network model of Censor-Hillel,
// Gilbert, Kuhn, Lynch, and Newport (PODC 2011): a pair of undirected graphs
// (G, G') over the same n wireless nodes with E ⊆ E'. Edges in G are
// reliable — in the absence of collisions they always deliver messages —
// while edges in G' \ G are unreliable and behave reliably only in rounds
// where the adversary includes them in the reach set.
//
// Section 2 of the paper additionally embeds nodes in the plane: there is a
// constant d >= 1 such that dist(u,v) <= 1 implies (u,v) ∈ E and every
// (u,v) ∈ E' has dist(u,v) <= d. Validate checks these invariants.
package dualgraph

import (
	"errors"
	"fmt"
	"sync"

	"dualradio/internal/geom"
	"dualradio/internal/graph"
)

// Model errors reported by Validate.
var (
	ErrNotSubgraph     = errors.New("dualgraph: E is not a subset of E'")
	ErrDisconnected    = errors.New("dualgraph: reliable graph G is not connected")
	ErrMissingEdge     = errors.New("dualgraph: nodes within distance 1 lack a reliable edge")
	ErrEdgeTooLong     = errors.New("dualgraph: unreliable edge longer than gray zone d")
	ErrBadGrayZone     = errors.New("dualgraph: gray zone d must be at least 1")
	ErrSizeMismatch    = errors.New("dualgraph: G, G' and coordinates disagree on n")
	ErrTooFewProcesses = errors.New("dualgraph: model requires n > 2")
)

// Network is a dual graph radio network instance: the reliable graph G, the
// superset graph G', the plane embedding, and the gray zone constant d.
type Network struct {
	g      *graph.Graph
	gPrime *graph.Graph
	coords []geom.Point
	d      float64

	// Derived quantities are memoized: graphs are immutable, and the
	// engine plus every adversary constructor ask for the gray edge list
	// and Δ on the trial hot path.
	grayOnce sync.Once
	gray     [][2]int
	adjOnce  sync.Once
	grayAdj  [][]GrayArc
}

// GrayArc is one endpoint's view of a gray edge: the opposite node and the
// edge's index in GrayEdges.
type GrayArc struct {
	Peer int32
	Idx  int32
}

// New assembles a network from its parts. It does not validate the model
// invariants; call Validate for that (generators always produce valid
// networks, but hand-built test fixtures may deliberately break invariants).
func New(g, gPrime *graph.Graph, coords []geom.Point, d float64) *Network {
	return &Network{g: g, gPrime: gPrime, coords: coords, d: d}
}

// N returns the number of nodes.
func (n *Network) N() int { return n.g.N() }

// G returns the reliable graph.
func (n *Network) G() *graph.Graph { return n.g }

// GPrime returns the unreliable superset graph G'.
func (n *Network) GPrime() *graph.Graph { return n.gPrime }

// Coord returns the plane position of node v.
func (n *Network) Coord(v int) geom.Point { return n.coords[v] }

// Coords returns the full embedding. The slice is owned by the network and
// must not be modified.
func (n *Network) Coords() []geom.Point { return n.coords }

// D returns the gray zone constant d: the maximum distance at which an
// unreliable edge may exist.
func (n *Network) D() float64 { return n.d }

// Delta returns Δ, the maximum degree in the reliable graph G.
func (n *Network) Delta() int { return n.g.MaxDegree() }

// DeltaPrime returns Δ', the maximum degree in G'.
func (n *Network) DeltaPrime() int { return n.gPrime.MaxDegree() }

// GrayEdges returns the unreliable-only edges E' \ E as (u, v) pairs with
// u < v. These are the edges whose per-round behavior the adversary chooses.
// The slice is computed once, shared by all callers, and must not be
// modified.
func (n *Network) GrayEdges() [][2]int {
	n.grayOnce.Do(func() {
		n.gray = make([][2]int, 0, n.gPrime.M()-n.g.M())
		n.gPrime.Edges(func(u, v int) {
			if !n.g.HasEdge(u, v) {
				n.gray = append(n.gray, [2]int{u, v})
			}
		})
	})
	return n.gray
}

// GrayAdjacency returns, for each node, the gray edges incident to it —
// the per-node index every adaptive adversary walks. Like GrayEdges it is
// computed once and shared: adversaries are constructed per trial, and with
// the instance cache many trials share one network, so the rebuild cost
// would otherwise recur on every trial's setup path. Callers must not
// modify the returned slices.
func (n *Network) GrayAdjacency() [][]GrayArc {
	n.adjOnce.Do(func() {
		gray := n.GrayEdges()
		deg := make([]int32, n.N())
		for _, e := range gray {
			deg[e[0]]++
			deg[e[1]]++
		}
		// One arena allocation, carved into per-node slices.
		arena := make([]GrayArc, 2*len(gray))
		adj := make([][]GrayArc, n.N())
		off := int32(0)
		for v := range adj {
			adj[v] = arena[off : off : off+deg[v]]
			off += deg[v]
		}
		for i, e := range gray {
			u, v := e[0], e[1]
			adj[u] = append(adj[u], GrayArc{Peer: int32(v), Idx: int32(i)})
			adj[v] = append(adj[v], GrayArc{Peer: int32(u), Idx: int32(i)})
		}
		n.grayAdj = adj
	})
	return n.grayAdj
}

// Validate checks the Section 2 model invariants: n > 2, matching sizes,
// E ⊆ E', G connected, d >= 1, every pair within distance 1 reliable, and
// every G' edge within distance d. It returns the first violated invariant.
func (n *Network) Validate() error {
	if n.g.N() != n.gPrime.N() || n.g.N() != len(n.coords) {
		return fmt.Errorf("%w: |G|=%d |G'|=%d |coords|=%d",
			ErrSizeMismatch, n.g.N(), n.gPrime.N(), len(n.coords))
	}
	if n.N() <= 2 {
		return fmt.Errorf("%w: n=%d", ErrTooFewProcesses, n.N())
	}
	if n.d < 1 {
		return fmt.Errorf("%w: d=%v", ErrBadGrayZone, n.d)
	}
	if !n.g.IsSubgraphOf(n.gPrime) {
		return ErrNotSubgraph
	}
	if !n.g.Connected() {
		return ErrDisconnected
	}
	for u := 0; u < n.N(); u++ {
		for v := u + 1; v < n.N(); v++ {
			if n.coords[u].Dist(n.coords[v]) <= 1 && !n.g.HasEdge(u, v) {
				return fmt.Errorf("%w: nodes %d and %d at distance %.4f",
					ErrMissingEdge, u, v, n.coords[u].Dist(n.coords[v]))
			}
		}
	}
	var bad error
	n.gPrime.Edges(func(u, v int) {
		if bad == nil && n.coords[u].Dist(n.coords[v]) > n.d+1e-9 {
			bad = fmt.Errorf("%w: edge (%d,%d) at distance %.4f > d=%.4f",
				ErrEdgeTooLong, u, v, n.coords[u].Dist(n.coords[v]), n.d)
		}
	})
	return bad
}
