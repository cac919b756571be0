// Package graph implements the undirected graph substrate shared by the
// dual graph radio network model. Vertices are dense integer indices
// 0..n-1 (node indices, not process ids), and adjacency is stored in
// compressed sparse row (CSR) form: one flat neighbor arena plus an offset
// table, so a round's neighbor iterations walk contiguous memory with no
// per-vertex slice headers.
//
// Graph is immutable. Construction and mutation happen on a Builder, which
// is frozen into a Graph with Build. This split keeps the simulation hot
// path free of bounds rechecks and lets networks share graphs (G = G')
// without defensive copies.
package graph

import (
	"errors"
	"fmt"
)

// ErrVertexRange is returned when an edge endpoint is outside [0, n).
var ErrVertexRange = errors.New("graph: vertex index out of range")

// Graph is an immutable undirected simple graph over vertices 0..N-1 in CSR
// layout. The zero value is an empty graph with no vertices; use New for an
// edgeless graph with a fixed vertex count and Builder to construct graphs
// with edges.
type Graph struct {
	n   int
	m   int
	off []int32 // len n+1; neighbor arena bounds per vertex
	nbr []int32 // len 2m; sorted neighbors, vertex after vertex
}

// New returns an edgeless immutable graph with n vertices.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{n: n, off: make([]int32, n+1)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// HasEdge reports whether the undirected edge (u, v) is present.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n || u == v {
		return false
	}
	_, found := insertPos(g.nbr[g.off[u]:g.off[u+1]], int32(v))
	return found
}

// Neighbors returns the sorted neighbor slice of v. The slice aliases the
// graph's arena and must not be modified by callers.
func (g *Graph) Neighbors(v int) []int32 {
	if v < 0 || v >= g.n {
		return nil
	}
	return g.nbr[g.off[v]:g.off[v+1]]
}

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int {
	if v < 0 || v >= g.n {
		return 0
	}
	return int(g.off[v+1] - g.off[v])
}

// MaxDegree returns the maximum degree over all vertices (0 for an empty
// graph). This is the paper's Δ when applied to the reliable graph G, and Δ'
// when applied to G'.
func (g *Graph) MaxDegree() int {
	maxDeg := 0
	for v := 0; v < g.n; v++ {
		if d := int(g.off[v+1] - g.off[v]); d > maxDeg {
			maxDeg = d
		}
	}
	return maxDeg
}

// MinDegree returns the minimum degree over all vertices (0 for an empty
// graph).
func (g *Graph) MinDegree() int {
	if g.n == 0 {
		return 0
	}
	minDeg := int(g.off[1])
	for v := 1; v < g.n; v++ {
		if d := int(g.off[v+1] - g.off[v]); d < minDeg {
			minDeg = d
		}
	}
	return minDeg
}

// AvgDegree returns the average vertex degree.
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(g.n)
}

// Edges calls fn for every undirected edge exactly once, with u < v.
func (g *Graph) Edges(fn func(u, v int)) {
	for u := 0; u < g.n; u++ {
		for _, v := range g.nbr[g.off[u]:g.off[u+1]] {
			if int(v) > u {
				fn(u, int(v))
			}
		}
	}
}

// IsSubgraphOf reports whether every edge of g is also an edge of h and the
// vertex counts match. This checks the dual graph invariant E ⊆ E'.
func (g *Graph) IsSubgraphOf(h *Graph) bool {
	if g.n != h.n {
		return false
	}
	ok := true
	g.Edges(func(u, v int) {
		if !h.HasEdge(u, v) {
			ok = false
		}
	})
	return ok
}

// Builder is a mutable graph under construction. It supports edge insertion
// and removal with the same validation the old mutable Graph offered, and
// freezes into an immutable CSR Graph with Build. The zero value is unusable;
// use NewBuilder or BuilderFrom.
type Builder struct {
	n   int
	m   int
	adj [][]int32
}

// NewBuilder returns a builder for a graph with n vertices and no edges.
func NewBuilder(n int) *Builder {
	if n < 0 {
		n = 0
	}
	return &Builder{n: n, adj: make([][]int32, n)}
}

// BuilderFrom returns a builder seeded with a copy of g's edges, for
// derived-subgraph construction (the immutable g is not touched).
func BuilderFrom(g *Graph) *Builder {
	b := NewBuilder(g.n)
	b.m = g.m
	for v := 0; v < g.n; v++ {
		nb := g.nbr[g.off[v]:g.off[v+1]]
		if len(nb) > 0 {
			b.adj[v] = append([]int32(nil), nb...)
		}
	}
	return b
}

// N returns the number of vertices.
func (b *Builder) N() int { return b.n }

// M returns the number of edges inserted so far.
func (b *Builder) M() int { return b.m }

// AddEdge inserts the undirected edge (u, v). Self-loops and duplicate edges
// are rejected with an error. Each endpoint costs one binary search (with an
// O(1) fast path when neighbors arrive in ascending order, as generators
// produce them).
func (b *Builder) AddEdge(u, v int) error {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("%w: (%d,%d) with n=%d", ErrVertexRange, u, v, b.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	iu, dup := insertPos(b.adj[u], int32(v))
	if dup {
		return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
	}
	iv, _ := insertPos(b.adj[v], int32(u))
	b.adj[u] = insertAt(b.adj[u], iu, int32(v))
	b.adj[v] = insertAt(b.adj[v], iv, int32(u))
	b.m++
	return nil
}

// insertPos returns the insertion index for v in the sorted slice nb and
// whether v is already present. Appending in ascending order hits the O(1)
// tail check.
func insertPos(nb []int32, v int32) (int, bool) {
	if len(nb) == 0 || nb[len(nb)-1] < v {
		return len(nb), false
	}
	lo, hi := 0, len(nb)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if nb[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(nb) && nb[lo] == v
}

func insertAt(nb []int32, i int, v int32) []int32 {
	nb = append(nb, 0)
	copy(nb[i+1:], nb[i:])
	nb[i] = v
	return nb
}

// RemoveEdge deletes the undirected edge (u, v) if present and reports
// whether it was removed.
func (b *Builder) RemoveEdge(u, v int) bool {
	if !b.HasEdge(u, v) {
		return false
	}
	b.remove(u, int32(v))
	b.remove(v, int32(u))
	b.m--
	return true
}

func (b *Builder) remove(u int, v int32) {
	nb := b.adj[u]
	i, _ := insertPos(nb, v)
	copy(nb[i:], nb[i+1:])
	b.adj[u] = nb[:len(nb)-1]
}

// HasEdge reports whether the undirected edge (u, v) is present.
func (b *Builder) HasEdge(u, v int) bool {
	if u < 0 || u >= b.n || v < 0 || v >= b.n || u == v {
		return false
	}
	_, dup := insertPos(b.adj[u], int32(v))
	return dup
}

// Degree returns the degree of v in the builder.
func (b *Builder) Degree(v int) int {
	if v < 0 || v >= b.n {
		return 0
	}
	return len(b.adj[v])
}

// Connected reports whether the graph under construction is connected,
// without freezing it. The empty and single-vertex graphs are connected.
// Subgraph derivations (detector misclassification, dynamic topologies) use
// this to gate removals on the connectivity proviso.
func (b *Builder) Connected() bool {
	if b.n <= 1 {
		return true
	}
	visited := make([]bool, b.n)
	stack := make([]int32, 0, 64)
	stack = append(stack, 0)
	visited[0] = true
	seen := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range b.adj[v] {
			if !visited[w] {
				visited[w] = true
				seen++
				stack = append(stack, w)
			}
		}
	}
	return seen == b.n
}

// Build freezes the builder into an immutable CSR graph. The builder remains
// valid and may keep mutating; later Builds snapshot later states.
func (b *Builder) Build() *Graph {
	g := &Graph{n: b.n, m: b.m, off: make([]int32, b.n+1)}
	total := 0
	for v, nb := range b.adj {
		total += len(nb)
		g.off[v+1] = int32(total)
	}
	g.nbr = make([]int32, total)
	for v, nb := range b.adj {
		copy(g.nbr[g.off[v]:], nb)
	}
	return g
}
