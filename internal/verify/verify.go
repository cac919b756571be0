// Package verify checks executions against the problem definitions of
// Section 3 of the paper: the Maximal Independent Set conditions
// (termination, independence, maximality) and the Constant-Bounded Connected
// Dominating Set conditions (termination, connectivity, domination,
// constant-bounded). Independence is defined over the reliable graph G;
// maximality, connectivity and domination over the graph H induced by mutual
// link detector membership.
package verify

import (
	"fmt"

	"dualradio/internal/dualgraph"
	"dualradio/internal/geom"
	"dualradio/internal/graph"
)

// Violation is a single broken condition.
type Violation struct {
	Condition string
	Detail    string
}

// Report collects the violations of one check; an empty report means the
// execution solved the problem.
type Report struct {
	Violations []Violation
}

// OK reports whether no condition was violated.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Err returns nil when the report is clean, and an error summarizing the
// first violations otherwise.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	max := len(r.Violations)
	if max > 3 {
		max = 3
	}
	msg := fmt.Sprintf("%d violations:", len(r.Violations))
	for _, v := range r.Violations[:max] {
		msg += fmt.Sprintf(" [%s] %s;", v.Condition, v.Detail)
	}
	return fmt.Errorf("verify: %s", msg)
}

func (r *Report) add(cond, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{
		Condition: cond,
		Detail:    fmt.Sprintf(format, args...),
	})
}

// MIS checks the Section 3 MIS conditions. outputs is indexed by node and
// holds 0, 1, or a negative value for undecided; h is the detector-induced
// graph H used for maximality. Independence is judged over the reliable
// graph G, as the paper defines it.
func MIS(net *dualgraph.Network, h *graph.Graph, outputs []int) *Report {
	return MISOver(net.G(), h, outputs)
}

// MISOver checks the MIS conditions with independence judged over ind and
// maximality over h. The paper's definition uses ind = G; for detectors that
// misclassify reliable links as unreliable (footnote 1), independence can
// only be guaranteed over the mutually retained reliable edges, since a
// process must discard messages from links its detector disavows.
func MISOver(ind, h *graph.Graph, outputs []int) *Report {
	rep := &Report{}
	for v, out := range outputs {
		if out != 0 && out != 1 {
			rep.add("termination", "node %d undecided", v)
		}
	}
	for v, out := range outputs {
		if out != 1 {
			continue
		}
		for _, w := range ind.Neighbors(v) {
			if int(w) > v && outputs[w] == 1 {
				rep.add("independence", "neighbors %d and %d both joined", v, w)
			}
		}
	}
	for v, out := range outputs {
		if out != 0 {
			continue
		}
		if !coveredBy(h, outputs, v) {
			rep.add("maximality", "node %d output 0 with no MIS H-neighbor", v)
		}
	}
	return rep
}

// coveredBy reports whether v has an h-neighbor with output 1.
func coveredBy(h *graph.Graph, outputs []int, v int) bool {
	for _, w := range h.Neighbors(v) {
		if outputs[w] == 1 {
			return true
		}
	}
	return false
}

// CCDS checks the Section 3 CCDS conditions. degreeBound is the constant δ
// of the constant-bounded condition: no process may have more than
// degreeBound CCDS members among its G' neighbors; pass 0 to skip the check
// and read the realized maximum from the returned report via MaxCCDSDegree.
func CCDS(net *dualgraph.Network, h *graph.Graph, outputs []int, degreeBound int) *Report {
	rep := &Report{}
	for v, out := range outputs {
		if out != 0 && out != 1 {
			rep.add("termination", "node %d undecided", v)
		}
	}
	member := make([]bool, len(outputs))
	count := 0
	for v, out := range outputs {
		if out == 1 {
			member[v] = true
			count++
		}
	}
	if count == 0 {
		rep.add("connectivity", "empty CCDS")
		return rep
	}
	if !h.ConnectedSubset(member) {
		rep.add("connectivity", "CCDS is not connected in H")
	}
	for v, out := range outputs {
		if out != 0 {
			continue
		}
		if !coveredBy(h, outputs, v) {
			rep.add("domination", "node %d output 0 with no CCDS H-neighbor", v)
		}
	}
	if degreeBound > 0 {
		if got := MaxCCDSDegree(net, outputs); got > degreeBound {
			rep.add("constant-bounded", "a node has %d CCDS G'-neighbors > bound %d", got, degreeBound)
		}
	}
	return rep
}

// MaxCCDSDegree returns the largest number of CCDS members adjacent to any
// single node in G' — the quantity the constant-bounded condition limits.
func MaxCCDSDegree(net *dualgraph.Network, outputs []int) int {
	maxDeg := 0
	gp := net.GPrime()
	for v := 0; v < net.N(); v++ {
		c := 0
		for _, w := range gp.Neighbors(v) {
			if outputs[w] == 1 {
				c++
			}
		}
		if c > maxDeg {
			maxDeg = c
		}
	}
	return maxDeg
}

// CCDSSize returns the number of CCDS members.
func CCDSSize(outputs []int) int {
	c := 0
	for _, out := range outputs {
		if out == 1 {
			c++
		}
	}
	return c
}

// MISDensity returns the maximum number of MIS members within Euclidean
// distance r of any node — Corollary 4.7 bounds this by I_r.
func MISDensity(net *dualgraph.Network, outputs []int, r float64) int {
	maxCount := 0
	for v := 0; v < net.N(); v++ {
		c := 0
		for w := 0; w < net.N(); w++ {
			if outputs[w] == 1 && net.Coord(v).Dist(net.Coord(w)) <= r {
				c++
			}
		}
		if c > maxCount {
			maxCount = c
		}
	}
	return maxCount
}

// OverlayBound returns I_r for the paper's hexagonal overlay, the analytical
// counterpart of MISDensity.
func OverlayBound(r float64) int {
	return geom.NewOverlay().IntersectCount(r)
}

// MISPairwiseMinDist returns the smallest distance between two distinct MIS
// members, or -1 when fewer than two joined. Independence over the unit-disk
// portion of G implies this exceeds 1 whenever the embedding forces edges at
// distance <= 1.
func MISPairwiseMinDist(net *dualgraph.Network, outputs []int) float64 {
	best := -1.0
	for u := 0; u < net.N(); u++ {
		if outputs[u] != 1 {
			continue
		}
		for v := u + 1; v < net.N(); v++ {
			if outputs[v] != 1 {
				continue
			}
			d := net.Coord(u).Dist(net.Coord(v))
			if best < 0 || d < best {
				best = d
			}
		}
	}
	return best
}
