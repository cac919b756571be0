// Package adversary implements reach-set strategies for the dual graph
// model. At the beginning of each round, after seeing which nodes broadcast,
// the adversary chooses a reach set consisting of all reliable edges E plus
// an arbitrary subset of the unreliable edges E' \ E (Section 2). The
// strategies here range from benign (never activate unreliable edges) to
// the clique-isolating adversary used in the Section 7 lower bound proof.
package adversary

import (
	"math/rand/v2"

	"dualradio/internal/dualgraph"
)

// Adversary selects, each round, which unreliable (gray) edges behave
// reliably. Implementations are bound to a specific network at construction
// time. The engine calls Reach once per executed round, after every process
// has decided whether to broadcast, with its view of the round:
//
//   - bcast[v] reports whether node v broadcasts; the adversary may adapt
//     to it, exactly as the model allows;
//   - broadcasters lists the broadcasting nodes in ascending order;
//   - relCnt[v] is the number of broadcasters reaching node v over reliable
//     (G) edges, and hitNodes lists exactly the nodes with relCnt > 0, in
//     the order the engine first hit them.
//
// All four are read-only views of engine state, valid only for the duration
// of the call. The returned slice holds indices into the network's
// GrayEdges() list and may be in any order; it is only valid until the next
// call.
type Adversary interface {
	Reach(round int, bcast []bool, broadcasters []int, relCnt []int32, hitNodes []int32) []int
}

// None never activates unreliable edges: communication happens on G alone.
// With G = G' this is the classic radio network model.
type None struct{}

var _ Adversary = None{}

// Reach implements Adversary.
func (None) Reach(int, []bool, []int, []int32, []int32) []int { return nil }

// Full activates every unreliable edge every round, making G' the effective
// communication graph (maximizing collision opportunities).
type Full struct {
	all []int
}

var _ Adversary = (*Full)(nil)

// NewFull returns a Full adversary for the given network.
func NewFull(net *dualgraph.Network) *Full {
	k := len(net.GrayEdges())
	all := make([]int, k)
	for i := range all {
		all[i] = i
	}
	return &Full{all: all}
}

// Reach implements Adversary.
func (f *Full) Reach(int, []bool, []int, []int32, []int32) []int { return f.all }

// UniformP activates each unreliable edge independently with probability p
// every round — a stochastic middle ground modelling bursty gray-zone links.
type UniformP struct {
	p     float64
	rng   *rand.Rand
	gray  [][2]int
	reuse []int
}

var _ Adversary = (*UniformP)(nil)

// NewUniformP returns a UniformP adversary over the network's gray edges.
func NewUniformP(net *dualgraph.Network, p float64, rng *rand.Rand) *UniformP {
	return &UniformP{p: p, rng: rng, gray: net.GrayEdges()}
}

// Reach implements Adversary.
func (u *UniformP) Reach(_ int, bcast []bool, _ []int, _, _ []int32) []int {
	u.reuse = u.reuse[:0]
	for i, e := range u.gray {
		// Only edges incident to a broadcaster can matter this round.
		if !bcast[e[0]] && !bcast[e[1]] {
			continue
		}
		if u.rng.Float64() < u.p {
			u.reuse = append(u.reuse, i)
		}
	}
	return u.reuse
}
