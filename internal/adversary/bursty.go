package adversary

import (
	"math/rand/v2"

	"dualradio/internal/dualgraph"
)

// Bursty models the link burstiness measured in real deployments (the
// β-factor study cited by the paper): each unreliable edge alternates
// between "up" bursts, where it behaves reliably, and "down" gaps, with
// geometrically distributed durations. During an up burst the edge is in
// the reach set whenever it could matter.
type Bursty struct {
	rng       *rand.Rand
	gray      [][2]int
	up        []bool
	remaining []int
	meanUp    float64
	meanDown  float64
	reuse     []int
}

var _ Adversary = (*Bursty)(nil)

// NewBursty returns a Bursty adversary. meanUp and meanDown are the mean
// burst and gap lengths in rounds (values < 1 are clamped to 1).
func NewBursty(net *dualgraph.Network, meanUp, meanDown float64, rng *rand.Rand) *Bursty {
	if meanUp < 1 {
		meanUp = 1
	}
	if meanDown < 1 {
		meanDown = 1
	}
	gray := net.GrayEdges()
	b := &Bursty{
		rng:       rng,
		gray:      gray,
		up:        make([]bool, len(gray)),
		remaining: make([]int, len(gray)),
		meanUp:    meanUp,
		meanDown:  meanDown,
	}
	for i := range gray {
		b.up[i] = rng.Float64() < meanUp/(meanUp+meanDown)
		b.remaining[i] = b.duration(b.up[i])
	}
	return b
}

// duration draws a geometric burst/gap length with the configured mean.
func (b *Bursty) duration(up bool) int {
	mean := b.meanDown
	if up {
		mean = b.meanUp
	}
	d := 1
	for b.rng.Float64() < 1-1/mean {
		d++
	}
	return d
}

// Skip implements Skipper for the leap engine: it advances every edge's
// burst state machine across a stretch of broadcast-free rounds in one step.
// The recurrence is the per-round advance in Reach — subtract the elapsed
// rounds from the remaining burst length, then toggle and redraw durations
// until the balance is positive — so each edge's state after Skip has the
// law the skipped Reach calls would give it. It is not the same draw for
// draw: Skip finishes one edge's durations before the next edge's, while
// Reach interleaves the edges round by round, so with two or more gray edges
// the edges receive different draws. Every duration comes from fresh
// draws either way, which is why the law holds. With one gray edge the
// orders coincide and the state is bit-identical.
func (b *Bursty) Skip(_, rounds int) {
	for i := range b.gray {
		rem := b.remaining[i] - rounds
		for rem <= 0 {
			b.up[i] = !b.up[i]
			rem += b.duration(b.up[i])
		}
		b.remaining[i] = rem
	}
}

// Reach implements Adversary.
func (b *Bursty) Reach(_ int, bcast []bool, _ []int, _, _ []int32) []int {
	b.reuse = b.reuse[:0]
	for i, e := range b.gray {
		// Advance the burst state machine every round.
		b.remaining[i]--
		if b.remaining[i] <= 0 {
			b.up[i] = !b.up[i]
			b.remaining[i] = b.duration(b.up[i])
		}
		if b.up[i] && (bcast[e[0]] || bcast[e[1]]) {
			b.reuse = append(b.reuse, i)
		}
	}
	return b.reuse
}
