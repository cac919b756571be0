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
