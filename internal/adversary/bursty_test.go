package adversary_test

import (
	"math/rand/v2"
	"testing"

	"dualradio/internal/adversary"
)

func TestBurstyActivationFractionTracksDuty(t *testing.T) {
	net := lineNet(t)
	rng := rand.New(rand.NewPCG(1, 1))
	// Mean up 9, mean down 1: edges should be active ~90% of broadcasting
	// rounds; and the reverse for 1/9.
	measure := func(up, down float64) float64 {
		a := adversary.NewBursty(net, up, down, rng)
		bcast := []bool{true, true, true, true}
		active := 0
		rounds := 4000
		for r := 0; r < rounds; r++ {
			active += len(reach(a, net, r, bcast))
		}
		return float64(active) / float64(rounds*len(net.GrayEdges()))
	}
	high := measure(9, 1)
	low := measure(1, 9)
	if high < 0.7 || high > 1 {
		t.Errorf("high duty fraction = %.2f, want ≈ 0.9", high)
	}
	if low > 0.3 {
		t.Errorf("low duty fraction = %.2f, want ≈ 0.1", low)
	}
	if low >= high {
		t.Error("duty cycle has no effect")
	}
}

func TestBurstyOnlyTouchesBroadcastIncidentEdges(t *testing.T) {
	net := lineNet(t)
	a := adversary.NewBursty(net, 5, 5, rand.New(rand.NewPCG(2, 2)))
	quiet := []bool{false, false, false, false}
	for r := 0; r < 100; r++ {
		if got := reach(a, net, r, quiet); len(got) != 0 {
			t.Fatalf("activated %v with no broadcasters", got)
		}
	}
}
