package core

import (
	"math/rand/v2"
	"testing"

	"dualradio/internal/detector"
)

// TestEnumSleepCoinPreConsumption asserts the exact engine's coin
// pre-consumption rule for the enumeration-connect schedule (see
// sim.Process): every round of the schedule — silent or not — costs one
// coin, so Broadcast must burn the skipped rounds' draws before declaring a
// sleep. The test drives one instance round by round through the per-round
// broadcastRound and a twin through Broadcast honoring its wake rounds, with
// identical RNG streams: the emitted messages must match round for round,
// and the streams must end at the same position (their next draws
// coincide). A missing pre-burn desynchronizes the streams and the trailing
// draws diverge.
func TestEnumSleepCoinPreConsumption(t *testing.T) {
	for _, tc := range []struct {
		name      string
		dominator bool
		masters   []int
	}{
		{"dominator", true, nil},
		{"covered", false, []int{2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const seed = 0xC01
			build := func() *enumConnect {
				e, err := newEnumConnect(3, 16, 1<<12, 6, detector.SetOf(16, 2, 5),
					DefaultParams(), rand.New(rand.NewPCG(seed, 3)), false, func() {})
				if err != nil {
					t.Fatal(err)
				}
				e.start(tc.dominator, tc.masters)
				return e
			}
			plain := build()
			sleepy := build()
			total := plain.Rounds()
			wake := 0
			for r := 0; r < total; r++ {
				pm := plain.broadcastRound(r)
				if r < wake {
					// The sleeper declared silence through this round; the
					// bit-identity contract demands the plain drive agrees.
					if pm != nil {
						t.Fatalf("round %d: plain broadcast inside declared sleep (wake %d)", r, wake)
					}
					continue
				}
				sm, w := sleepy.Broadcast(r)
				if w <= r {
					t.Fatalf("round %d: wake %d not in the future", r, w)
				}
				wake = w
				if (pm == nil) != (sm == nil) {
					t.Fatalf("round %d: plain message %v vs sleep message %v", r, pm, sm)
				}
			}
			// Stream-position equality: the next draws of both RNGs coincide
			// only if Broadcast burned exactly the skipped rounds' coins.
			for i := 0; i < 4; i++ {
				pv := plain.rng.Float64()
				sv := sleepy.rng.Float64()
				if pv != sv {
					t.Fatalf("draw %d after the schedule: plain %v vs sleep %v — "+
						"Broadcast did not pre-consume the skipped rounds' coins", i, pv, sv)
				}
			}
		})
	}
}
