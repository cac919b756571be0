package harness_test

import (
	"math/rand/v2"
	"testing"

	"dualradio/internal/adversary"
	"dualradio/internal/core"
	"dualradio/internal/detector"
	"dualradio/internal/dualgraph"
	"dualradio/internal/gen"
	"dualradio/internal/sim"
)

// TestMISIndependentUnderCollisionN96 runs a full n=96 MIS under the
// collision-seeking adversary and requires no two G-adjacent members. A
// violation names both join epochs, which tell a same-epoch double join from
// a late join after a jammed announcement.
func TestMISIndependentUnderCollisionN96(t *testing.T) {
	seed := uint64(1)
	rng := rand.New(rand.NewPCG(seed, 1))
	n := 96
	net, err := gen.RandomGeometric(gen.GeometricConfig{N: n}, rng)
	if err != nil {
		t.Fatal(err)
	}
	asg := dualgraph.RandomAssignment(n, rng)
	det := detector.Complete(net, asg)
	procs := make([]sim.Process, n)
	for v := 0; v < n; v++ {
		id := uint64(asg.ID(v))
		p, err := core.NewMISProcess(core.MISConfig{
			ID:       asg.ID(v),
			N:        n,
			Detector: det.Set(v),
			Filter:   core.FilterDetector,
			Params:   core.DefaultParams(),
			Rng:      rand.New(rand.NewPCG(seed, id*0x9e3779b97f4a7c15+0x1234567)),
		})
		if err != nil {
			t.Fatal(err)
		}
		procs[v] = p
	}
	runner, err := sim.NewRunner(sim.Config{
		Net:       net,
		Adversary: adversary.NewCollisionSeeking(net),
		Processes: procs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.Run(); err != nil {
		t.Fatal(err)
	}
	net.G().Edges(func(u, v int) {
		pu := procs[u].(*core.MISProcess)
		pv := procs[v].(*core.MISProcess)
		if pu.InMIS() && pv.InMIS() {
			t.Errorf("adjacent MIS members: nodes %d (epoch %d) and %d (epoch %d)",
				u, pu.JoinedEpoch(), v, pv.JoinedEpoch())
		}
	})
}
