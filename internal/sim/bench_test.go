package sim_test

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

// benchmarkMISRun measures raw engine throughput: full MIS executions per
// second on a mid-size network.
func benchmarkMISRun(b *testing.B, n int) {
	b.Helper()
	rng := rand.New(rand.NewPCG(1, 1))
	net, err := gen.RandomGeometric(gen.GeometricConfig{N: n}, rng)
	if err != nil {
		b.Fatal(err)
	}
	asg := dualgraph.IdentityAssignment(n)
	det := detector.Complete(net, asg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		procs := make([]sim.Process, n)
		for v := 0; v < n; v++ {
			p, err := core.NewMISProcess(core.MISConfig{
				ID:       asg.ID(v),
				N:        n,
				Detector: det.Set(v),
				Filter:   core.FilterDetector,
				Params:   core.DefaultParams(),
				Rng:      rand.New(rand.NewPCG(uint64(i), uint64(v))),
			})
			if err != nil {
				b.Fatal(err)
			}
			procs[v] = p
		}
		r, err := sim.NewRunner(sim.Config{
			Net:       net,
			Adversary: adversary.NewCollisionSeeking(net),
			Processes: procs,
		})
		if err != nil {
			b.Fatal(err)
		}
		st, err := r.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(st.Rounds), "rounds")
	}
}

// BenchmarkEngineMIS256 measures engine throughput.
func BenchmarkEngineMIS256(b *testing.B) { benchmarkMISRun(b, 256) }

// BenchmarkEngineMIS1024 measures a larger instance.
func BenchmarkEngineMIS1024(b *testing.B) { benchmarkMISRun(b, 1024) }
