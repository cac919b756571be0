package harness

import (
	"testing"

	"dualradio/internal/adversary"
	"dualradio/internal/core"
)

// BenchmarkRunMIS256 measures one standalone MIS trial as a spec runs it:
// n=256 under the collision-seeking adversary through RunMISFiltered, on
// one shared instance with a fresh process seed per iteration. It reports
// the rounds simulated, which end at the decided round.
func BenchmarkRunMIS256(b *testing.B) {
	inst, err := BuildInstance(InstanceSpec{N: 256, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	simulated := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &Scenario{Net: inst.Net, Asg: inst.Asg, Det: inst.Det,
			Adv: adversary.NewCollisionSeeking(inst.Net), Seed: uint64(i) + 1, Shared: inst}
		out, err := s.RunMISFiltered(core.FilterDetector)
		if err != nil {
			b.Fatal(err)
		}
		simulated += out.Stats.Rounds
	}
	b.ReportMetric(float64(simulated)/float64(b.N), "rounds/op")
}

// BenchmarkRunCCDS96 measures one CCDS trial as a spec runs it: n=96 and
// b=512 under the collision-seeking adversary through RunCCDS, on one
// shared instance with a fresh process seed per iteration. One runner
// drives the whole schedule, its MIS phase included. It reports the rounds
// simulated.
func BenchmarkRunCCDS96(b *testing.B) {
	inst, err := BuildInstance(InstanceSpec{N: 96, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	simulated := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &Scenario{Net: inst.Net, Asg: inst.Asg, Det: inst.Det,
			Adv: adversary.NewCollisionSeeking(inst.Net), Seed: uint64(i) + 1, B: 512, Shared: inst}
		out, err := s.RunCCDS()
		if err != nil {
			b.Fatal(err)
		}
		simulated += out.Stats.Rounds
	}
	b.ReportMetric(float64(simulated)/float64(b.N), "rounds/op")
}
