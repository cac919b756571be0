package verify_test

import (
	"fmt"
	"testing"

	"dualradio/internal/dualgraph"
	"dualradio/internal/graph"
	"dualradio/internal/harness"
	"dualradio/internal/verify"
)

// benchCase is one verification workload: an instance, its graph H, and the
// outputs of one MIS and one banned-list CCDS execution on it.
type benchCase struct {
	net       *dualgraph.Network
	h         *graph.Graph
	mis, ccds []int
}

// benchCases keeps each size's executions across sub-benchmarks and b.N
// rounds: running them costs far more than the checks being timed.
var benchCases = map[int]*benchCase{}

func loadBenchCase(b *testing.B, n int) *benchCase {
	b.Helper()
	if c, ok := benchCases[n]; ok {
		return c
	}
	inst, err := harness.BuildInstance(harness.InstanceSpec{N: n, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	s := &harness.Scenario{Net: inst.Net, Asg: inst.Asg, Det: inst.Det, Seed: 1, B: 512}
	mis, err := s.RunMIS()
	if err != nil {
		b.Fatal(err)
	}
	ccds, err := s.RunCCDS()
	if err != nil {
		b.Fatal(err)
	}
	c := &benchCase{net: inst.Net, h: inst.H(), mis: mis.Outputs, ccds: ccds.Outputs}
	benchCases[n] = c
	return c
}

// BenchmarkVerify times the Section 3 checks that follow every trial, on the
// outputs of real executions at n=256 (the largest preset) and n=512 (the
// largest experiment size).
func BenchmarkVerify(b *testing.B) {
	for _, n := range []int{256, 512} {
		c := loadBenchCase(b, n)
		b.Run(fmt.Sprintf("MIS/n%d", n), func(b *testing.B) {
			for b.Loop() {
				verify.MIS(c.net, c.h, c.mis)
			}
		})
		b.Run(fmt.Sprintf("CCDS/n%d", n), func(b *testing.B) {
			for b.Loop() {
				verify.CCDS(c.net, c.h, c.ccds, 0)
			}
		})
		b.Run(fmt.Sprintf("MaxCCDSDegree/n%d", n), func(b *testing.B) {
			for b.Loop() {
				verify.MaxCCDSDegree(c.net, c.ccds)
			}
		})
	}
}
