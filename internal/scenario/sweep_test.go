package scenario

import (
	"reflect"
	"strings"
	"testing"
)

func misSweep() SweepSpec {
	return SweepSpec{
		Name: "grid",
		Base: Spec{
			Algorithm:       AlgoMIS,
			Network:         NetworkSpec{N: 32},
			Trials:          2,
			StopWhenDecided: true,
		},
		Axes: SweepAxes{
			N:        &Axis{Values: []float64{32, 64}},
			GrayProb: &Axis{Values: []float64{0.05, 0.2}},
			Adversary: []AdversarySpec{
				{Kind: AdvCollision},
				{Kind: AdvFull},
			},
		},
	}
}

func TestSweepExpansionDeterministicOrderAndHash(t *testing.T) {
	a, err := ExpandSweep(misSweep())
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExpandSweep(misSweep())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Children) != 8 {
		t.Fatalf("2×2×2 sweep expanded to %d children", len(a.Children))
	}
	if a.Hash() != b.Hash() {
		t.Fatal("identical sweeps hash differently")
	}
	for i := range a.Children {
		if a.Children[i].Hash() != b.Children[i].Hash() {
			t.Fatalf("child %d differs across identical expansions", i)
		}
	}
	// Grid order: first axis (n) outermost, adversary fastest.
	wantOrder := []struct {
		n    int
		gray float64
		adv  string
	}{
		{32, 0.05, AdvCollision}, {32, 0.05, AdvFull},
		{32, 0.2, AdvCollision}, {32, 0.2, AdvFull},
		{64, 0.05, AdvCollision}, {64, 0.05, AdvFull},
		{64, 0.2, AdvCollision}, {64, 0.2, AdvFull},
	}
	for i, w := range wantOrder {
		sp := a.Children[i].Spec()
		if sp.Network.N != w.n || sp.Network.GrayProb != w.gray || sp.Adversary.Kind != w.adv {
			t.Errorf("child %d = (n=%d gray=%v adv=%s), want (%d %v %s)",
				i, sp.Network.N, sp.Network.GrayProb, sp.Adversary.Kind, w.n, w.gray, w.adv)
		}
		if !strings.Contains(sp.Name, "grid[") {
			t.Errorf("child %d name %q lacks sweep coordinates", i, sp.Name)
		}
	}
}

func TestSweepHashIgnoresAxisSpelling(t *testing.T) {
	// The same value grid written as a list, an arithmetic range, and a
	// geometric range must expand to the same children and the same sweep
	// hash: the hash covers the expanded workloads, not the spelling.
	asList := misSweep()
	asList.Axes.N = &Axis{Values: []float64{32, 64}}
	asStep := misSweep()
	asStep.Axes.N = &Axis{From: 32, To: 64, Step: 32}
	asFactor := misSweep()
	asFactor.Axes.N = &Axis{From: 32, To: 64, Factor: 2}
	le, err := ExpandSweep(asList)
	if err != nil {
		t.Fatal(err)
	}
	for _, other := range []SweepSpec{asStep, asFactor} {
		oe, err := ExpandSweep(other)
		if err != nil {
			t.Fatal(err)
		}
		if oe.Hash() != le.Hash() {
			t.Errorf("respelled axis changed the sweep hash")
		}
	}
	// A genuinely different grid must not collide.
	asList.Axes.N = &Axis{Values: []float64{32, 96}}
	de, err := ExpandSweep(asList)
	if err != nil {
		t.Fatal(err)
	}
	if de.Hash() == le.Hash() {
		t.Error("different grids share a sweep hash")
	}
}

func TestSweepRangeExpansion(t *testing.T) {
	vals, err := (&Axis{From: 1, To: 2, Step: 0.25}).expand("x", false)
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{1, 1.25, 1.5, 1.75, 2}; !reflect.DeepEqual(vals, want) {
		t.Errorf("arithmetic range = %v, want %v", vals, want)
	}
	vals, err = (&Axis{From: 64, To: 1024, Factor: 4}).expand("n", true)
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{64, 256, 1024}; !reflect.DeepEqual(vals, want) {
		t.Errorf("geometric range = %v, want %v", vals, want)
	}
}

func TestSweepDeduplicatesEqualChildren(t *testing.T) {
	sw := misSweep()
	// Duplicate grid points (the same n listed twice) canonicalize to the
	// same workload and must collapse to one child.
	sw.Axes.N = &Axis{Values: []float64{32, 32}}
	sw.Axes.GrayProb = nil
	sw.Axes.Adversary = nil
	exp, err := ExpandSweep(sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Children) != 1 {
		t.Fatalf("duplicate grid points kept: %d children, want 1", len(exp.Children))
	}
}

func TestSweepNoAxesExpandsToBase(t *testing.T) {
	sw := SweepSpec{Base: Spec{Algorithm: AlgoMIS, Network: NetworkSpec{N: 32}}}
	exp, err := ExpandSweep(sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Children) != 1 {
		t.Fatalf("axis-less sweep expanded to %d children", len(exp.Children))
	}
	if exp.Children[0].Hash() != mustHash(t, Spec{Algorithm: AlgoMIS, Network: NetworkSpec{N: 32}}) {
		t.Fatal("axis-less child is not the base spec")
	}
}

func TestSweepRejections(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*SweepSpec)
		wantSub string
	}{
		{"future version", func(s *SweepSpec) { s.Version = 99 }, "sweep version"},
		{"values and range", func(s *SweepSpec) { s.Axes.N = &Axis{Values: []float64{32}, Step: 1, To: 64} }, "mixes values"},
		{"step and factor", func(s *SweepSpec) { s.Axes.N = &Axis{From: 32, To: 64, Step: 1, Factor: 2} }, "both step and factor"},
		{"backwards range", func(s *SweepSpec) { s.Axes.N = &Axis{From: 64, To: 32, Step: 8} }, "backwards"},
		{"factor below one", func(s *SweepSpec) { s.Axes.N = &Axis{From: 32, To: 64, Factor: 0.5} }, "factor > 1"},
		{"empty axis", func(s *SweepSpec) { s.Axes.N = &Axis{} }, "needs values or a range"},
		{"fractional n", func(s *SweepSpec) { s.Axes.N = &Axis{Values: []float64{32.5}} }, "integer values"},
		{"too many children", func(s *SweepSpec) {
			s.Axes.N = &Axis{From: 2, To: 2000, Step: 1}
		}, "exceeds"},
		{"invalid child", func(s *SweepSpec) { s.Axes.N = &Axis{Values: []float64{1}} }, "sweep child"},
		{"invalid algorithm axis", func(s *SweepSpec) { s.Axes.Algorithm = []string{"mis", "steiner"} }, "sweep child"},
	}
	for _, tc := range cases {
		sw := misSweep()
		tc.mutate(&sw)
		if _, err := ExpandSweep(sw); err == nil {
			t.Errorf("%s: expansion accepted an invalid sweep", tc.name)
		} else if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
	}
}

func TestParseSweepStrict(t *testing.T) {
	good := []byte(`{"base":{"algorithm":"mis","network":{"n":32}},"axes":{"n":{"values":[32,64]}}}`)
	if _, err := ParseSweep(good); err != nil {
		t.Fatalf("valid sweep rejected: %v", err)
	}
	bad := [][]byte{
		[]byte(`{"base":{"algorithm":"mis","network":{"n":32}},"axis":{}}`),                          // misspelled axes
		[]byte(`{"base":{"algorithm":"mis","network":{"n":32},"trails":3},"axes":{}}`),               // typo inside base
		[]byte(`{"base":{"algorithm":"mis","network":{"n":32}},"axes":{"nn":{}}}`),                   // unknown axis
		[]byte(`{"base":{"algorithm":"mis","network":{"n":32}},"axes":{"n":{"go":1}}}`),              // unknown axis field
		[]byte(`{"base":{"algorithm":"mis","network":{"n":32}},"axes":{"engine":["exact","leap"]}}`), // the retired engine axis
	}
	for _, b := range bad {
		if _, err := ParseSweep(b); err == nil {
			t.Errorf("ParseSweep accepted %s", b)
		}
	}
}

func TestCostEstimateScalesWithWorkload(t *testing.T) {
	cost := func(s Spec) int64 {
		comp, err := Compile(s)
		if err != nil {
			t.Fatalf("compile %+v: %v", s, err)
		}
		c := comp.CostEstimate()
		if c <= 0 {
			t.Fatalf("non-positive cost %d for %+v", c, s)
		}
		return c
	}
	small := cost(Spec{Algorithm: AlgoMIS, Network: NetworkSpec{N: 64}})
	big := cost(Spec{Algorithm: AlgoMIS, Network: NetworkSpec{N: 1024}})
	if big <= small {
		t.Errorf("cost does not grow with n: n=64 → %d, n=1024 → %d", small, big)
	}
	one := cost(Spec{Algorithm: AlgoMIS, Network: NetworkSpec{N: 64}, Trials: 1})
	ten := cost(Spec{Algorithm: AlgoMIS, Network: NetworkSpec{N: 64}, Trials: 10})
	if ten != 10*one {
		t.Errorf("cost not linear in trials: 1 → %d, 10 → %d", one, ten)
	}
	// Every algorithm produces a positive estimate (including the CCDS
	// family, whose analytic schedule length depends on b and Δ).
	for _, s := range []Spec{
		{Algorithm: AlgoMISClassic, Network: NetworkSpec{N: 64, GrayProb: -1}, Adversary: AdversarySpec{Kind: AdvNone}},
		{Algorithm: AlgoCCDS, Network: NetworkSpec{N: 64}, B: 512},
		{Algorithm: AlgoBaselineCCDS, Network: NetworkSpec{N: 64}, B: 512},
		{Algorithm: AlgoTauCCDS, Network: NetworkSpec{N: 64, Tau: 1}, B: 1 << 15},
		{Algorithm: AlgoAsyncMIS, Network: NetworkSpec{N: 64, GrayProb: -1}, Adversary: AdversarySpec{Kind: AdvNone}},
		{Algorithm: AlgoContinuousCCDS, Network: NetworkSpec{N: 64}, B: 512},
	} {
		cost(s)
	}
	// The continuous variant reruns δ_CDS periods, so more periods cost more.
	few := cost(Spec{Algorithm: AlgoContinuousCCDS, Network: NetworkSpec{N: 64}, B: 512,
		Dynamic: &DynamicSpec{Periods: 2}})
	many := cost(Spec{Algorithm: AlgoContinuousCCDS, Network: NetworkSpec{N: 64}, B: 512,
		Dynamic: &DynamicSpec{Periods: 20}})
	if many <= few {
		t.Errorf("continuous cost ignores periods: 2 → %d, 20 → %d", few, many)
	}
}

func BenchmarkSweepExpand(b *testing.B) {
	sw := SweepSpec{
		Name: "bench",
		Base: Spec{Algorithm: AlgoMIS, Network: NetworkSpec{N: 64}, Trials: 3, StopWhenDecided: true},
		Axes: SweepAxes{
			N:        &Axis{From: 64, To: 512, Factor: 2},
			GrayProb: &Axis{Values: []float64{0.05, 0.1, 0.2, 0.4}},
			Adversary: []AdversarySpec{
				{Kind: AdvCollision}, {Kind: AdvFull}, {Kind: AdvUniform, P: 0.3},
			},
		},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		exp, err := ExpandSweep(sw)
		if err != nil {
			b.Fatal(err)
		}
		if len(exp.Children) != 48 {
			b.Fatalf("expanded to %d children", len(exp.Children))
		}
	}
}
