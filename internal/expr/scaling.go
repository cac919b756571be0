package expr

import (
	"math"

	"dualradio/internal/core"
	"dualradio/internal/harness"
	"dualradio/internal/verify"
)

// E1MISScaling measures the Section 4 MIS round complexity against
// Theorem 4.6's O(log³ n) bound: for each network size the mean
// rounds-until-all-decided is reported alongside rounds/log³n, which should
// be roughly flat, and a power-law fit of rounds against log n whose
// exponent should not exceed 3 by a meaningful margin.
func E1MISScaling(cfg Config) (*Result, error) {
	res := newResult("E1", "MIS solves in O(log^3 n) rounds w.h.p. (Thm 4.6)",
		"n", "runs", "mean rounds", "p90 rounds", "rounds/log^3 n", "valid")
	sizes := []int{64, 128, 256, 512}
	if cfg.Quick {
		sizes = []int{64, 128, 256}
	}
	type trial struct {
		decided int
		valid   bool
	}
	// All (size, seed) pairs are independent trials; the scheduler fans
	// them out and the reduction below walks them in the original loop
	// order, so the table is identical to the sequential sweep.
	outs, err := harness.Trials(len(sizes)*cfg.Seeds, func(i int) (trial, error) {
		n := sizes[i/cfg.Seeds]
		seed := i % cfg.Seeds
		s, err := buildScenario(scenarioSpec{n: n, seed: uint64(seed + 1)})
		if err != nil {
			return trial{}, err
		}
		// E1 consumes only DecidedRound and the outputs, both frozen
		// once every process decides.
		s.StopWhenDecided = true
		out, err := s.RunMIS()
		if err != nil {
			return trial{}, err
		}
		h := s.H()
		return trial{
			decided: out.DecidedRound,
			valid:   verify.MIS(s.Net, h, out.Outputs).OK(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var logNs, rounds []float64
	for si, n := range sizes {
		var sample []float64
		valid := 0
		for _, t := range outs[si*cfg.Seeds : (si+1)*cfg.Seeds] {
			if t.decided > 0 {
				sample = append(sample, float64(t.decided))
			}
			if t.valid {
				valid++
			}
		}
		sum := statsOf(sample)
		l3 := math.Pow(log2f(n), 3)
		res.Table.AddRow(fmtInt(n), fmtInt(cfg.Seeds), f(sum.Mean), f(sum.P90),
			f(sum.Mean/l3), ratio(valid, cfg.Seeds))
		logNs = append(logNs, log2f(n))
		rounds = append(rounds, sum.Mean)
		res.Metrics["valid_"+fmtInt(n)] = float64(valid) / float64(cfg.Seeds)
	}
	exp, r2 := powerLaw(logNs, rounds)
	res.Metrics["exponent_vs_logn"] = exp
	res.Metrics["fit_r2"] = r2
	res.Table.AddRow("fit", "", "", "", "rounds ~ (log n)^"+f(exp), "R2="+f(r2))
	return res, nil
}

// E2MISDensity checks Corollary 4.7: within any distance r there are at most
// I_r MIS processes, where I_r is the hexagonal-overlay intersection bound.
func E2MISDensity(cfg Config) (*Result, error) {
	res := newResult("E2", "at most I_r MIS processes within distance r (Cor 4.7)",
		"r", "max observed", "overlay bound I_r", "within bound")
	n := 256
	if cfg.Quick {
		n = 128
	}
	radii := []float64{1, 2, 3}
	outs, err := harness.Trials(cfg.Seeds, func(seed int) (map[float64]int, error) {
		s, err := buildScenario(scenarioSpec{n: n, seed: uint64(seed + 1)})
		if err != nil {
			return nil, err
		}
		// E2 consumes only the outputs, frozen once all decide.
		s.StopWhenDecided = true
		out, err := s.RunMIS()
		if err != nil {
			return nil, err
		}
		densities := make(map[float64]int, len(radii))
		for _, r := range radii {
			densities[r] = verify.MISDensity(s.Net, out.Outputs, r)
		}
		return densities, nil
	})
	if err != nil {
		return nil, err
	}
	maxSeen := map[float64]int{}
	for _, densities := range outs {
		for _, r := range radii {
			if d := densities[r]; d > maxSeen[r] {
				maxSeen[r] = d
			}
		}
	}
	for _, r := range radii {
		bound := verify.OverlayBound(r)
		ok := "yes"
		if maxSeen[r] > bound {
			ok = "NO"
		}
		res.Table.AddRow(f(r), fmtInt(maxSeen[r]), fmtInt(bound), ok)
		res.Metrics["max_density_r"+f(r)] = float64(maxSeen[r])
		res.Metrics["bound_r"+f(r)] = float64(bound)
	}
	return res, nil
}

// E8AsyncMIS measures the Section 9 asynchronous-start variant in the
// classic radio model (G = G', no topology knowledge): each process must
// output within O(log³ n) local rounds of waking (Theorem 9.4).
func E8AsyncMIS(cfg Config) (*Result, error) {
	res := newResult("E8", "async-start MIS decides within O(log^3 n) of waking (Thm 9.4)",
		"n", "runs", "mean latency", "p90 latency", "latency/log^3 n", "valid")
	sizes := []int{64, 128, 256}
	if cfg.Quick {
		sizes = []int{64, 128}
	}
	type trial struct {
		latencies []float64
		valid     bool
	}
	outs, err := harness.Trials(len(sizes)*cfg.Seeds, func(i int) (trial, error) {
		n := sizes[i/cfg.Seeds]
		seed := i % cfg.Seeds
		s, err := buildScenario(scenarioSpec{n: n, seed: uint64(seed + 1), grayProb: -1})
		if err != nil {
			return trial{}, err
		}
		// Classic model: no unreliable edges, no detector filtering.
		s.Det = nil
		s.Adv = nil
		s.MaxRounds = 1 << 19
		out, err := s.RunAsyncMIS(s.UniformWakes(1000), core.FilterNone)
		if err != nil {
			return trial{}, err
		}
		t := trial{valid: verify.MIS(s.Net, s.Net.G(), out.Outputs).OK()}
		for _, l := range out.Latency {
			if l >= 0 {
				t.latencies = append(t.latencies, float64(l))
			}
		}
		return t, nil
	})
	if err != nil {
		return nil, err
	}
	var logNs, lats []float64
	for si, n := range sizes {
		var sample []float64
		valid := 0
		for _, t := range outs[si*cfg.Seeds : (si+1)*cfg.Seeds] {
			sample = append(sample, t.latencies...)
			if t.valid {
				valid++
			}
		}
		sum := statsOf(sample)
		l3 := math.Pow(log2f(n), 3)
		res.Table.AddRow(fmtInt(n), fmtInt(cfg.Seeds), f(sum.Mean), f(sum.P90),
			f(sum.P90/l3), ratio(valid, cfg.Seeds))
		logNs = append(logNs, log2f(n))
		lats = append(lats, sum.P90)
		res.Metrics["valid_"+fmtInt(n)] = float64(valid) / float64(cfg.Seeds)
	}
	exp, r2 := powerLaw(logNs, lats)
	res.Metrics["exponent_vs_logn"] = exp
	res.Table.AddRow("fit", "", "", "", "latency ~ (log n)^"+f(exp), "R2="+f(r2))
	return res, nil
}
