package expr

import (
	"math"
	"math/rand/v2"

	"dualradio/internal/gen"
	"dualradio/internal/harness"
	"dualradio/internal/sim"
)

// bbProbe is a minimal process for the bounded-broadcast microbenchmark:
// senders broadcast a tagged message with probability 1/2 for a fixed window
// while every process records which senders it heard.
type bbProbe struct {
	id     int
	n      int
	sender bool
	window int
	rng    *rand.Rand
	heard  map[int]bool
	done   bool
}

var _ sim.Process = (*bbProbe)(nil)

type probeMsg struct {
	from int
	bits int
}

func (m probeMsg) From() int    { return m.from }
func (m probeMsg) BitSize() int { return m.bits }

func (p *bbProbe) Broadcast(round int) (sim.Message, int) {
	if round >= p.window {
		p.done = true
		return nil, round + 1
	}
	if p.sender && p.rng.Float64() < 0.5 {
		return probeMsg{from: p.id, bits: 32}, round + 1
	}
	return nil, round + 1
}

func (p *bbProbe) Receive(_ int, msg sim.Message) {
	p.heard[msg.From()] = true
}

func (p *bbProbe) Output() int { return 0 }
func (p *bbProbe) Done() bool  { return p.done }

// E10Subroutines measures Lemma 5.1 directly: on a clique (worst-case mutual
// interference), k concurrent bounded-broadcast callers each succeed in
// delivering to every neighbor w.h.p. as long as the window is sized for
// contention bound δ >= k-1; with more callers than the window's δ, success
// degrades — the quantitative content of the lemma's precondition.
func E10Subroutines(cfg Config) (*Result, error) {
	res := newResult("E10", "bounded-broadcast delivers under contention ≤ δ (Lem 5.1)",
		"clique n", "senders k", "window (δ=3)", "full-delivery rate", "mean heard")
	n := 24
	senderCounts := []int{1, 2, 4, 8, 16}
	if cfg.Quick {
		senderCounts = []int{1, 4, 16}
	}
	logN := math.Log2(float64(n))
	window := int(math.Ceil(2 * 8 * logN)) // ℓ_BB(δ=3) with BB factor 2
	for _, k := range senderCounts {
		type trial struct {
			success, totalHeard, trials int
		}
		outs, err := harness.Trials(cfg.Seeds*4, func(seed int) (trial, error) {
			rng := rand.New(rand.NewPCG(uint64(seed+1), uint64(k)))
			net, err := gen.Clique(n)
			if err != nil {
				return trial{}, err
			}
			procs := make([]sim.Process, n)
			for v := 0; v < n; v++ {
				procs[v] = &bbProbe{
					id: v + 1, n: n, sender: v < k, window: window,
					rng:   rand.New(rand.NewPCG(rng.Uint64(), uint64(v))),
					heard: make(map[int]bool),
				}
			}
			runner, err := sim.NewRunner(sim.Config{Net: net, Processes: procs})
			if err != nil {
				return trial{}, err
			}
			if _, err := runner.Run(); err != nil {
				return trial{}, err
			}
			var t trial
			// A sender succeeds when every other node heard it.
			for s := 0; s < k; s++ {
				t.trials++
				ok := true
				for v := 0; v < n; v++ {
					if v == s {
						continue
					}
					if !procs[v].(*bbProbe).heard[s+1] {
						ok = false
						break
					}
				}
				if ok {
					t.success++
				}
			}
			for v := k; v < n; v++ {
				t.totalHeard += len(procs[v].(*bbProbe).heard)
			}
			return t, nil
		})
		if err != nil {
			return nil, err
		}
		success, totalHeard, trials := 0, 0, 0
		for _, t := range outs {
			success += t.success
			totalHeard += t.totalHeard
			trials += t.trials
		}
		rate := float64(success) / float64(trials)
		meanHeard := float64(totalHeard) / float64((n-k)*cfg.Seeds*4)
		res.Table.AddRow(fmtInt(n), fmtInt(k), fmtInt(window), f(rate), f(meanHeard))
		res.Metrics["delivery_k"+fmtInt(k)] = rate
	}
	return res, nil
}

// decayProbe implements a standalone directed-decay sender: it broadcasts
// with exponentially increasing probability, one phase per ceil(log₂ n)
// rounds, mimicking the covered processes of Lemma 5.2. The center (a lone
// MIS process) records its first reception.
type decayProbe struct {
	id       int
	n        int
	center   bool
	phaseLen int
	phases   int
	rng      *rand.Rand
	firstRx  int
	done     bool
}

var _ sim.Process = (*decayProbe)(nil)

func (p *decayProbe) Broadcast(round int) (sim.Message, int) {
	total := p.phases * p.phaseLen
	if round >= total {
		p.done = true
		return nil, round + 1
	}
	if p.center {
		return nil, round + 1
	}
	phase := round / p.phaseLen
	prob := math.Ldexp(1/float64(p.n), phase)
	if prob > 0.5 {
		prob = 0.5
	}
	if p.rng.Float64() < prob {
		return probeMsg{from: p.id, bits: 32}, round + 1
	}
	return nil, round + 1
}

func (p *decayProbe) Receive(round int, _ sim.Message) {
	if p.center && p.firstRx < 0 {
		p.firstRx = round
	}
}

func (p *decayProbe) Output() int { return 0 }
func (p *decayProbe) Done() bool  { return p.done }

// E10DirectedDecay measures the Lemma 5.2 delivery dynamics: a lone MIS
// process with a covered set of size k receives at least one message w.h.p.,
// and the first delivery lands once the decaying probability reaches ~1/k —
// later for smaller covered sets, which is the point of the exponential
// schedule.
func E10DirectedDecay(cfg Config) (*Result, error) {
	res := newResult("E10b", "directed-decay delivers to each MIS process (Lem 5.2)",
		"covered k", "delivery rate", "mean first-delivery round", "phase reached")
	nBase := 64
	ks := []int{2, 4, 16, 63}
	if cfg.Quick {
		ks = []int{2, 16, 63}
	}
	logN := int(math.Ceil(math.Log2(float64(nBase))))
	phaseLen := 4 * logN
	for _, k := range ks {
		frs, err := harness.Trials(cfg.Seeds*4, func(seed int) (int, error) {
			net, err := gen.Clique(k + 1)
			if err != nil {
				return 0, err
			}
			procs := make([]sim.Process, k+1)
			for v := 0; v <= k; v++ {
				procs[v] = &decayProbe{
					id: v + 1, n: nBase, center: v == 0,
					phaseLen: phaseLen, phases: logN,
					rng:     rand.New(rand.NewPCG(uint64(seed+1), uint64(v*977+k))),
					firstRx: -1,
				}
			}
			runner, err := sim.NewRunner(sim.Config{Net: net, Processes: procs})
			if err != nil {
				return 0, err
			}
			if _, err := runner.Run(); err != nil {
				return 0, err
			}
			return procs[0].(*decayProbe).firstRx, nil
		})
		if err != nil {
			return nil, err
		}
		success := 0
		var firstRounds []float64
		for _, fr := range frs {
			if fr >= 0 {
				success++
				firstRounds = append(firstRounds, float64(fr))
			}
		}
		trials := cfg.Seeds * 4
		sum := statsOf(firstRounds)
		res.Table.AddRow(fmtInt(k), ratio(success, trials), f(sum.Mean),
			f(sum.Mean/float64(phaseLen)))
		res.Metrics["delivery_k"+fmtInt(k)] = float64(success) / float64(trials)
	}
	return res, nil
}
