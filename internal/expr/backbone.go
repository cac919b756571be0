package expr

import (
	"dualradio/internal/harness"
	"dualradio/internal/routing"
	"dualradio/internal/verify"
)

// E11Backbone quantifies the paper's Section 1 motivation: the CCDS serves
// as a routing backbone. Broadcasting over the backbone needs roughly
// |CCDS|+1 transmissions instead of n for flooding, at a modest latency
// cost, and the constant-bounded condition keeps per-node backbone load
// constant.
func E11Backbone(cfg Config) (*Result, error) {
	res := newResult("E11", "CCDS as routing backbone (Sec 1 motivation)",
		"n", "CCDS size", "flood tx", "backbone tx", "tx saving", "latency flood", "latency backbone")
	sizes := []int{96, 192}
	if cfg.Quick {
		sizes = []int{96}
	}
	for _, n := range sizes {
		type trial struct {
			ok                          bool
			floodTx, backTx             float64
			floodLat, backLat, ccdsSize float64
		}
		outs, err := harness.Trials(cfg.Seeds, func(seed int) (trial, error) {
			s, err := buildScenario(scenarioSpec{n: n, b: 1024, seed: uint64(seed + 1)})
			if err != nil {
				return trial{}, err
			}
			out, err := s.RunCCDS()
			if err != nil {
				return trial{}, err
			}
			h := s.H()
			if !verify.CCDS(s.Net, h, out.Outputs, 0).OK() {
				return trial{}, nil
			}
			member := make([]bool, n)
			for v, o := range out.Outputs {
				member[v] = o == 1
			}
			src := 0
			flood, back, err := routing.Compare(h, member, src)
			if err != nil {
				return trial{}, err
			}
			return trial{
				ok:       true,
				floodTx:  float64(flood.Transmissions),
				backTx:   float64(back.Transmissions),
				floodLat: float64(flood.Latency),
				backLat:  float64(back.Latency),
				ccdsSize: float64(verify.CCDSSize(out.Outputs)),
			}, nil
		})
		if err != nil {
			return nil, err
		}
		var floodTx, backTx, floodLat, backLat, ccdsSize []float64
		for _, t := range outs {
			if !t.ok {
				continue
			}
			floodTx = append(floodTx, t.floodTx)
			backTx = append(backTx, t.backTx)
			floodLat = append(floodLat, t.floodLat)
			backLat = append(backLat, t.backLat)
			ccdsSize = append(ccdsSize, t.ccdsSize)
		}
		ft, bt := statsOf(floodTx).Mean, statsOf(backTx).Mean
		saving := 0.0
		if ft > 0 {
			saving = 1 - bt/ft
		}
		res.Table.AddRow(fmtInt(n), f(statsOf(ccdsSize).Mean), f(ft), f(bt),
			f(saving*100)+"%", f(statsOf(floodLat).Mean), f(statsOf(backLat).Mean))
		res.Metrics["tx_saving_"+fmtInt(n)] = saving
	}
	return res, nil
}

// Experiment is one reproduction experiment: its table id and the
// function that regenerates it.
type Experiment struct {
	ID  string
	Run func(Config) (*Result, error)
}

// Experiments lists every experiment in suite order, the order All runs
// them and cmd/experiments prints them.
var Experiments = []Experiment{
	{"E1", E1MISScaling},
	{"E2", E2MISDensity},
	{"E3", E3CCDSRounds},
	{"E4", E4TauCCDS},
	{"E5", E5LowerBound},
	{"E6", E6HittingGame},
	{"E7", E7DynamicCCDS},
	{"E8", E8AsyncMIS},
	{"E9", E9BannedListAblation},
	{"E10", E10Subroutines},
	{"E10b", E10DirectedDecay},
	{"E11", E11Backbone},
	{"E12", E12ReannounceAblation},
	{"E13", E13IncompleteDetectors},
	{"E14", E14RadioBroadcast},
	{"E15", E15TauSweep},
}

// All runs every experiment in order and returns their results.
func All(cfg Config) ([]*Result, error) {
	out := make([]*Result, 0, len(Experiments))
	for _, e := range Experiments {
		r, err := e.Run(cfg)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}
