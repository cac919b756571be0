package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"dualradio/internal/core"
	"dualradio/internal/harness"
	"dualradio/internal/scenario"
	"dualradio/internal/verify"
)

// trialsLeap runs a busy and a quiet spec on the leap engine per op,
// in-process, each with a fresh seed.
type trialsLeap struct {
	seed uint64
	// layered runs untraced ops through runLayers with a nil tracer too, so
	// a traced run's two kinds of op differ only in tracing.
	layered bool
}

// leapRoles names the pair's members; per-layer metrics carry the role.
var leapRoles = [2]string{"busy", "quiet"}

// leapTrials is the trial count of each spec of the pair. One trial's time
// depends on its seed; several per op make op latency a sum of independent
// parts, so its distribution is unimodal and its median steady.
const leapTrials = 4

// leapPair is op input for one seed: a busy spec (full-schedule MIS,
// n=256), where most rounds carry broadcasts, and a quiet one (async-start
// MIS with a 4000-round wake window), where the leap engine can jump.
func leapPair(seed uint64) [2]scenario.Spec {
	return [2]scenario.Spec{{
		Name:      "busy",
		Algorithm: scenario.AlgoMIS,
		Network:   scenario.NetworkSpec{N: 256},
		Trials:    leapTrials,
		Seed:      seed,
		Engine:    scenario.EngineLeap,
	}, {
		Name:      "quiet",
		Algorithm: scenario.AlgoAsyncMIS,
		Network:   scenario.NetworkSpec{N: 128, GrayProb: -1},
		Adversary: scenario.AdversarySpec{Kind: scenario.AdvNone},
		Wake:      &scenario.WakeSpec{MaxDelay: 4000},
		Trials:    leapTrials,
		Seed:      seed,
		Engine:    scenario.EngineLeap,
	}}
}

func startTrialsLeap(e env) (workload, error) {
	w := &trialsLeap{seed: e.seed, layered: e.traced}
	// Warm up, and check once per set-up that the traced decomposition of a
	// run produces exactly the Result RunWithOptions does.
	for j := 0; j < 2; j++ {
		plain, err := w.run(e.warmIndex(j), nil, false)
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		traced, err := w.run(e.warmIndex(j), newTracer(), true)
		if err != nil {
			return nil, fmt.Errorf("warm-up traced: %w", err)
		}
		if !bytes.Equal(plain, traced) {
			return nil, fmt.Errorf("traced run differs from RunWithOptions:\n%s\n%s", plain, traced)
		}
	}
	return w, nil
}

func (w *trialsLeap) close() {}

func (w *trialsLeap) op(i int, tr *tracer) ([]byte, error) {
	return w.run(i, tr, w.layered || tr != nil)
}

// run compiles and runs the pair, returning both Results as JSON. Unless
// layered, it calls Compiled.RunWithOptions; layered, it makes the same
// calls into each layer itself so each can be timed.
func (w *trialsLeap) run(i int, tr *tracer, layered bool) ([]byte, error) {
	var out []byte
	for r, spec := range leapPair(opSeed(w.seed, i)) {
		comp, err := scenario.Compile(spec)
		if err != nil {
			return nil, err
		}
		var res *scenario.Result
		if layered {
			res, err = runLayers(comp, leapRoles[r], tr)
		} else {
			res, err = comp.RunWithOptions(context.Background(), scenario.RunOptions{Workers: 1})
		}
		if err != nil {
			return nil, err
		}
		if res.Aggregate.Trials != comp.Trials() || len(res.Trials) != comp.Trials() {
			return nil, fmt.Errorf("%s: %d of %d trials reported", spec.Name, len(res.Trials), comp.Trials())
		}
		data, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		out = append(append(out, data...), '\n')
	}
	return out, nil
}

// wakeStream is the scenario layer's PCG stream for async wake rounds; the
// set-up equivalence check catches any drift from it.
const wakeStream = 0x3A3E

// runLayers is Compiled.RunWithOptions for the MIS and async-MIS specs the
// pair uses, one trial at a time, with a span around each layer's call:
// instance lookup, engine run, verification and reduction. A nil tracer
// times nothing.
func runLayers(comp *scenario.Compiled, role string, tr *tracer) (*scenario.Result, error) {
	sp := comp.Spec()
	red := scenario.NewReducer()
	res := &scenario.Result{SpecHash: comp.Hash(), Algorithm: sp.Algorithm, N: sp.Network.N}
	for trial := 0; trial < comp.Trials(); trial++ {
		seed := comp.TrialSeed(trial)
		tr.begin("harness.instance_ms")
		_, err := harness.SharedInstance(harness.InstanceSpec{
			N:            sp.Network.N,
			TargetDegree: sp.Network.TargetDegree,
			GrayProb:     sp.Network.GrayProb,
			Tau:          sp.Network.Tau,
			Seed:         seed,
		})
		tr.end()
		if err != nil {
			return nil, err
		}
		s, err := comp.Scenario(trial)
		if err != nil {
			return nil, err
		}
		t := scenario.TrialResult{Trial: trial, Seed: seed}
		var out *harness.Outcome
		var latency []int
		tr.begin("sim.engine_ms." + role)
		switch sp.Algorithm {
		case scenario.AlgoMIS:
			out, err = s.RunMISFiltered(core.FilterDetector)
		case scenario.AlgoAsyncMIS:
			wake := make([]int, s.Net.N())
			wrng := rand.New(rand.NewPCG(seed, wakeStream))
			for v := range wake {
				wake[v] = wrng.IntN(sp.Wake.MaxDelay)
			}
			var ao *harness.AsyncOutcome
			if ao, err = s.RunAsyncMIS(wake, core.FilterNone); err == nil {
				out, latency = &ao.Outcome, ao.Latency
			}
		default:
			err = fmt.Errorf("no layered run for algorithm %q", sp.Algorithm)
		}
		tr.end()
		if err != nil {
			return nil, err
		}
		t.Rounds, t.DecidedRound = out.Rounds, out.DecidedRound
		for _, in := range out.InMIS {
			if in {
				t.Size++
			}
		}
		tr.begin("verify.ms")
		if sp.Algorithm == scenario.AlgoMIS {
			t.Valid = verify.MIS(s.Net, s.H(), out.Outputs).OK()
		} else {
			t.Valid = verify.MIS(s.Net, s.Net.G(), out.Outputs).OK()
		}
		tr.end()
		if latency != nil {
			var sum float64
			cnt := 0
			for _, l := range latency {
				if l >= 0 {
					sum += float64(l)
					cnt++
				}
			}
			if cnt > 0 {
				t.MeanLatency = sum / float64(cnt)
			}
		}
		tr.begin("scenario.reduce_us")
		red.Add(t)
		tr.end()
		res.Trials = append(res.Trials, t)

		st := out.Stats
		tr.observe("sim.phase_rounds."+role, float64(st.Rounds))
		tr.count("sim.rounds."+role, float64(st.Rounds))
		tr.count("sim.broadcasts."+role, float64(st.Broadcasts))
		tr.count("sim.collisions."+role, float64(st.Collisions))
		tr.count("sim.gray_activations."+role, float64(st.GrayActivations))
		tr.count("verify.trials", 1)
		if t.Valid {
			tr.count("verify.valid", 1)
		}
	}
	res.Aggregate = red.Aggregate()
	return res, nil
}
