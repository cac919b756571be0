package scenario

import (
	"context"
	"reflect"
	"testing"

	"dualradio/internal/adversary"
	"dualradio/internal/expr"
	"dualradio/internal/harness"
	"dualradio/internal/verify"
)

// TestPresetReproducesExprE1 is the fidelity contract of the spec engine:
// the "mis-quick" preset must reproduce the n=64 slice of experiment E1's
// quick configuration byte-for-byte — same instances, same executions, same
// outputs — because both lower onto the identical harness construction with
// the identical seed derivation. If this test fails, a spec submitted to
// the service no longer means what the experiment suite measured.
func TestPresetReproducesExprE1(t *testing.T) {
	spec, ok := PresetByName("mis-quick")
	if !ok {
		t.Fatal("preset mis-quick missing")
	}
	comp, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Trials() != 3 {
		t.Fatalf("mis-quick has %d trials, want 3 (the quick seed count)", comp.Trials())
	}
	for trial := 0; trial < comp.Trials(); trial++ {
		// The expr-side construction, replicated verbatim: experiment E1
		// builds a scenario from the shared instance for (n=64, seed s+1),
		// attaches the collision-seeking adversary, stops when decided, and
		// consumes DecidedRound and the verified outputs.
		inst, err := harness.SharedInstance(harness.InstanceSpec{N: 64, Seed: uint64(trial + 1)})
		if err != nil {
			t.Fatal(err)
		}
		want := &harness.Scenario{
			Net:             inst.Net,
			Asg:             inst.Asg,
			Det:             inst.Det,
			Adv:             adversary.NewCollisionSeeking(inst.Net),
			Seed:            uint64(trial + 1),
			StopWhenDecided: true,
			Shared:          inst,
		}
		wantOut, err := want.RunMIS()
		if err != nil {
			t.Fatal(err)
		}

		// The compiled scenario must share the identical cached instance...
		got, err := comp.Scenario(trial)
		if err != nil {
			t.Fatal(err)
		}
		if got.Net != inst.Net || got.Asg != inst.Asg || got.Det != inst.Det {
			t.Fatalf("trial %d: compiled scenario does not share the cached instance", trial)
		}
		// ...and replay the identical execution.
		gotOut, err := got.RunMIS()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotOut.Outputs, wantOut.Outputs) {
			t.Fatalf("trial %d: outputs diverge from the expr construction", trial)
		}
		if gotOut.DecidedRound != wantOut.DecidedRound || gotOut.Rounds != wantOut.Rounds {
			t.Fatalf("trial %d: rounds diverge: got (%d, %d), want (%d, %d)", trial,
				gotOut.Rounds, gotOut.DecidedRound, wantOut.Rounds, wantOut.DecidedRound)
		}

		// The reduced TrialResult reports the same quantities E1 does.
		tr, err := comp.RunTrial(trial)
		if err != nil {
			t.Fatal(err)
		}
		if tr.DecidedRound != wantOut.DecidedRound {
			t.Fatalf("trial %d: TrialResult.DecidedRound = %d, want %d",
				trial, tr.DecidedRound, wantOut.DecidedRound)
		}
		if wantValid := verify.MIS(want.Net, want.H(), wantOut.Outputs).OK(); tr.Valid != wantValid {
			t.Fatalf("trial %d: TrialResult.Valid = %v, want %v", trial, tr.Valid, wantValid)
		}
	}
}

// TestPresetAggregateMatchesExprMetrics closes the loop through the real
// experiment code: E1's published valid_64 metric and the preset run's
// aggregate valid fraction are computed from the same executions, so they
// must agree exactly. The run is repeated through the parallel path to pin
// schedule-independence.
func TestPresetAggregateMatchesExprMetrics(t *testing.T) {
	e1, err := expr.E1MISScaling(expr.QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	wantValid, ok := e1.Metrics["valid_64"]
	if !ok {
		t.Fatal("E1 metrics lack valid_64")
	}
	spec, _ := PresetByName("mis-quick")
	comp, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := comp.RunWithOptions(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Aggregate.ValidFraction != wantValid {
		t.Fatalf("preset valid fraction %v, expr E1 valid_64 %v",
			seq.Aggregate.ValidFraction, wantValid)
	}
	par, err := comp.RunWithOptions(context.Background(), RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("parallel run diverges from sequential run")
	}
}
