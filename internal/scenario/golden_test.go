package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
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

// presetResultGolden pins the sha256 of every preset's Result JSON under
// the exact engine. The exact engine's executions are bit-identical by
// contract, so any drift here — an extra or missing coin draw, a reordered
// delivery, a changed reduction — is a behavior change, not noise.
var presetResultGolden = map[string]string{
	"mis-quick":          "bd666001431ce1ae721f55e6bc666a081b40f83af9f3b9daead93c5ead12768d",
	"mis-midsize":        "c6160bc56cf82ab45209ec06185cfc0cf221524a63f24f2f53da01375d3ceb0c",
	"mis-classic":        "d4e5789a084d876f279e18002d2337c2f99f90018bd3a7d5c0eb8e8a7901bba2",
	"mis-full-adversary": "20251a196786853004ba6d554005f394284a84bc27df1ac13bd2b5e1790b2023",
	"ccds-quick":         "67124ff2fd3602226f1c41162a7e4bb4309e7891ff8d4e1e554bff6ec7485c20",
	"ccds-wideband":      "e4d302ac8a7750e38e2534589d12b8288ec43553bb101d6d6a29b50109f571e7",
	"baseline-ccds":      "a4d39d008b4625eefb7ead8a1151be94380378dc463fdc9ce3ca0d6d6bd26c1b",
	"tau-ccds":           "b78ef388b73185865cba637390005ecae125f02105dff5e5789e6aae5dcbae44",
	"async-mis":          "354d5ca310445a206458ba5ebcaa2191a3c5a98fdebedb43f1ae8414af261ddd",
	"lossy-uniform":      "476c4b5a364b737ddd899d933c27b094a045048b6ac37eb86a994e5f4c11b7aa",
	"bursty-links":       "cd808f9e688021c1b0f4df1d0b452ecc7c3504e3cd528e10467b200769a3bfef",
	"dynamic-ccds":       "b28f5aacc39bebf166bc9d7ce56916d04c386261956914c23cbe6db2ecc56e75",
}

// presetLeapResultGolden pins the sha256 of every preset's Result JSON
// under the "leap" engine label, as the retired leap engine produced them.
// A leap Result differs from the exact one only in its spec hash, so the
// label running the one engine must reproduce these bytes: a stored leap
// hash still maps to the Result it always had. bursty-links has no entry,
// because the label is rejected under the bursty adversary.
var presetLeapResultGolden = map[string]string{
	"mis-quick":          "0d224e78cc8077dbddefb7dcedcd2b674f58bab0eb71db5f93103ab4f02d531d",
	"mis-midsize":        "790742343c292c5b07fedad98811902402bc9a4f15b75552befb0104ff2ab167",
	"mis-classic":        "38ca2671b641f3426bc2522f8fb6d7c56d015c35444f5d5433ace91cb7d33350",
	"mis-full-adversary": "14975885cb1b5bc6d5f5bbf86a344e0f7c903f587989fbc7cf685fb4ee3defe8",
	"ccds-quick":         "be40c37d0bf15eae412a1f0d8b4b67adc7178d2ae2ad213c54a9e5f875789868",
	"ccds-wideband":      "7090fbc9822331902264fb38e6b51fb0cdec1071074c54d1076278871c07cce1",
	"baseline-ccds":      "3e0e8c1d1e739cef8ce4e4c1674f43ce11553a401a61e852b1b73295017dc43b",
	"tau-ccds":           "d750a1bb217d90e1b9cf6e39f21a68ddcb164e3fe981e51d310497cfe17e1b98",
	"async-mis":          "dcac086824f138a204609a0d44b206fa1001d33fd9652371641e5ba1691f2328",
	"lossy-uniform":      "abdd677e3a966c7ca2d597ca134184740efba80331341b3a51f447a0ce1f77de",
	"dynamic-ccds":       "0860c899212015257e78cdd999a8f0f108a83a4d36b06e1797f5f907c55b97e6",
}

// TestPresetResultsGolden runs every preset under engine "exact" and under
// the "leap" label at 1 and 3 trial workers: the two Results must be
// byte-identical, and on amd64 the sha256 of their JSON must equal the
// pinned value. It is the service path's byte contract over what a Result
// keeps: a change to a protocol, the engine or the adversary that moves a
// Result fails here even when every structural check still passes. It does
// not pin whole executions: a ccds, baseline-ccds or tau-ccds trial keeps
// only the size of its dominating set (the MIS, or the τ algorithm's
// dominators), the schedule length, the decided round and a validity bit,
// so a change that moves only connectors can pass here
// (harness.TestCCDSFamilyMatchesReference compares whole executions).
// Other architectures may fuse multiply-adds, which can move a generated
// edge or a reduced float, so the hashes are pinned where they were
// recorded (as the experiments digest is).
func TestPresetResultsGolden(t *testing.T) {
	presets := Presets()
	if len(presets) != len(presetResultGolden) {
		t.Fatalf("%d presets but %d pinned hashes", len(presets), len(presetResultGolden))
	}
	for _, p := range presets {
		for _, engine := range []string{EngineExact, EngineLeap} {
			golden := presetResultGolden
			if engine == EngineLeap {
				golden = presetLeapResultGolden
			}
			spec := p.Spec
			spec.Engine = engine
			comp, err := Compile(spec)
			want, pinned := golden[p.Name]
			if !pinned {
				if err == nil {
					t.Errorf("%s under engine %q compiled, but it has no pinned Result", p.Name, engine)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s engine %q: %v", p.Name, engine, err)
			}
			var hashes []string
			for _, workers := range []int{1, 3} {
				res, err := comp.RunWithOptions(context.Background(), RunOptions{Workers: workers})
				if err != nil {
					t.Fatalf("%s engine %q workers=%d: %v", p.Name, engine, workers, err)
				}
				raw, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				hashes = append(hashes, fmt.Sprintf("%x", sha256.Sum256(raw)))
			}
			if hashes[0] != hashes[1] {
				t.Errorf("%s engine %q: Result sha256 %s at 1 worker but %s at 3", p.Name, engine, hashes[0], hashes[1])
			}
			if runtime.GOARCH == "amd64" && hashes[0] != want {
				t.Errorf("%s engine %q: Result sha256 %s, want %s", p.Name, engine, hashes[0], want)
			}
		}
	}
}
