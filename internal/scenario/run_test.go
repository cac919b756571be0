package scenario

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

func compileQuick(t *testing.T, trials int) *Compiled {
	t.Helper()
	comp, err := Compile(Spec{
		Algorithm:       AlgoMIS,
		Network:         NetworkSpec{N: 32},
		Trials:          trials,
		StopWhenDecided: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return comp
}

// A panicking trial must become that trial's error, not a process crash.
func TestRunRecoversTrialPanic(t *testing.T) {
	comp := compileQuick(t, 4)
	_, err := comp.RunWithOptions(context.Background(), RunOptions{
		Workers: 2,
		Fault: func(trial, attempt int) error {
			if trial == 2 {
				panic("poisoned trial")
			}
			return nil
		},
	})
	if err == nil {
		t.Fatal("panicking trial did not fail the run")
	}
	if !strings.Contains(err.Error(), "trial 2 panicked") {
		t.Fatalf("panic error lost its trial: %v", err)
	}
	if IsTransient(err) {
		t.Fatalf("non-error panic classified transient: %v", err)
	}
}

// An error-typed panic value is wrapped with %w, so transient marking
// survives the recover boundary and the retry loop can see it.
func TestRunPanicPreservesTransientMarking(t *testing.T) {
	comp := compileQuick(t, 1)
	_, err := comp.RunWithOptions(context.Background(), RunOptions{
		Fault: func(trial, attempt int) error {
			panic(MarkTransient(errors.New("flaky subsystem")))
		},
	})
	if err == nil {
		t.Fatal("panicking trial did not fail the run")
	}
	if !IsTransient(err) {
		t.Fatalf("transient panic value lost its marking: %v", err)
	}
}

// The fault hook sees the configured attempt, so attempt-gated faults can
// clear on retry.
func TestRunThreadsAttemptToFaultHook(t *testing.T) {
	comp := compileQuick(t, 2)
	inject := func(trial, attempt int) error {
		if attempt == 0 {
			return MarkTransient(errors.New("first attempt only"))
		}
		return nil
	}
	if _, err := comp.RunWithOptions(context.Background(), RunOptions{Fault: inject}); !IsTransient(err) {
		t.Fatalf("attempt 0: want transient injected error, got %v", err)
	}
	res, err := comp.RunWithOptions(context.Background(), RunOptions{Attempt: 1, Fault: inject})
	if err != nil {
		t.Fatalf("attempt 1: %v", err)
	}
	if res.Aggregate.Trials != 2 {
		t.Fatalf("attempt 1 aggregated %d trials, want 2", res.Aggregate.Trials)
	}
}

// With several workers the reported error is the lowest failed trial's,
// not the first to fail in time: trial 4 fails at once while trial 3
// sleeps before failing, and the run must still name trial 3 — the error a
// sequential loop surfaces first.
func TestRunReportsLowestFailedTrial(t *testing.T) {
	comp := compileQuick(t, 8)
	_, err := comp.RunWithOptions(context.Background(), RunOptions{
		Workers: 4,
		Fault: func(trial, attempt int) error {
			switch trial {
			case 3:
				time.Sleep(50 * time.Millisecond)
			case 4:
			default:
				return nil
			}
			return fmt.Errorf("injected fault at trial %d", trial)
		},
	})
	if err == nil || !strings.Contains(err.Error(), "trial 3") {
		t.Fatalf("run error %v, want trial 3's fault", err)
	}
}

func TestMarkTransient(t *testing.T) {
	if MarkTransient(nil) != nil {
		t.Fatal("MarkTransient(nil) != nil")
	}
	base := errors.New("boom")
	marked := MarkTransient(base)
	if !IsTransient(marked) {
		t.Fatal("marked error not transient")
	}
	if !errors.Is(marked, base) {
		t.Fatal("marking broke the error chain")
	}
	if IsTransient(base) {
		t.Fatal("unmarked error classified transient")
	}
	if !IsTransient(errors.Join(errors.New("outer"), marked)) {
		t.Fatal("transient marking lost through a join")
	}
}

// A NaN smuggled into a spec must surface as a validation or hashing
// error — historically Hash() panicked on the unencodable canonical form.
func TestNonFiniteSpecFailsCleanly(t *testing.T) {
	s := Spec{Algorithm: AlgoMIS, Network: NetworkSpec{N: 32, GrayProb: math.NaN()}}
	if _, err := Compile(s); err == nil {
		t.Fatal("Compile accepted a NaN gray_prob")
	}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("Validate on NaN spec: %v", err)
	}
	// CanonicalHash on a never-validated NaN spec returns an error rather
	// than panicking.
	if _, err := s.CanonicalHash(); err == nil {
		t.Fatal("CanonicalHash marshalled a NaN spec")
	}
	inf := Spec{Algorithm: AlgoMIS, Network: NetworkSpec{N: 32}, Adversary: AdversarySpec{Kind: AdvUniform, P: math.Inf(1)}}
	if err := inf.Validate(); err == nil {
		t.Fatal("Validate accepted an infinite adversary p")
	}
}

func TestValidateRejectsNegativeTimeout(t *testing.T) {
	s := Spec{Algorithm: AlgoMIS, Network: NetworkSpec{N: 32}, TimeoutMS: -1}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "timeout_ms") {
		t.Fatalf("Validate on negative timeout_ms: %v", err)
	}
}
