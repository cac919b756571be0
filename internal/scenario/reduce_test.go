package scenario

import (
	"context"
	"encoding/json"
	"math/rand/v2"
	"reflect"
	"testing"

	"dualradio/internal/stats"
)

// legacyAggregate is the pre-streaming batch computation, kept verbatim as
// the reference the one reducer implementation is locked against.
func legacyAggregate(trials []TrialResult) Aggregate {
	agg := Aggregate{Trials: len(trials)}
	if len(trials) == 0 {
		return agg
	}
	var decided, latencies []float64
	var rounds, size float64
	valid := 0
	for _, t := range trials {
		rounds += float64(t.Rounds)
		size += float64(t.Size)
		if t.Valid {
			valid++
		}
		if t.DecidedRound > 0 {
			decided = append(decided, float64(t.DecidedRound))
		}
		if t.MeanLatency > 0 {
			latencies = append(latencies, t.MeanLatency)
		}
	}
	n := float64(len(trials))
	agg.ValidFraction = float64(valid) / n
	agg.MeanRounds = rounds / n
	agg.MeanSize = size / n
	if len(decided) > 0 {
		sum := stats.Summarize(decided)
		agg.MeanDecidedRound = sum.Mean
		agg.P90DecidedRound = sum.P90
	}
	if len(latencies) > 0 {
		agg.MeanLatency = stats.Mean(latencies)
	}
	return agg
}

func aggJSON(t *testing.T, a Aggregate) string {
	t.Helper()
	b, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestReducerMatchesLegacyAggregateProperty: on random trial sets of every
// size the streaming reducer's aggregate must serialize byte-identically
// to the legacy batch computation.
func TestReducerMatchesLegacyAggregateProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 1))
	for round := 0; round < 200; round++ {
		n := rng.IntN(300) // includes the empty set
		trials := make([]TrialResult, n)
		for i := range trials {
			trials[i] = TrialResult{
				Trial:        i,
				Seed:         uint64(i + 1),
				Rounds:       rng.IntN(100000),
				DecidedRound: rng.IntN(2000) - 500, // mix of <=0 and >0
				Size:         rng.IntN(500),
				Valid:        rng.IntN(3) > 0,
			}
			if rng.IntN(2) == 0 {
				trials[i].MeanLatency = rng.Float64() * 1000
			}
		}
		got := aggJSON(t, AggregateTrials(trials))
		want := aggJSON(t, legacyAggregate(trials))
		if got != want {
			t.Fatalf("round %d (n=%d): streaming %s != legacy %s", round, n, got, want)
		}
	}
}

// TestReducerPartialPrefixes: the reducer may be queried after any prefix
// (the live NDJSON aggregate stream does) and must match the legacy batch
// computation over exactly that prefix.
func TestReducerPartialPrefixes(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 9))
	trials := make([]TrialResult, 64)
	for i := range trials {
		trials[i] = TrialResult{
			Rounds:       rng.IntN(5000),
			DecidedRound: rng.IntN(300) - 100,
			Size:         rng.IntN(64),
			Valid:        rng.IntN(2) == 0,
			MeanLatency:  float64(rng.IntN(3)) * rng.Float64(),
		}
	}
	red := NewReducer()
	for i, tr := range trials {
		red.Add(tr)
		got := aggJSON(t, red.Aggregate())
		want := aggJSON(t, legacyAggregate(trials[:i+1]))
		if got != want {
			t.Fatalf("prefix %d: streaming %s != legacy %s", i+1, got, want)
		}
	}
}

// TestEveryPresetAggregateByteIdentical is the acceptance golden: for every
// shipped preset, the streaming reducer folded over the preset's real trial
// outcomes serializes byte-identically to the legacy batch computation.
func TestEveryPresetAggregateByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every preset's full trial set")
	}
	for _, p := range Presets() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			comp, err := Compile(p.Spec)
			if err != nil {
				t.Fatal(err)
			}
			trials := make([]TrialResult, comp.Trials())
			for i := range trials {
				if trials[i], err = comp.RunTrial(i); err != nil {
					t.Fatal(err)
				}
			}
			got := aggJSON(t, AggregateTrials(trials))
			want := aggJSON(t, legacyAggregate(trials))
			if got != want {
				t.Fatalf("streaming %s != legacy %s", got, want)
			}
			// And the full Run pipeline reports that same aggregate.
			res, err := comp.RunWithOptions(context.Background(), RunOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if run := aggJSON(t, res.Aggregate); run != want {
				t.Fatalf("Run aggregate %s != legacy %s", run, want)
			}
		})
	}
}

// TestTrialRetentionPolicies: the policy bounds Result.Trials without
// touching the aggregate, and the canonical hash separates policies while
// keeping the default's hash unchanged.
func TestTrialRetentionPolicies(t *testing.T) {
	base := Spec{
		Algorithm:       AlgoMIS,
		Network:         NetworkSpec{N: 24},
		Trials:          3,
		StopWhenDecided: true,
	}
	run := func(retention string) *Result {
		s := base
		s.TrialRetention = retention
		comp, err := Compile(s)
		if err != nil {
			t.Fatal(err)
		}
		res, err := comp.RunWithOptions(context.Background(), RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	all := run("")
	spelled := run(RetainAll)
	errsOnly := run(RetainErrors)
	none := run(RetainNone)

	if len(all.Trials) != 3 || all.TrialRetention != "" {
		t.Fatalf("default retention: %d trials, echo %q", len(all.Trials), all.TrialRetention)
	}
	if !reflect.DeepEqual(all, spelled) {
		t.Fatal("spelled-out \"all\" diverges from the default")
	}
	if all.SpecHash != spelled.SpecHash {
		t.Fatal("retention \"all\" changed the spec hash")
	}
	if none.TrialRetention != RetainNone || len(none.Trials) != 0 {
		t.Fatalf("retention none kept %d trials", len(none.Trials))
	}
	if errsOnly.TrialRetention != RetainErrors {
		t.Fatalf("retention echo %q", errsOnly.TrialRetention)
	}
	for _, tr := range errsOnly.Trials {
		if tr.Valid {
			t.Fatal("retention errors kept a valid trial")
		}
	}
	if none.SpecHash == all.SpecHash || errsOnly.SpecHash == all.SpecHash {
		t.Fatal("non-default retention must hash distinctly (it changes the Result)")
	}
	// The aggregate is retention-independent.
	if none.Aggregate != all.Aggregate || errsOnly.Aggregate != all.Aggregate {
		t.Fatal("retention changed the aggregate")
	}
	// Result JSON for the retention-none run omits the trials array.
	b, err := json.Marshal(none)
	if err != nil {
		t.Fatal(err)
	}
	if s := string(b); !json.Valid(b) || reflect.DeepEqual(s, "") {
		t.Fatal("bad result JSON")
	} else if containsTrials := jsonHasKey(t, b, "trials"); containsTrials {
		t.Fatalf("retention none still serializes trials: %s", s)
	}
}

func jsonHasKey(t *testing.T, b []byte, key string) bool {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	_, ok := m[key]
	return ok
}

// TestProgressStreamsFoldedPrefix: the Progress callback reports a strictly
// advancing fold whose final aggregate equals the result's, regardless of
// worker count.
func TestProgressStreamsFoldedPrefix(t *testing.T) {
	spec := Spec{
		Algorithm:       AlgoMIS,
		Network:         NetworkSpec{N: 24},
		Trials:          6,
		StopWhenDecided: true,
	}
	comp, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		lastFolded := 0
		var lastAgg Aggregate
		// OnProgress runs on the trial workers' goroutines: t.Errorf, not
		// t.Fatalf.
		progress := func(p Progress) {
			if p.Folded < lastFolded {
				t.Errorf("workers=%d: fold went backwards: %d after %d", workers, p.Folded, lastFolded)
			}
			if p.Aggregate.Trials != p.Folded {
				t.Errorf("workers=%d: aggregate covers %d trials, folded %d", workers, p.Aggregate.Trials, p.Folded)
			}
			lastFolded = p.Folded
			lastAgg = p.Aggregate
		}
		res, err := comp.RunWithOptions(context.Background(), RunOptions{Workers: workers, OnProgress: progress})
		if err != nil {
			t.Fatal(err)
		}
		if lastFolded != comp.Trials() {
			t.Fatalf("workers=%d: final fold %d, want %d", workers, lastFolded, comp.Trials())
		}
		if lastAgg != res.Aggregate {
			t.Fatalf("workers=%d: final streamed aggregate %+v != result %+v", workers, lastAgg, res.Aggregate)
		}
	}
}

// BenchmarkReducer folds a max-size trial set (the MaxTrials cap) through
// the streaming reducer, aggregate included.
func BenchmarkReducer(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	trials := make([]TrialResult, MaxTrials)
	for i := range trials {
		trials[i] = TrialResult{
			Trial:        i,
			Rounds:       rng.IntN(100000),
			DecidedRound: rng.IntN(2000) - 500,
			Size:         rng.IntN(500),
			Valid:        rng.IntN(3) > 0,
			MeanLatency:  float64(rng.IntN(2)) * rng.Float64(),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg := AggregateTrials(trials)
		if agg.Trials != MaxTrials {
			b.Fatal("bad fold")
		}
	}
}
