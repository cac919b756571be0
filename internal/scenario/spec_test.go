package scenario

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"dualradio/internal/core"
)

func TestSpecJSONRoundTrip(t *testing.T) {
	for _, p := range Presets() {
		data, err := json.Marshal(p.Spec)
		if err != nil {
			t.Fatalf("%s: marshal: %v", p.Name, err)
		}
		back, err := ParseSpec(data)
		if err != nil {
			t.Fatalf("%s: parse: %v", p.Name, err)
		}
		if mustHash(t, back) != mustHash(t, p.Spec) {
			t.Errorf("%s: hash changed across a JSON round trip", p.Name)
		}
		c1, err := Compile(p.Spec)
		if err != nil {
			t.Fatalf("%s: compile: %v", p.Name, err)
		}
		c2, err := Compile(back)
		if err != nil {
			t.Fatalf("%s: compile round-tripped: %v", p.Name, err)
		}
		if c1.Hash() != c2.Hash() {
			t.Errorf("%s: compiled hash changed across a JSON round trip", p.Name)
		}
		// Canonicalization is idempotent: compiling the canonical spec
		// reproduces it exactly.
		c3, err := Compile(c1.Spec())
		if err != nil {
			t.Fatalf("%s: recompile canonical: %v", p.Name, err)
		}
		if j1, j3 := mustJSON(t, c1.Spec()), mustJSON(t, c3.Spec()); j1 != j3 {
			t.Errorf("%s: canonical form not idempotent:\n%s\n%s", p.Name, j1, j3)
		}
	}
}

func mustHash(t *testing.T, s Spec) string {
	t.Helper()
	h, err := s.CanonicalHash()
	if err != nil {
		t.Fatalf("canonical hash: %v", err)
	}
	return h
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

func TestHashIgnoresFieldOrderNameAndSpelledOutDefaults(t *testing.T) {
	base, err := ParseSpec([]byte(`{"algorithm":"mis","network":{"n":64}}`))
	if err != nil {
		t.Fatal(err)
	}
	variants := []string{
		// Reordered fields.
		`{"network":{"n":64},"algorithm":"mis"}`,
		// Cosmetic name.
		`{"algorithm":"mis","network":{"n":64},"name":"my workload"}`,
		// Defaults spelled out.
		`{"algorithm":"mis","network":{"n":64},"trials":1,"seed":1,
		  "adversary":{"kind":"collision"},"version":1}`,
		// Irrelevant adversary parameters are cleared by canonicalization.
		`{"algorithm":"mis","network":{"n":64},"adversary":{"kind":"collision","p":0.5}}`,
	}
	for _, v := range variants {
		s, err := ParseSpec([]byte(v))
		if err != nil {
			t.Fatalf("parse %s: %v", v, err)
		}
		if mustHash(t, s) != mustHash(t, base) {
			t.Errorf("hash of %s differs from the base spec", v)
		}
	}
	// Params equal to the defaults hash like no params at all.
	p := core.DefaultParams()
	withDefaults := base
	withDefaults.Params = &p
	if mustHash(t, withDefaults) != mustHash(t, base) {
		t.Errorf("explicit default params changed the hash")
	}
	// timeout_ms is execution policy, not workload identity: a deadline must
	// not split the result cache.
	withDeadline := base
	withDeadline.TimeoutMS = 5000
	if mustHash(t, withDeadline) != mustHash(t, base) {
		t.Errorf("timeout_ms changed the canonical hash")
	}
}

func TestHashSeparatesWorkloads(t *testing.T) {
	specs := []Spec{
		{Algorithm: AlgoMIS, Network: NetworkSpec{N: 64}},
		{Algorithm: AlgoMIS, Network: NetworkSpec{N: 128}},
		{Algorithm: AlgoMISClassic, Network: NetworkSpec{N: 64}},
		{Algorithm: AlgoMIS, Network: NetworkSpec{N: 64}, Trials: 2},
		{Algorithm: AlgoMIS, Network: NetworkSpec{N: 64}, Seed: 7},
		{Algorithm: AlgoMIS, Network: NetworkSpec{N: 64}, StopWhenDecided: true},
		{Algorithm: AlgoMIS, Network: NetworkSpec{N: 64}, Adversary: AdversarySpec{Kind: AdvFull}},
		{Algorithm: AlgoCCDS, Network: NetworkSpec{N: 64}},
		{Algorithm: AlgoCCDS, Network: NetworkSpec{N: 64}, B: 1024},
	}
	seen := map[string]int{}
	for i, s := range specs {
		h := mustHash(t, s)
		if j, dup := seen[h]; dup {
			t.Errorf("specs %d and %d hash identically", i, j)
		}
		seen[h] = i
	}
}

func TestHashGolden(t *testing.T) {
	// The canonical encoding is part of the cache-key contract: changing it
	// invalidates every stored result, so it must not change silently. If a
	// deliberate schema change lands, bump SpecVersion and update this hash.
	s := Spec{Algorithm: AlgoMIS, Network: NetworkSpec{N: 64}}
	// sha256 of the canonical form
	// {"version":1,"algorithm":"mis","network":{"n":64},
	//  "adversary":{"kind":"collision"},"trials":1,"seed":1}.
	const want = "85c80ff24c3911fe8a8b514086277940a3b32645d7027c6f2d1e250793748ead"
	if got := mustHash(t, s); got != want {
		t.Fatalf("canonical hash changed:\n got %s\nwant %s\ncanonical form: %s",
			got, want, mustJSON(t, s.Canonical()))
	}
}

// TestPresetHashesGolden pins the canonical hash of every registry preset.
// These hashes key the persistent result store: an accidental
// canonicalization or encoding change would silently split the store
// (every stored result orphaned under its old hash, every spec
// re-simulated), so any diff here must be deliberate — bump SpecVersion,
// update the hashes, and accept the store invalidation knowingly.
func TestPresetHashesGolden(t *testing.T) {
	want := map[string]string{
		"mis-quick":          "84b779594d35741027f5b25700351bcbc0b12fc123dfccfa41f7189306b492d4",
		"mis-midsize":        "3b6e01f350f45c21a7b7089a3bf6171f93faef8139468b51be43776e7e421415",
		"mis-classic":        "e3e989ea1a878714b5e1fe941262b5f2417ff02891aca394db610b7dde90108b",
		"mis-full-adversary": "648f197cfbcb5d0a3d2384624cee1e2ab8ab5715376adfcca1f00174882817d8",
		"ccds-quick":         "86d128b274738656b6899fadc222c6927765d2da40e58540998c4b956f0398c6",
		"ccds-wideband":      "0ae1907e0b6a88b76dd9ddb0e50d9b99f1cd4751beb9304612858bf7325261b9",
		"baseline-ccds":      "c3ffeba0b0c69d1625527c24f067abe6ebf49356c8ec0f96e8e453088fe179a8",
		"tau-ccds":           "baddd9ebe8dc5064c114678f8d0c1b1c05d504b071b098fdc24aaae37214a939",
		"async-mis":          "8925bfc7b9baf3e3c3b21ba94d93a152f76d1491d4ae2fae2ef21198c3189fc3",
		"lossy-uniform":      "b71d8f436d13da91aabdb7b7b78ffd419d7c821ded1dd3125be8079bbdee5963",
		"bursty-links":       "a57e367dbf97740d943fd8adff85fa96fc08d8efe6d8b5026531f133b54fb197",
		"dynamic-ccds":       "5c0a54d754f7a30a8bb7a3b85ce97ee3e5e836ee3f09e50393b7dcc6910b03e9",
	}
	presets := Presets()
	if len(presets) != len(want) {
		t.Errorf("registry has %d presets, golden map has %d — add the new preset's hash", len(presets), len(want))
	}
	for _, p := range presets {
		w, ok := want[p.Name]
		if !ok {
			t.Errorf("preset %q has no golden hash; add %q", p.Name, mustHash(t, p.Spec))
			continue
		}
		if got := mustHash(t, p.Spec); got != w {
			t.Errorf("preset %q canonical hash changed:\n got %s\nwant %s\ncanonical form: %s",
				p.Name, got, w, mustJSON(t, p.Spec.Canonical()))
		}
	}
}

func TestValidateRejections(t *testing.T) {
	valid := func() Spec {
		return Spec{Algorithm: AlgoCCDS, Network: NetworkSpec{N: 64}, B: 512}
	}
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantSub string
	}{
		{"missing algorithm", func(s *Spec) { s.Algorithm = "" }, "missing algorithm"},
		{"unknown algorithm", func(s *Spec) { s.Algorithm = "steiner-tree" }, "unknown algorithm"},
		{"future version", func(s *Spec) { s.Version = 99 }, "unsupported spec version"},
		{"n too small", func(s *Spec) { s.Network.N = 1 }, "out of range"},
		{"n too large", func(s *Spec) { s.Network.N = MaxN + 1 }, "out of range"},
		{"negative degree", func(s *Spec) { s.Network.TargetDegree = -3 }, "target_degree"},
		{"gray_prob above 1", func(s *Spec) { s.Network.GrayProb = 1.5 }, "gray_prob"},
		{"negative tau", func(s *Spec) { s.Network.Tau = -1 }, "tau"},
		{"negative b", func(s *Spec) { s.B = -1 }, "message bound"},
		{"unknown adversary", func(s *Spec) { s.Adversary.Kind = "byzantine" }, "adversary"},
		{"uniform without p", func(s *Spec) { s.Adversary = AdversarySpec{Kind: AdvUniform} }, "uniform adversary"},
		{"uniform p above 1", func(s *Spec) { s.Adversary = AdversarySpec{Kind: AdvUniform, P: 1.5} }, "uniform adversary"},
		{"bursty negative mean", func(s *Spec) { s.Adversary = AdversarySpec{Kind: AdvBursty, MeanUp: -1} }, "bursty"},
		{"negative trials", func(s *Spec) { s.Trials = -1 }, "trials"},
		{"too many trials", func(s *Spec) { s.Trials = MaxTrials + 1 }, "trials"},
		{"negative max_rounds", func(s *Spec) { s.MaxRounds = -5 }, "max_rounds"},
		{"wake on ccds", func(s *Spec) { s.Wake = &WakeSpec{MaxDelay: 10} }, "wake"},
		{"dynamic on ccds", func(s *Spec) { s.Dynamic = &DynamicSpec{} }, "dynamic"},
		{"zero params", func(s *Spec) { s.Params = &core.Params{} }, "params"},
	}
	for _, tc := range cases {
		s := valid()
		tc.mutate(&s)
		_, err := Compile(s)
		if err == nil {
			t.Errorf("%s: Compile accepted an invalid spec", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
	}
	// The base spec must of course compile.
	if _, err := Compile(valid()); err != nil {
		t.Fatalf("base spec rejected: %v", err)
	}
	// A CCDS spec without b gets the 512 default rather than a rejection.
	s := valid()
	s.B = 0
	comp, err := Compile(s)
	if err != nil {
		t.Fatalf("b-less CCDS spec rejected: %v", err)
	}
	if comp.Spec().B != 512 {
		t.Fatalf("b defaulted to %d, want 512", comp.Spec().B)
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"algorithm":"mis","network":{"n":64},"trails":5}`)); err == nil {
		t.Fatal("ParseSpec accepted a misspelled field")
	}
}

func TestPresetsCompileAndAreUnique(t *testing.T) {
	names := map[string]bool{}
	hashes := map[string]string{}
	for _, p := range Presets() {
		if names[p.Name] {
			t.Errorf("duplicate preset name %q", p.Name)
		}
		names[p.Name] = true
		if p.Description == "" {
			t.Errorf("preset %q has no description", p.Name)
		}
		comp, err := Compile(p.Spec)
		if err != nil {
			t.Errorf("preset %q does not compile: %v", p.Name, err)
			continue
		}
		if prev, dup := hashes[comp.Hash()]; dup {
			t.Errorf("presets %q and %q describe the same workload", p.Name, prev)
		}
		hashes[comp.Hash()] = p.Name
	}
	if _, ok := PresetByName("mis-quick"); !ok {
		t.Fatal("PresetByName(mis-quick) not found")
	}
	if _, ok := PresetByName("nope"); ok {
		t.Fatal("PresetByName invented a preset")
	}
}

// TestAlgorithmCoverageSmoke runs one tiny trial of every algorithm kind so
// the whole compile-to-run path stays exercised. Kept at minimal scale; the
// golden test covers fidelity.
func TestAlgorithmCoverageSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke in -short mode")
	}
	specs := []Spec{
		{Algorithm: AlgoMIS, Network: NetworkSpec{N: 32}, StopWhenDecided: true},
		{Algorithm: AlgoMISClassic, Network: NetworkSpec{N: 32, GrayProb: -1}, Adversary: AdversarySpec{Kind: AdvNone}, StopWhenDecided: true},
		{Algorithm: AlgoCCDS, Network: NetworkSpec{N: 32}, B: 512},
		{Algorithm: AlgoBaselineCCDS, Network: NetworkSpec{N: 32}, B: 512},
		{Algorithm: AlgoTauCCDS, Network: NetworkSpec{N: 48, Tau: 1}, B: 1 << 15},
		{Algorithm: AlgoAsyncMIS, Network: NetworkSpec{N: 32, GrayProb: -1}, Adversary: AdversarySpec{Kind: AdvNone}, Wake: &WakeSpec{MaxDelay: 64}},
		{Algorithm: AlgoContinuousCCDS, Network: NetworkSpec{N: 32}, B: 512},
		{Algorithm: AlgoMIS, Network: NetworkSpec{N: 32}, Adversary: AdversarySpec{Kind: AdvUniform, P: 0.3}, StopWhenDecided: true},
		{Algorithm: AlgoMIS, Network: NetworkSpec{N: 32}, Adversary: AdversarySpec{Kind: AdvBursty, MeanUp: 4, MeanDown: 4}, StopWhenDecided: true},
	}
	for _, s := range specs {
		comp, err := Compile(s)
		if err != nil {
			t.Fatalf("%s: compile: %v", s.Algorithm, err)
		}
		res, err := comp.RunWithOptions(context.Background(), RunOptions{})
		if err != nil {
			t.Fatalf("%s: run: %v", s.Algorithm, err)
		}
		if len(res.Trials) != comp.Trials() {
			t.Fatalf("%s: %d trial results, want %d", s.Algorithm, len(res.Trials), comp.Trials())
		}
		if res.Trials[0].Rounds <= 0 {
			t.Errorf("%s: trial ran %d rounds", s.Algorithm, res.Trials[0].Rounds)
		}
	}
}
