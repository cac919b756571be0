package scenario

import (
	"strings"
	"testing"
)

// TestEngineCanonicalDefault: "exact" is the canonical default — spelled
// out or omitted, the spec hashes identically to one that predates the
// engine field, so no stored result is orphaned by the field's existence.
// "leap" is a label that keeps its own hash, and is rejected under the
// bursty adversary, where the retired leap engine's Results were not the
// exact engine's.
func TestEngineCanonicalDefault(t *testing.T) {
	base := Spec{Algorithm: AlgoMIS, Network: NetworkSpec{N: 64}}
	spelled := base
	spelled.Engine = EngineExact
	hBase := mustHash(t, base)
	if got := mustHash(t, spelled); got != hBase {
		t.Errorf("engine:\"exact\" hashes differently from the defaulted field:\n got %s\nwant %s", got, hBase)
	}
	if c := spelled.Canonical(); c.Engine != "" {
		t.Errorf("canonical spelling of exact engine is %q, want empty", c.Engine)
	}
	leap := base
	leap.Engine = EngineLeap
	if got := mustHash(t, leap); got == hBase {
		t.Error("leap label hashes identically to exact; stored leap Results would change hash")
	}
	if err := leap.Validate(); err != nil {
		t.Errorf("leap label rejected: %v", err)
	}
	bursty := leap
	bursty.Adversary = AdversarySpec{Kind: AdvBursty, MeanUp: 4, MeanDown: 4}
	if err := bursty.Validate(); err == nil || !strings.Contains(err.Error(), `engine "leap"`) {
		t.Errorf("leap under bursty: got %v, want an error naming the engine", err)
	}
	if _, err := Compile(bursty); err == nil {
		t.Error("leap under bursty compiled")
	}
	bad := base
	bad.Engine = "warp"
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "engine") {
		t.Errorf("unknown engine validated: %v", err)
	}
}
