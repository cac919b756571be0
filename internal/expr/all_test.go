package expr_test

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"dualradio/internal/expr"
	"dualradio/internal/harness"
)

// quickDigest is the sha256 of `go run ./cmd/experiments -quick`'s output:
// every table, in suite order, as Table.String() plus a newline. It is the
// determinism oracle for the exact engine: any change to an execution moves
// some table and hence the digest.
const quickDigest = "09d6d371ff128296643175daf63061ff881f1b529ff030bc0443132bf6c79c94"

// TestAllExperimentsRun executes the complete reproduction suite at quick
// scale: every experiment must complete without error and carry a table and
// at least one metric, and on amd64 the tables must hash to quickDigest.
// This is the end-to-end guard behind cmd/experiments.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	results, err := expr.All(expr.QuickConfig())
	if err != nil {
		t.Fatalf("suite: %v", err)
	}
	if len(results) < 15 {
		t.Fatalf("only %d experiments ran", len(results))
	}
	seen := map[string]bool{}
	h := sha256.New()
	for _, r := range results {
		if seen[r.ID] {
			t.Errorf("duplicate experiment id %s", r.ID)
		}
		seen[r.ID] = true
		if r.Table == nil || len(r.Table.Rows) == 0 {
			t.Errorf("%s: empty table", r.ID)
		}
		if len(r.Metrics) == 0 {
			t.Errorf("%s: no metrics", r.ID)
		}
		if r.Claim == "" {
			t.Errorf("%s: missing claim", r.ID)
		}
		if r.Table != nil {
			h.Write([]byte(r.Table.String() + "\n"))
		}
	}
	// Other architectures may fuse multiply-adds, which can move a
	// formatted float; the digest is pinned where it was recorded.
	if runtime.GOARCH != "amd64" {
		return
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != quickDigest {
		t.Errorf("experiments -quick digest = %s, want %s", got, quickDigest)
	}
}

// TestQuickSuiteReusesInstances checks that the quick suite's instance
// working set fits the instance memo's byte budget: once one pass has run,
// a second pass in the same process builds no instance.
func TestQuickSuiteReusesInstances(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	if _, err := expr.All(expr.QuickConfig()); err != nil {
		t.Fatalf("first pass: %v", err)
	}
	before := harness.InstanceCache()
	if _, err := expr.All(expr.QuickConfig()); err != nil {
		t.Fatalf("second pass: %v", err)
	}
	after := harness.InstanceCache()
	if after.Builds != before.Builds {
		t.Fatalf("second pass built %d instances (%d resident, %d of %d bytes)",
			after.Builds-before.Builds, after.Entries, after.Bytes, harness.InstanceCacheBudget)
	}
	t.Logf("%d instances resident, %d bytes", after.Entries, after.Bytes)
}

func TestConfigs(t *testing.T) {
	def := expr.DefaultConfig()
	if def.Quick || def.Seeds < 3 {
		t.Errorf("default config = %+v", def)
	}
	q := expr.QuickConfig()
	if !q.Quick || q.Seeds < 1 {
		t.Errorf("quick config = %+v", q)
	}
}
