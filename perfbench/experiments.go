package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"dualradio/internal/expr"
)

// quickDigest is the sha256 of `go run ./cmd/experiments -quick`'s output:
// every table, in suite order, as Table.String() plus a newline.
const quickDigest = "09d6d371ff128296643175daf63061ff881f1b529ff030bc0443132bf6c79c94"

// suite is cmd/experiments' order.
var suite = []struct {
	id  string
	run func(expr.Config) (*expr.Result, error)
}{
	{"E1", expr.E1MISScaling},
	{"E2", expr.E2MISDensity},
	{"E3", expr.E3CCDSRounds},
	{"E4", expr.E4TauCCDS},
	{"E5", expr.E5LowerBound},
	{"E6", expr.E6HittingGame},
	{"E7", expr.E7DynamicCCDS},
	{"E8", expr.E8AsyncMIS},
	{"E9", expr.E9BannedListAblation},
	{"E10", expr.E10Subroutines},
	{"E10b", expr.E10DirectedDecay},
	{"E11", expr.E11Backbone},
	{"E12", expr.E12ReannounceAblation},
	{"E13", expr.E13IncompleteDetectors},
	{"E14", expr.E14RadioBroadcast},
	{"E15", expr.E15TauSweep},
}

// experimentsQuick runs the whole -quick suite in-process per op. The
// suite's inputs are fixed, so the workload seed changes nothing.
type experimentsQuick struct{}

func startExperiments(env) (workload, error) {
	w := experimentsQuick{}
	if _, err := w.op(0, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return w, nil
}

func (experimentsQuick) close() {}

// op runs every experiment and checks the tables against quickDigest.
func (experimentsQuick) op(_ int, tr *tracer) ([]byte, error) {
	h := sha256.New()
	cfg := expr.QuickConfig()
	for _, e := range suite {
		tr.begin("expr." + e.id + "_ms")
		res, err := e.run(cfg)
		tr.end()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.id, err)
		}
		h.Write([]byte(res.Table.String() + "\n"))
	}
	sum := hex.EncodeToString(h.Sum(nil))
	if sum != quickDigest {
		return nil, fmt.Errorf("tables hash to %s, want %s", sum, quickDigest)
	}
	return []byte(sum), nil
}
