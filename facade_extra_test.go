package dualradio_test

import (
	"reflect"
	"strings"
	"testing"

	"dualradio"
)

func TestFacadeTraceAndMap(t *testing.T) {
	net, err := dualradio.Generate(dualradio.NetworkOptions{Nodes: 64, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	res, err := dualradio.BuildMIS(net, dualradio.RunOptions{Seed: 21, CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.TraceSummary, "total broadcasts") {
		t.Errorf("trace summary missing:\n%s", res.TraceSummary)
	}
	m := dualradio.RenderMap(net, res, 40, 12)
	if !strings.Contains(m, "#") || !strings.Contains(m, "legend") {
		t.Errorf("map malformed:\n%s", m)
	}
	// Without the flag, no summary is collected.
	plain, err := dualradio.BuildMIS(net, dualradio.RunOptions{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if plain.TraceSummary != "" {
		t.Error("trace collected without the flag")
	}
	// The traced run simulates the whole schedule, the plain one stops at
	// its decided round; both report the same execution.
	if !reflect.DeepEqual(plain.Outputs, res.Outputs) || !reflect.DeepEqual(plain.InMIS, res.InMIS) ||
		plain.Rounds != res.Rounds || plain.DecidedRound != res.DecidedRound {
		t.Errorf("plain run (%d rounds, decided %d) differs from the traced one (%d rounds, decided %d)",
			plain.Rounds, plain.DecidedRound, res.Rounds, res.DecidedRound)
	}
}

func TestFacadeAdversaryKinds(t *testing.T) {
	net, err := dualradio.Generate(dualradio.NetworkOptions{Nodes: 64, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []dualradio.AdversaryKind{
		dualradio.AdversaryCollisionSeeking,
		dualradio.AdversaryNone,
		dualradio.AdversaryFull,
		dualradio.AdversaryUniform,
	} {
		res, err := dualradio.BuildMIS(net, dualradio.RunOptions{Seed: 22, Adversary: kind})
		if err != nil {
			t.Fatalf("adversary %d: %v", kind, err)
		}
		if err := res.Verify(); err != nil {
			t.Errorf("adversary %d: %v", kind, err)
		}
	}
}

func TestFacadeBaselineCCDS(t *testing.T) {
	net, err := dualradio.Generate(dualradio.NetworkOptions{Nodes: 64, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	res, err := dualradio.BuildBaselineCCDS(net, dualradio.RunOptions{Seed: 23, MessageBits: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Errorf("baseline verify: %v", err)
	}
}

func TestFacadeSchedulePredictors(t *testing.T) {
	ccds, err := dualradio.CCDSRounds(1024, 64, 4096)
	if err != nil {
		t.Fatal(err)
	}
	tau1, err := dualradio.TauCCDSRounds(1024, 64, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	base, err := dualradio.BaselineCCDSRounds(1024, 64, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if ccds <= 0 || tau1 <= ccds || base <= 0 {
		t.Errorf("predictors: ccds=%d tau1=%d base=%d", ccds, tau1, base)
	}
	if _, err := dualradio.CCDSRounds(1024, 64, 4); err == nil {
		t.Error("tiny b accepted by predictor")
	}
}

func TestFacadeGenerateRejectsBadOptions(t *testing.T) {
	if _, err := dualradio.Generate(dualradio.NetworkOptions{Nodes: 2}); err == nil {
		t.Error("n=2 accepted")
	}
	if _, err := dualradio.Generate(dualradio.NetworkOptions{Nodes: 64, GrayZone: 0.5}); err == nil {
		t.Error("d<1 accepted")
	}
}

func TestFacadeNetworkAccessors(t *testing.T) {
	net, err := dualradio.Generate(dualradio.NetworkOptions{Nodes: 64, Seed: 25, Tau: 2})
	if err != nil {
		t.Fatal(err)
	}
	if net.Tau() != 2 {
		t.Errorf("tau = %d", net.Tau())
	}
	if net.N() != 64 || net.Delta() <= 0 || net.UnreliableEdges() == 0 {
		t.Error("accessors inconsistent")
	}
	seen := map[int]bool{}
	for v := 0; v < net.N(); v++ {
		id := net.ProcessID(v)
		if id < 1 || id > 64 || seen[id] {
			t.Fatalf("bad process id %d at node %d", id, v)
		}
		seen[id] = true
		if net.ReliableDegree(v) < 1 {
			t.Errorf("node %d isolated in G", v)
		}
	}
	// H contains G for any τ-complete detector.
	h := net.H()
	if h.M() < 1 {
		t.Error("H empty")
	}
}
