package expr_test

import (
	"strings"
	"testing"

	"dualradio/internal/expr"
)

// quick runs an experiment at quick scale and fails the test on error.
func quick(t *testing.T, run func(expr.Config) (*expr.Result, error)) *expr.Result {
	t.Helper()
	res, err := run(expr.QuickConfig())
	if err != nil {
		t.Fatalf("experiment: %v", err)
	}
	t.Logf("\n%s", res.Table.String())
	return res
}

func TestE1MISScaling(t *testing.T) {
	res := quick(t, expr.E1MISScaling)
	if exp := res.Metrics["exponent_vs_logn"]; exp > 3.8 {
		t.Errorf("MIS rounds grow as log^%.2f n, want ≲ 3", exp)
	}
	for _, n := range []int{64, 128, 256} {
		if v := res.Metrics["valid_"+itoa(n)]; v < 1 {
			t.Errorf("n=%d: only %.0f%% of runs valid", n, v*100)
		}
	}
}

func TestE2MISDensity(t *testing.T) {
	res := quick(t, expr.E2MISDensity)
	for _, r := range []string{"1", "2", "3"} {
		if res.Metrics["max_density_r"+r] > res.Metrics["bound_r"+r] {
			t.Errorf("density at r=%s exceeds overlay bound I_r", r)
		}
	}
}

func TestE3CCDSRounds(t *testing.T) {
	res := quick(t, expr.E3CCDSRounds)
	small, large := res.Metrics["growth_small_b"], res.Metrics["growth_large_b"]
	if small <= large {
		t.Errorf("expected stronger Δ-growth for small b: small=%.2f large=%.2f", small, large)
	}
	if large > 1.8 {
		t.Errorf("large-b CCDS rounds should be nearly flat in Δ, grew x%.2f", large)
	}
}

// TestE4TauCCDS checks Theorem 6.2's claim: with a τ-complete detector the
// Section 6 CCDS is valid in every run and its round count grows at most
// linearly in Δ (the fitted exponent stays at or below 1.2).
func TestE4TauCCDS(t *testing.T) {
	res := quick(t, expr.E4TauCCDS)
	checked := 0
	for k, v := range res.Metrics {
		if !strings.HasPrefix(k, "valid_tau") {
			continue
		}
		checked++
		if v < 1 {
			t.Errorf("%s: only %.0f%% of runs valid", k, v*100)
		}
	}
	if checked == 0 {
		t.Error("E4 reported no valid_tau* metrics")
	}
	if exp := res.Metrics["exponent_vs_delta"]; exp > 1.2 {
		t.Errorf("τ-CCDS rounds grow as Δ^%.2f, want ≲ 1 (O(Δ·polylog n))", exp)
	}
}

func TestE5LowerBound(t *testing.T) {
	res := quick(t, expr.E5LowerBound)
	if exp := res.Metrics["crossing_exponent_vs_beta"]; exp < 0.5 {
		t.Errorf("crossing time grows as β^%.2f, want ≳ 1 (Ω(Δ))", exp)
	}
	if exp := res.Metrics["fast_exponent_vs_beta"]; exp > 0.9 {
		t.Errorf("τ=0 rounds grow as β^%.2f, want sublinear for large b", exp)
	}
}

func TestE6HittingGame(t *testing.T) {
	res := quick(t, expr.E6HittingGame)
	for _, beta := range []int{16, 64} {
		r := res.Metrics["random_over_beta_"+itoa(beta)]
		if r < 0.5 || r > 2.0 {
			t.Errorf("β=%d: random player mean/β = %.2f, want ≈ 1", beta, r)
		}
		if res.Metrics["sweep_worst_"+itoa(beta)] != float64(beta) {
			t.Errorf("β=%d: sweep worst-case should be exactly β", beta)
		}
	}
}

func TestE7DynamicCCDS(t *testing.T) {
	res := quick(t, expr.E7DynamicCCDS)
	if v := res.Metrics["valid_fraction"]; v < 1 {
		t.Errorf("continuous CCDS valid at r+2δ in only %.0f%% of runs", v*100)
	}
}

// TestE8AsyncMIS checks Theorem 9.4's claim: asynchronous-start MIS is
// valid in every run and its p90 decision latency grows no faster in log n
// than E1's synchronous bound allows.
func TestE8AsyncMIS(t *testing.T) {
	res := quick(t, expr.E8AsyncMIS)
	for _, n := range []int{64, 128} {
		if v := res.Metrics["valid_"+itoa(n)]; v < 1 {
			t.Errorf("n=%d: only %.0f%% of runs valid", n, v*100)
		}
	}
	if exp := res.Metrics["exponent_vs_logn"]; exp > 3.8 {
		t.Errorf("async MIS latency grows as log^%.2f n, want ≲ 3", exp)
	}
}

func TestE9BannedListAblation(t *testing.T) {
	res := quick(t, expr.E9BannedListAblation)
	if sp := res.Metrics["speedup_delta2048"]; sp < 2 {
		t.Errorf("banned list speedup x%.2f over naive at Δ=2048, want > 2", sp)
	}
	if v := res.Metrics["sim_valid_fraction"]; v < 1 {
		t.Errorf("only %.0f%% of simulated ablation runs valid", v*100)
	}
}

func TestE10Subroutines(t *testing.T) {
	res := quick(t, expr.E10Subroutines)
	if r := res.Metrics["delivery_k1"]; r < 0.95 {
		t.Errorf("lone bounded-broadcast delivery rate %.2f, want ≈ 1", r)
	}
	if r1, r16 := res.Metrics["delivery_k1"], res.Metrics["delivery_k16"]; r16 > r1 {
		t.Errorf("delivery should degrade with contention: k=1 %.2f vs k=16 %.2f", r1, r16)
	}
}

func TestE10DirectedDecay(t *testing.T) {
	res := quick(t, expr.E10DirectedDecay)
	for _, k := range []int{2, 16, 63} {
		if r := res.Metrics["delivery_k"+itoa(k)]; r < 0.9 {
			t.Errorf("covered set %d: delivery rate %.2f, want ≳ 1", k, r)
		}
	}
}

func TestE11Backbone(t *testing.T) {
	res := quick(t, expr.E11Backbone)
	if s := res.Metrics["tx_saving_96"]; s < 0.15 {
		t.Errorf("backbone saves only %.0f%% transmissions, want > 15%%", s*100)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
