package report

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"dualradio/internal/scenario"
)

// misSweep is the golden fixture: the same 2×2 mis sweep shape the
// end-to-end restart check (scripts/sweep_e2e.sh) reports over.
func misSweep(t testing.TB) (*scenario.Expansion, []scenario.Aggregate) {
	t.Helper()
	sw := scenario.SweepSpec{
		Name: "mis-golden",
		Base: scenario.Spec{
			Algorithm:       scenario.AlgoMIS,
			Network:         scenario.NetworkSpec{N: 24},
			Trials:          2,
			StopWhenDecided: true,
		},
		Axes: scenario.SweepAxes{
			N:        &scenario.Axis{Values: []float64{16, 24}},
			GrayProb: &scenario.Axis{Values: []float64{0.1, 0.3}},
		},
	}
	exp, err := scenario.ExpandSweep(sw)
	if err != nil {
		t.Fatal(err)
	}
	aggs := make([]scenario.Aggregate, len(exp.Children))
	for i, c := range exp.Children {
		res, err := c.RunWithOptions(context.Background(), scenario.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		aggs[i] = res.Aggregate
	}
	return exp, aggs
}

// TestGoldenCSV locks the CSV rendering of a small mis sweep byte-for-byte:
// the simulation is deterministic in the specs, so this exact text must
// reproduce on every run, machine, and daemon restart.
func TestGoldenCSV(t *testing.T) {
	exp, aggs := misSweep(t)
	rep, err := Build(exp, aggs, Options{Metric: "mean_rounds"})
	if err != nil {
		t.Fatal(err)
	}
	golden := "n\\gray_prob,0.1,0.3\n" +
		"16,69,77\n" +
		"24,104,119\n"
	if got := rep.CSV(); got != golden {
		t.Fatalf("golden CSV drifted:\ngot:\n%swant:\n%s", got, golden)
	}
	valid, err := Build(exp, aggs, Options{Metric: "valid_fraction"})
	if err != nil {
		t.Fatal(err)
	}
	goldenValid := "n\\gray_prob,0.1,0.3\n" +
		"16,1,1\n" +
		"24,1,1\n"
	if got := valid.CSV(); got != goldenValid {
		t.Fatalf("golden valid_fraction CSV drifted:\ngot:\n%swant:\n%s", got, goldenValid)
	}
}

// TestPivotSelection: explicit rows/cols transpose the pivot, and "-"
// collapses an axis into mean±std cells.
func TestPivotSelection(t *testing.T) {
	exp, aggs := misSweep(t)
	transposed, err := Build(exp, aggs, Options{Metric: "mean_rounds", Rows: "gray_prob"})
	if err != nil {
		t.Fatal(err)
	}
	if transposed.RowAxis != "gray_prob" || transposed.ColAxis != "n" {
		t.Fatalf("transpose picked %q/%q", transposed.RowAxis, transposed.ColAxis)
	}
	if got := transposed.CSV(); got != "gray_prob\\n,16,24\n0.1,69,104\n0.3,77,119\n" {
		t.Fatalf("transposed CSV:\n%s", got)
	}

	collapsed, err := Build(exp, aggs, Options{Metric: "mean_rounds", Cols: "-"})
	if err != nil {
		t.Fatal(err)
	}
	if collapsed.ColAxis != "" || len(collapsed.ColLabels) != 1 {
		t.Fatalf("collapsed report still has columns: %+v", collapsed)
	}
	for i, row := range collapsed.Cells {
		c := row[0]
		if c.N != 2 {
			t.Fatalf("row %d collapses %d points, want 2", i, c.N)
		}
		if c.Std == 0 {
			t.Fatalf("row %d: collapsing distinct gray_prob cells should produce a spread", i)
		}
		if !strings.Contains(c.String(), "±") {
			t.Fatalf("collapsed cell renders %q without ±", c.String())
		}
	}

	if _, err := Build(exp, aggs, Options{Metric: "mean_rounds", Rows: "tau"}); err == nil {
		t.Fatal("unknown axis accepted")
	}
	if _, err := Build(exp, aggs, Options{Metric: "mean_rounds", Rows: "n", Cols: "n"}); err == nil {
		t.Fatal("rows == cols accepted")
	}
	if _, err := Build(exp, aggs, Options{Metric: "nope"}); err == nil {
		t.Fatal("unknown metric accepted")
	}
}

// TestJSONAndTableRenderings: the JSON form round-trips and the table form
// goes through the stats renderer with every cell filled.
func TestJSONAndTableRenderings(t *testing.T) {
	exp, aggs := misSweep(t)
	rep, err := Build(exp, aggs, Options{Metric: "mean_size"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Metric != "mean_size" || len(back.Cells) != 2 || len(back.Cells[0]) != 2 {
		t.Fatalf("JSON round trip lost shape: %+v", back)
	}
	tbl := rep.Table()
	for _, want := range []string{"mis-golden", "mean_size", "n\\gray_prob", "0.1", "0.3", "16", "24"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("table lacks %q:\n%s", want, tbl)
		}
	}
}

// TestAxisFreeSweep: a sweep with no axes still reports (one cell).
func TestAxisFreeSweep(t *testing.T) {
	sw := scenario.SweepSpec{
		Base: scenario.Spec{
			Algorithm:       scenario.AlgoMIS,
			Network:         scenario.NetworkSpec{N: 16},
			Trials:          1,
			StopWhenDecided: true,
		},
	}
	exp, err := scenario.ExpandSweep(sw)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Children[0].RunWithOptions(context.Background(), scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Build(exp, []scenario.Aggregate{res.Aggregate}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 1 || len(rep.Cells[0]) != 1 || rep.Cells[0][0].N != 1 {
		t.Fatalf("axis-free report shape: %+v", rep)
	}
	if rep.Cells[0][0].Mean != res.Aggregate.MeanRounds {
		t.Fatalf("cell %v != aggregate mean rounds %v", rep.Cells[0][0].Mean, res.Aggregate.MeanRounds)
	}
}

// TestMissingMetricCellsRenderEmpty: a metric some children lack (decision
// latency for runs that never decide) yields empty cells, not zeros.
func TestMissingMetricCellsRenderEmpty(t *testing.T) {
	exp, aggs := misSweep(t)
	for i := range aggs {
		aggs[i].MeanLatency = 0 // mis runs carry no local latency
	}
	rep, err := Build(exp, aggs, Options{Metric: "mean_latency"})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Cells {
		for _, c := range row {
			if c.N != 0 || c.String() != "" {
				t.Fatalf("missing metric rendered %+v", c)
			}
		}
	}
	if !strings.Contains(rep.Table(), "-") {
		t.Fatal("table should render empty cells as -")
	}
}

func BenchmarkBuildReport(b *testing.B) {
	// A full 512-child grid pivot: 8×8×8 axes collapsed onto two.
	var dims []scenario.Dim
	for _, name := range []string{"n", "gray_prob", "tau"} {
		d := scenario.Dim{Name: name}
		for i := 0; i < 8; i++ {
			d.Labels = append(d.Labels, string(rune('a'+i)))
		}
		dims = append(dims, d)
	}
	exp := &scenario.Expansion{Dims: dims}
	aggs := make([]scenario.Aggregate, 512)
	for i := range aggs {
		exp.Grid = append(exp.Grid, i)
		exp.Children = append(exp.Children, nil)
		aggs[i] = scenario.Aggregate{Trials: 5, MeanRounds: float64(i), MeanSize: float64(i % 7), ValidFraction: 1}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(exp, aggs, Options{Metric: "mean_rounds"}); err != nil {
			b.Fatal(err)
		}
	}
}
