// Command radiosim runs one algorithm of "Structuring Unreliable Radio
// Networks" on a generated dual graph network and reports the outcome.
//
// Usage:
//
//	radiosim -algo ccds -n 128 -b 512 -seed 1
//	radiosim -algo mis -n 256 -adversary full
//	radiosim -algo tau -n 96 -tau 2 -b 32768
//
// With -spec, radiosim instead runs a declarative scenario spec through the
// same compiler the radiod service uses, so the CLI and the daemon share
// one code path (identical seeds, identical results):
//
//	radiosim -spec scenario.json
//	radiosim -spec - < scenario.json      # read the spec from stdin
//	radiosim -spec scenario.json -json    # machine-readable result
//
// With -sweep, the file is a sweep spec (a base spec plus axes) expanded
// with the same deterministic expansion the daemon's POST /v1/sweeps uses;
// every child runs in grid order:
//
//	radiosim -sweep sweep.json
//	radiosim -sweep sweep.json -json      # {"sweep_hash": ..., "results": [...]}
//
// With -report, the sweep's children are pivoted onto its axes into the
// same report the daemon serves at GET /v1/sweeps/{id}/report — rows ×
// columns of the chosen metric, collapsed across any remaining axes:
//
//	radiosim -sweep sweep.json -report mean_rounds
//	radiosim -sweep sweep.json -report valid_fraction -format csv
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"

	"dualradio"
	"dualradio/internal/report"
	"dualradio/internal/scenario"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "radiosim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		algo      = flag.String("algo", "ccds", "algorithm: mis | ccds | baseline | tau")
		n         = flag.Int("n", 128, "network size")
		degree    = flag.Float64("degree", 0, "target reliable degree (0 = 3·log₂ n)")
		tau       = flag.Int("tau", 0, "link detector mistake bound τ")
		bits      = flag.Int("b", 512, "message size bound b in bits")
		seed      = flag.Uint64("seed", 1, "random seed")
		adv       = flag.String("adversary", "collision", "adversary: collision | none | full | uniform")
		engine    = flag.String("engine", "exact", "execution engine: exact | leap")
		showMap   = flag.Bool("map", false, "render the network and outputs as ASCII art")
		doTrace   = flag.Bool("trace", false, "print aggregate activity statistics")
		specPath  = flag.String("spec", "", "run a scenario spec file instead (\"-\" = stdin)")
		sweepPath = flag.String("sweep", "", "run a sweep spec file instead (\"-\" = stdin)")
		asJSON    = flag.Bool("json", false, "with -spec/-sweep: print the full result as JSON")
		workers   = flag.Int("workers", 0, "with -spec/-sweep: trial fan-out goroutines (0 = GOMAXPROCS)")
		metric    = flag.String("report", "", "with -sweep: pivot the children into a report of this metric (e.g. mean_rounds)")
		format    = flag.String("format", "table", "with -report: csv | json | table")
	)
	flag.Parse()

	if *specPath != "" && *sweepPath != "" {
		return fmt.Errorf("give either -spec or -sweep, not both")
	}
	if *metric != "" {
		// Fail fast: a typo'd metric or format must not cost a full sweep
		// simulation before it is rejected.
		if *sweepPath == "" {
			return fmt.Errorf("-report needs -sweep")
		}
		if *asJSON {
			return fmt.Errorf("give either -json or -report (use -report ... -format json for a JSON report)")
		}
		if !slices.Contains(report.Metrics(), *metric) {
			return fmt.Errorf("unknown -report metric %q (want one of %s)",
				*metric, strings.Join(report.Metrics(), "|"))
		}
		switch *format {
		case "", "csv", "json", "table":
		default:
			return fmt.Errorf("unknown -format %q (want csv|json|table)", *format)
		}
	}
	if *sweepPath != "" {
		return runSweep(*sweepPath, *asJSON, *workers, *metric, *format)
	}
	if *specPath != "" {
		return runSpec(*specPath, *asJSON, *workers)
	}

	net, err := dualradio.Generate(dualradio.NetworkOptions{
		Nodes:        *n,
		TargetDegree: *degree,
		Tau:          *tau,
		Seed:         *seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("network: n=%d Δ=%d unreliable-edges=%d τ=%d\n",
		net.N(), net.Delta(), net.UnreliableEdges(), net.Tau())

	opts := dualradio.RunOptions{Seed: *seed, MessageBits: *bits, CollectTrace: *doTrace}
	switch *engine {
	case "", "exact":
	case "leap":
		opts.Leap = true
	default:
		return fmt.Errorf("unknown engine %q (want exact|leap)", *engine)
	}
	switch *adv {
	case "none":
		opts.Adversary = dualradio.AdversaryNone
	case "full":
		opts.Adversary = dualradio.AdversaryFull
	case "uniform":
		opts.Adversary = dualradio.AdversaryUniform
	case "collision":
		opts.Adversary = dualradio.AdversaryCollisionSeeking
	default:
		return fmt.Errorf("unknown adversary %q", *adv)
	}

	var res *dualradio.Result
	switch *algo {
	case "mis":
		res, err = dualradio.BuildMIS(net, opts)
	case "ccds":
		res, err = dualradio.BuildCCDS(net, opts)
	case "baseline":
		res, err = dualradio.BuildBaselineCCDS(net, opts)
	case "tau":
		res, err = dualradio.BuildTauCCDS(net, opts)
	default:
		return fmt.Errorf("unknown algorithm %q", *algo)
	}
	if err != nil {
		return err
	}

	fmt.Printf("result: rounds=%d decided-by=%d size=%d max-backbone-degree=%d\n",
		res.Rounds, res.DecidedRound, res.Size(), res.MaxBackboneDegree())
	if err := res.Verify(); err != nil {
		return fmt.Errorf("verification failed: %w", err)
	}
	fmt.Println("verification: all conditions hold")

	if *algo != "mis" {
		flood, back, err := dualradio.BroadcastCost(net, res, 0)
		if err != nil {
			return err
		}
		fmt.Printf("backbone broadcast: %d transmissions vs %d flooding (%.0f%% saved)\n",
			back, flood, 100*(1-float64(back)/float64(flood)))
	}
	if *doTrace {
		fmt.Print(res.TraceSummary)
	}
	if *showMap {
		fmt.Print(dualradio.RenderMap(net, res, 72, 24))
	}
	return nil
}

func readInput(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

// runSweep expands a sweep spec — the identical deterministic expansion
// the radiod daemon's POST /v1/sweeps performs — and runs every child in
// grid order. With a metric, the children are pivoted into the same report
// GET /v1/sweeps/{id}/report serves.
func runSweep(path string, asJSON bool, workers int, metric, format string) error {
	data, err := readInput(path)
	if err != nil {
		return err
	}
	sw, err := scenario.ParseSweep(data)
	if err != nil {
		return err
	}
	exp, err := scenario.ExpandSweep(sw)
	if err != nil {
		return err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(os.Stderr, "sweep: %d children hash=%s cost≈%d\n",
		len(exp.Children), exp.Hash()[:12], exp.CostEstimate())
	results := make([]*scenario.Result, 0, len(exp.Children))
	for i, comp := range exp.Children {
		c := comp.Spec()
		res, err := comp.RunWithOptions(context.Background(), scenario.RunOptions{Workers: workers})
		if err != nil {
			return fmt.Errorf("child %d (%s): %w", i, c.Name, err)
		}
		results = append(results, res)
		switch {
		case metric != "":
			fmt.Fprintf(os.Stderr, "child %d/%d (%s) done\n", i+1, len(exp.Children), c.Name)
		case !asJSON:
			a := res.Aggregate
			fmt.Printf("%-3d %-40s valid=%.0f%% mean-rounds=%.1f mean-size=%.1f\n",
				i, c.Name, 100*a.ValidFraction, a.MeanRounds, a.MeanSize)
		default:
			fmt.Fprintf(os.Stderr, "child %d/%d (%s) done\n", i+1, len(exp.Children), c.Name)
		}
	}
	if metric != "" {
		aggs := make([]scenario.Aggregate, len(results))
		for i, res := range results {
			aggs[i] = res.Aggregate
		}
		rep, err := report.Build(exp, aggs, report.Options{Metric: metric})
		if err != nil {
			return err
		}
		switch format {
		case "csv":
			return rep.WriteCSV(os.Stdout)
		case "json":
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		case "", "table":
			fmt.Print(rep.Table())
			return nil
		default:
			return fmt.Errorf("unknown -format %q (want csv|json|table)", format)
		}
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(map[string]any{"sweep_hash": exp.Hash(), "results": results})
	}
	return nil
}

// runSpec runs a declarative scenario spec through the scenario compiler —
// the identical code path the radiod service executes, so a spec run here
// and a job submitted there produce the same per-trial results.
func runSpec(path string, asJSON bool, workers int) error {
	data, err := readInput(path)
	if err != nil {
		return err
	}
	spec, err := scenario.ParseSpec(data)
	if err != nil {
		return err
	}
	comp, err := scenario.Compile(spec)
	if err != nil {
		return err
	}
	c := comp.Spec()
	fmt.Fprintf(os.Stderr, "scenario: algo=%s n=%d trials=%d hash=%s\n",
		c.Algorithm, c.Network.N, comp.Trials(), comp.Hash()[:12])
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	progress := func(p scenario.Progress) {
		tr := p.Trial
		fmt.Fprintf(os.Stderr, "trial %d/%d: rounds=%d decided=%d size=%d valid=%v (folded %d: mean-rounds=%.1f)\n",
			tr.Trial+1, comp.Trials(), tr.Rounds, tr.DecidedRound, tr.Size, tr.Valid,
			p.Folded, p.Aggregate.MeanRounds)
	}
	res, err := comp.RunWithOptions(context.Background(), scenario.RunOptions{Workers: workers, OnProgress: progress})
	if err != nil {
		return err
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	a := res.Aggregate
	fmt.Printf("result: trials=%d valid=%.0f%% mean-rounds=%.1f mean-size=%.1f\n",
		a.Trials, 100*a.ValidFraction, a.MeanRounds, a.MeanSize)
	if a.MeanDecidedRound > 0 {
		fmt.Printf("decision latency: mean=%.1f p90=%.1f rounds\n",
			a.MeanDecidedRound, a.P90DecidedRound)
	}
	if a.MeanLatency > 0 {
		fmt.Printf("local decision latency: mean=%.1f rounds\n", a.MeanLatency)
	}
	return nil
}
