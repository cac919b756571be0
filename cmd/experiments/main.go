// Command experiments regenerates the reproduction tables E1–E15 mapping
// the paper's theorems to measured quantities (see DESIGN.md for the index
// and EXPERIMENTS.md for recorded paper-vs-measured results).
//
// Usage:
//
//	experiments            # full scale (minutes)
//	experiments -quick     # trimmed sweeps (seconds)
//	experiments -only E5   # a single experiment
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"dualradio/internal/expr"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		quick = flag.Bool("quick", false, "trimmed sweeps for a fast pass")
		seeds = flag.Int("seeds", 0, "override runs per parameter point")
		only  = flag.String("only", "", "comma-separated experiment ids (e.g. E1,E5)")
	)
	flag.Parse()

	cfg := expr.DefaultConfig()
	if *quick {
		cfg = expr.QuickConfig()
	}
	if *seeds > 0 {
		cfg.Seeds = *seeds
	}

	ids := make([]string, len(expr.Experiments))
	for i, e := range expr.Experiments {
		ids[i] = e.ID
	}
	selected := ids
	if *only != "" {
		selected = strings.Split(*only, ",")
	}
	for _, id := range selected {
		id = strings.TrimSpace(id)
		i := slices.Index(ids, id)
		if i < 0 {
			return fmt.Errorf("unknown experiment %q (have %s)", id, strings.Join(ids, ", "))
		}
		res, err := expr.Experiments[i].Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Println(res.Table.String())
	}
	return nil
}
