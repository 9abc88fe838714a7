// Command tasklet-bench regenerates the paper's evaluation: every table and
// figure has an experiment (e1–e9; see DESIGN.md §4) whose rows/series this
// tool prints.
//
// Usage:
//
//	tasklet-bench -exp all            # full evaluation (minutes)
//	tasklet-bench -exp e3 -quick      # one experiment at CI scale
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids ("+strings.Join(experiments.IDs(), ", ")+") or 'all'")
	quick := flag.Bool("quick", false, "shrink workloads for a fast pass")
	seed := flag.Uint64("seed", 42, "simulation seed")
	quiet := flag.Bool("q", false, "suppress progress logs")
	csvDir := flag.String("csv", "", "also write each experiment's series as <dir>/<id>.csv")
	jsonPath := flag.String("json", "", "write all experiment results as a JSON array to this file")
	flag.Parse()

	opts := experiments.Options{Quick: *quick, Seed: *seed}
	if !*quiet {
		opts.Out = os.Stderr
	}

	var ids []string
	if *exp == "all" {
		ids = experiments.IDs()
	} else {
		ids = strings.Split(*exp, ",")
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	failed := false
	var results []*experiments.Result
	for _, id := range ids {
		id = strings.TrimSpace(id)
		res, err := experiments.Run(id, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			failed = true
			continue
		}
		fmt.Println(res.Render())
		results = append(results, res)
		if *csvDir != "" && len(res.Series) > 0 {
			path := filepath.Join(*csvDir, id+".csv")
			if err := os.WriteFile(path, []byte(metrics.CSV(res.Series...)), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				failed = true
			}
		}
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}
