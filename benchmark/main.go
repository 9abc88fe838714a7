// Command benchmark is the repository's one live benchmark: a single-process
// load generator that starts the default-configured Tasklet stack (broker,
// providers, consumers) over real 127.0.0.1 TCP, drives one of five fixed
// closed-loop workloads, verifies every result against the native reference
// and prints every metric by name with its unit. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload name, or all")
	seed := fs.Uint64("seed", 1, "input seed: the same seed offers the same load")
	seconds := fs.Float64("seconds", 15, "measured seconds per run: one window untraced; an untraced and a traced window (and on spin_compute the METG sweep) traced")
	trace := fs.String("trace", "both", "0: untraced run (end-to-end metrics); 1: traced run (per-layer metrics); both")
	jsonPath := fs.String("json", "", "write the full report here")
	spansPath := fs.String("spans", "", "write the traced run's spans here (single workload)")
	compare := fs.Bool("compare", false, "compare two reports: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two report files")
		}
		return compareReports(fs.Arg(0), fs.Arg(1), os.Stdout)
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	untraced, traced := *trace != "1", *trace != "0"
	if *trace != "0" && *trace != "1" && *trace != "both" {
		return fmt.Errorf("-trace %q: want 0, 1 or both", *trace)
	}
	selected := workloads
	if *name != "all" {
		w, err := findWorkload(*name)
		if err != nil {
			return err
		}
		selected = []workloadSpec{*w}
	} else if *spansPath != "" {
		return errors.New("-spans needs a single -workload")
	}

	rep := report{Host: readHost(), Seed: *seed, Seconds: *seconds, Setups: setups}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	for i := range selected {
		w := &selected[i]
		in, err := makeInputs(w, *seed)
		if err != nil {
			return err
		}
		wr := workloadReport{Name: w.name, Why: w.why, Loop: loopKind, InputsSHA256: in.sha256, WarmupTasklets: w.warmup}
		if untraced {
			if err := measureEndToEnd(w, in, *seconds, setups, &wr); err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
		}
		if traced {
			if err := measureLayers(w, in, *seconds, *spansPath, &wr); err != nil {
				return fmt.Errorf("%s traced: %w", w.name, err)
			}
		}
		wr.print(out)
		out.Flush()
		rep.Workloads = append(rep.Workloads, wr)
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(rep.Workloads) == 1 && *trace != "both" {
		return driverLine(out, &rep.Workloads[0])
	}
	return nil
}

// driverLine prints the one-object summary a benchmark driver reads from
// the last line of standard output.
func driverLine(out *bufio.Writer, wr *workloadReport) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	c := wr.Counts
	if c == nil {
		c = &wr.Traced.Counts
		for k, v := range wr.PerLayer {
			line.Metrics[k] = value{v.Value, v.Unit}
		}
	} else {
		for k, s := range wr.EndToEnd {
			line.Metrics[k] = value{s.Value, s.Unit}
		}
	}
	line.Attempted, line.Failed, line.Correct = c.Attempted, c.Attempted-c.OK, c.Attempted == c.OK
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", data)
	return err
}
