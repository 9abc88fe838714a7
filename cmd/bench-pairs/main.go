// Command bench-pairs compares a base git revision with the working tree on
// the live benchmark (BENCHMARK.json), in alternating pairs of runs.
//
// It extracts the base revision into a temporary directory with git
// archive, builds both sides with benchmark/run.sh (a short smoke run of the
// first workload), then runs N pairs per workload, alternating which side
// goes first and cycling through the seeds given; every run lasts
// BENCHMARK.json's run_seconds. For each workload ×
// metric it prints both sides' median [quartiles], the change/base ratio of
// the medians, the pairs the change won and lost, and a verdict (see
// judge). Run it from the root of a checkout:
//
//	go run ./cmd/bench-pairs -base HEAD~1 -pairs 10 -seeds 101,102
//
// or `make bench-pairs BASE=<rev>`. -trace 1 compares the per-layer
// metrics of traced runs instead of the end-to-end ones.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json this tool reads.
type benchmarkFile struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// driverLine is the one JSON object a benchmark run prints last.
type driverLine struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench-pairs:", err)
		os.Exit(1)
	}
}

func run(args []string, out, logw io.Writer) error {
	fs := flag.NewFlagSet("bench-pairs", flag.ContinueOnError)
	base := fs.String("base", "", "git revision to compare the working tree against (required)")
	pairs := fs.Int("pairs", 10, "pairs of runs per workload")
	seeds := fs.String("seeds", "1", "comma-separated seeds; pair i runs seed i mod len")
	names := fs.String("workloads", "all", "comma-separated workloads, or all")
	trace := fs.String("trace", "0", "0: end-to-end metrics of untraced runs; 1: per-layer metrics of traced runs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *base == "" || *pairs <= 0 || fs.NArg() != 0 {
		return errors.New("usage: bench-pairs -base <rev> [-pairs n] [-seeds a,b] [-workloads w,x] [-trace 0|1]")
	}
	if *trace != "0" && *trace != "1" {
		return fmt.Errorf("-trace %q: want 0 or 1", *trace)
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the root of a checkout: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	specs := bf.EndToEnd
	if *trace == "1" {
		specs = bf.PerLayer
	}
	var workloads []string
	if *names == "all" {
		for _, w := range bf.Workloads {
			workloads = append(workloads, w.Name)
		}
	} else {
		workloads = strings.Split(*names, ",")
	}
	seedList := strings.Split(*seeds, ",")

	baseDir, err := os.MkdirTemp("", "bench-pairs-base-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(baseDir)
	if err := extract(*base, baseDir); err != nil {
		return err
	}
	changeDir, err := os.Getwd()
	if err != nil {
		return err
	}
	sides := []struct{ name, dir string }{{"base", baseDir}, {"change", changeDir}}
	for _, s := range sides {
		fmt.Fprintf(logw, "building %s in %s\n", s.name, s.dir)
		smoke := exec.Command("bash", "benchmark/run.sh", "--workload", workloads[0],
			"--seed", seedList[0], "--seconds", "0.3", "--trace", "0")
		smoke.Dir, smoke.Stderr = s.dir, logw
		if err := smoke.Run(); err != nil {
			return fmt.Errorf("build %s: %w", s.name, err)
		}
	}

	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median [q1, q3]\tchange median [q1, q3]\tchange/base\twins/losses\tverdict")
	for _, w := range workloads {
		vals := [2]map[string][]float64{{}, {}}
		for i := 0; i < *pairs; i++ {
			seed := seedList[i%len(seedList)]
			order := []int{0, 1}
			if i%2 == 1 {
				order = []int{1, 0}
			}
			for _, side := range order {
				line, err := runOnce(sides[side].dir, w, seed, bf.RunSeconds, *trace)
				if err != nil {
					return fmt.Errorf("%s %s seed %s: %w", sides[side].name, w, seed, err)
				}
				for name, v := range line.Metrics {
					vals[side][name] = append(vals[side][name], v.Value)
				}
			}
			fmt.Fprintf(logw, "%s: pair %d/%d done\n", w, i+1, *pairs)
		}
		for _, spec := range specs {
			a, b := vals[0][spec.Name], vals[1][spec.Name]
			if len(a) != *pairs || len(b) != *pairs {
				fmt.Fprintf(tw, "%s\t%s\t%s\t\t\t\t\t%s\n", w, spec.Name, spec.Unit, verdictUnresolved)
				continue
			}
			r := judge(spec, a, b)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%.3f×\t%d/%d\t%s\n", w, spec.Name, spec.Unit,
				fmtQ(r.Base), fmtQ(r.Change), r.Ratio, r.Wins, r.Losses, r.Verdict)
		}
	}
	return tw.Flush()
}

// extract writes the tree of rev into dir.
func extract(rev, dir string) error {
	archive := exec.Command("git", "archive", "--format=tar", rev)
	untar := exec.Command("tar", "-x", "-C", dir)
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return err
	}
	untar.Stdin = pipe
	var errBuf bytes.Buffer
	archive.Stderr, untar.Stderr = &errBuf, &errBuf
	if err := untar.Start(); err != nil {
		return err
	}
	if err := archive.Run(); err != nil {
		untar.Wait()
		return fmt.Errorf("git archive %s: %v: %s", rev, err, errBuf.String())
	}
	if err := untar.Wait(); err != nil {
		return fmt.Errorf("untar %s: %v: %s", rev, err, errBuf.String())
	}
	return nil
}

// runOnce runs one workload on the benchmark binary built in dir and
// returns its last output line.
func runOnce(dir, workload, seed string, seconds float64, trace string) (*driverLine, error) {
	cmd := exec.Command(filepath.Join(dir, ".bench_build", "benchmark"), "--workload", workload,
		"--seed", seed, "--seconds", fmt.Sprint(seconds), "--trace", trace)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%v: %s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var line driverLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return nil, fmt.Errorf("last output line: %w", err)
	}
	if !line.Correct {
		return nil, errors.New("run reported incorrect results")
	}
	return &line, nil
}

// fmtQ formats quartiles as "median [q1, q3]" with four significant digits.
func fmtQ(q [3]float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2])
}
