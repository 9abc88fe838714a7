// Package experiments implements the reproduction of every table and figure
// in the (reconstructed) evaluation of the Tasklets paper — see DESIGN.md §4
// for the experiment index. Each experiment is runnable from the
// tasklet-bench CLI and from the repository's bench harness, and renders
// the same rows/series the paper reports.
//
// Scale: Quick mode shrinks workloads so the full suite finishes in tens of
// seconds on a laptop; Full mode uses the paper-scale parameters.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
)

// Options configures an experiment run.
type Options struct {
	// Quick shrinks workloads for CI and benches.
	Quick bool
	// Seed makes simulated experiments reproducible.
	Seed uint64
	// Out receives progress lines; nil discards them.
	Out io.Writer
}

func (o Options) logf(format string, args ...any) {
	if o.Out != nil {
		fmt.Fprintf(o.Out, format+"\n", args...)
	}
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 42
	}
	return o.Seed
}

// Result is a rendered experiment outcome.
type Result struct {
	ID     string
	Title  string
	Series []*metrics.Series
	// Rows holds table-style experiments' rows (E1, E6).
	Rows [][2]string
	// Notes records derived observations (crossover points, ratios).
	Notes []string
}

// Render produces the experiment's printable report.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if len(r.Rows) > 0 {
		w := 0
		for _, row := range r.Rows {
			if len(row[0]) > w {
				w = len(row[0])
			}
		}
		for _, row := range r.Rows {
			fmt.Fprintf(&b, "  %-*s  %s\n", w, row[0], row[1])
		}
	}
	if len(r.Series) > 0 {
		b.WriteString(metrics.Table(r.Series...))
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner executes one experiment.
type Runner func(Options) (*Result, error)

// registry maps experiment IDs to runners. It is populated in init rather
// than a composite literal because the runners themselves call Title(),
// which would otherwise form an initialization cycle.
var registry map[string]struct {
	title  string
	runner Runner
}

func init() {
	registry = map[string]struct {
		title  string
		runner Runner
	}{
		"e1": {"Table 1 — middleware micro-overheads", RunE1},
		"e2": {"Figure 2 — remote-vs-local offload crossover", RunE2},
		"e3": {"Figure 3 — speedup vs number of providers", RunE3},
		"e4": {"Figure 4 — heterogeneity and scheduling policy", RunE4},
		"e5": {"Figure 5 — reliability under provider churn", RunE5},
		"e6": {"Table 2 — QoC goal cost matrix", RunE6},
		"e7": {"Figure 6 — broker throughput and queue delay", RunE7},
		"e8": {"Figure 7 — result memoization on Zipf-repeated workloads", RunE8},
		"e9": {"Figure 8 — data-plane throughput and p99 vs offered load", RunE9},
	}
}

// IDs lists the experiment identifiers in order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Title returns an experiment's title.
func Title(id string) string { return registry[id].title }

// Run executes one experiment by ID.
func Run(id string, opts Options) (*Result, error) {
	ent, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %s)",
			id, strings.Join(IDs(), ", "))
	}
	start := time.Now()
	res, err := ent.runner(opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	opts.logf("%s finished in %v", id, time.Since(start).Round(time.Millisecond))
	return res, nil
}
