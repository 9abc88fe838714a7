package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// spread is how far a metric's samples within one run lie apart, as a share
// of their median: the distance between the quartiles, or the range when
// there are too few samples (the three set-ups) to have quartiles.
func (s summary) spread() float64 {
	if s.N < 4 {
		return (s.Max - s.Min) / s.Median
	}
	return (quantile(s.Samples, 0.75) - quantile(s.Samples, 0.25)) / s.Median
}

// verdict judges metric b against base a. The worsening is relative to a's
// value; ok_frac's bound is absolute, which is the same thing at a median
// of 1. A spread wider than the bound on either side means the pair cannot
// be told apart at this bound: unresolved, not unchanged. So does a value
// that is missing or zero on either side, which leaves no ratio to judge.
func verdict(a, b summary) (worsening float64, v string) {
	worsening = (b.Value - a.Value) / a.Value
	if a.Better == "higher" {
		worsening = -worsening
	}
	switch {
	case a.N == 0 || b.N == 0 || math.IsNaN(worsening) || math.IsInf(worsening, 0):
		return worsening, "unresolved"
	case !(a.spread() <= a.Bound && b.spread() <= a.Bound): // also catches a NaN spread
		return worsening, "unresolved"
	case worsening > a.Bound:
		return worsening, "regressed"
	default:
		return worsening, "ok"
	}
}

// compareReports prints one row per workload x end-to-end metric of report
// b against base a, and fails when any row is not ok. A workload that either
// report lacks, or measured only traced, is a row too: unresolved.
func compareReports(pathA, pathB string, out io.Writer) error {
	a, err := loadReport(pathA)
	if err != nil {
		return err
	}
	b, err := loadReport(pathB)
	if err != nil {
		return err
	}
	if a.Seconds != b.Seconds || a.Setups != b.Setups {
		return fmt.Errorf("settings differ (base %g s, %d set-ups; other %g s, %d set-ups): compare like with like",
			a.Seconds, a.Setups, b.Seconds, b.Setups)
	}
	inA, inB := map[string]bool{}, map[string]*workloadReport{}
	for i := range b.Workloads {
		inB[b.Workloads[i].Name] = &b.Workloads[i]
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase\tother\tother/base\tspread base\tspread other\tbound\tverdict")
	bad := 0
	unresolved := func(name, why string) {
		fmt.Fprintf(tw, "%s\t%s\t\t\t\t\t\t\t\tunresolved\n", name, why)
		bad++
	}
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		inA[wa.Name] = true
		wb := inB[wa.Name]
		switch {
		case wb == nil:
			unresolved(wa.Name, "missing from the other report")
			continue
		case wa.EndToEnd == nil || wb.EndToEnd == nil:
			unresolved(wa.Name, "no end-to-end metrics in one of the reports")
			continue
		case wa.InputsSHA256 != wb.InputsSHA256:
			unresolved(wa.Name, fmt.Sprintf("inputs differ (%.12s vs %.12s): not the same load", wa.InputsSHA256, wb.InputsSHA256))
			continue
		}
		for _, d := range endToEndDefs {
			sa, sb := wa.EndToEnd[d.name], wb.EndToEnd[d.name]
			_, v := verdict(sa, sb)
			if v != "ok" {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.4f of %.6g\t%.4f\t%.4f\t%g\t%s\n",
				wa.Name, d.name, d.unit, sa.Value, sb.Value, sb.Value/sa.Value, sa.Value, sa.spread(), sb.spread(), sa.Bound, v)
		}
	}
	for i := range b.Workloads {
		if name := b.Workloads[i].Name; !inA[name] {
			unresolved(name, "missing from the base report")
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d of the compared rows are regressed or unresolved", bad)
	}
	return nil
}
