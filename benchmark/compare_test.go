package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCompareVerdicts checks the rows -compare must not pass: a metric worse
// than its bound, a spread wider than the bound, a zero base, and a workload
// one report lacks.
func TestCompareVerdicts(t *testing.T) {
	sum := func(value float64, samples ...float64) summary {
		return summarize(metricDef{"tasklets_per_s", "1/s", "higher", 0.10}, value, samples)
	}
	for _, c := range []struct {
		a, b summary
		want string
	}{
		{sum(100, 99, 100, 101), sum(95, 94, 95, 96), "ok"},
		{sum(100, 99, 100, 101), sum(85, 84, 85, 86), "regressed"},
		{sum(100, 99, 100, 101), sum(100, 80, 100, 120), "unresolved"},
		{sum(0, 0, 0, 0), sum(100, 99, 100, 101), "unresolved"},
		{sum(100, 99, 100, 101), summary{}, "unresolved"},
	} {
		if _, got := verdict(c.a, c.b); got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.a.Samples, c.b.Samples, got, c.want)
		}
	}

	full := map[string]summary{}
	for _, d := range endToEndDefs {
		full[d.name] = summarize(d, 1, []float64{1, 1, 1})
	}
	write := func(name string, workloads ...workloadReport) string {
		data, err := json.Marshal(report{Seconds: 15, Setups: setups, Workloads: workloads})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	both := workloadReport{Name: "noop_flood", InputsSHA256: "abc", EndToEnd: full}
	base := write("a.json", both, workloadReport{Name: "spin_compute", InputsSHA256: "abc", EndToEnd: full})
	var out strings.Builder
	if err := compareReports(base, base, &out); err != nil {
		t.Errorf("a report against itself: %v\n%s", err, out.String())
	}
	for name, other := range map[string]string{
		"workload missing": write("b.json", both),
		"traced only":      write("c.json", both, workloadReport{Name: "spin_compute", InputsSHA256: "abc"}),
		"other inputs":     write("d.json", both, workloadReport{Name: "spin_compute", InputsSHA256: "xyz", EndToEnd: full}),
		"workload unknown": write("e.json", both, workloadReport{Name: "spin_compute", InputsSHA256: "abc", EndToEnd: full}, workloadReport{Name: "extra", EndToEnd: full}),
	} {
		out.Reset()
		if err := compareReports(base, other, &out); err == nil || !strings.Contains(out.String(), "unresolved") {
			t.Errorf("%s: error %v, table:\n%s", name, err, out.String())
		}
	}
}
