package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the metric tables in
// report.go and workloads.go must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []benchmarkMetric            `json:"end_to_end"`
	PerLayer  []benchmarkMetric            `json:"per_layer"`
}

type benchmarkMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func checkDefs(t *testing.T, kind string, defs []metricDef, listed []benchmarkMetric) {
	t.Helper()
	if len(defs) != len(listed) {
		t.Fatalf("%s: %d metrics in the code, %d in BENCHMARK.json", kind, len(defs), len(listed))
	}
	for i, d := range defs {
		if got := (metricDef{listed[i].Name, listed[i].Unit, listed[i].Better, listed[i].Bound}); got != d {
			t.Errorf("%s[%d]: BENCHMARK.json has %+v, the code %+v", kind, i, got, d)
		}
	}
}

// TestSmoke runs all five workloads end to end with 300 ms windows. It
// asserts the schema, that every result verified, and that a seed fixes the
// inputs; it asserts nothing about timing.
func TestSmoke(t *testing.T) {
	listed := loadBenchmarkJSON(t)
	checkDefs(t, "end_to_end", endToEndDefs, listed.EndToEnd)
	checkDefs(t, "per_layer", perLayerDefs, listed.PerLayer)
	if len(listed.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the code, %d in BENCHMARK.json", len(workloads), len(listed.Workloads))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			if listed.Workloads[i].Name != w.name || listed.Workloads[i].Why != w.why {
				t.Errorf("BENCHMARK.json workload %d is %+v, the code has %q: %q", i, listed.Workloads[i], w.name, w.why)
			}
			in, err := makeInputs(w, 7)
			if err != nil {
				t.Fatal(err)
			}
			again, err := makeInputs(w, 7)
			if err != nil {
				t.Fatal(err)
			}
			other, err := makeInputs(w, 8)
			if err != nil {
				t.Fatal(err)
			}
			if in.sha256 != again.sha256 {
				t.Errorf("seed 7 gave inputs %s then %s", in.sha256, again.sha256)
			}
			if random := w.draw != nil; random == (in.sha256 == other.sha256) {
				t.Errorf("random inputs: %v, but seeds 7 and 8 gave %s and %s", random, in.sha256, other.sha256)
			}

			rep := workloadReport{Name: w.name}
			if err := measureEndToEnd(w, in, 0.3, 2, &rep); err != nil {
				t.Fatal(err)
			}
			if err := measureLayers(w, in, 0.9, "", &rep); err != nil {
				t.Fatal(err)
			}
			for _, c := range []counts{*rep.Counts, rep.Traced.Counts} {
				if c.FailedFrac != 0 || c.Attempted == 0 {
					t.Errorf("result verification: %+v", c)
				}
			}
			if (len(rep.Traced.METG) != 0) != w.metg {
				t.Errorf("METG sweep of %d grains, carries the sweep: %v", len(rep.Traced.METG), w.metg)
			}
			if len(rep.EndToEnd) != len(endToEndDefs) || len(rep.PerLayer) != len(perLayerDefs) {
				t.Errorf("reported %d end-to-end and %d per-layer metrics, want %d and %d",
					len(rep.EndToEnd), len(rep.PerLayer), len(endToEndDefs), len(perLayerDefs))
			}
			for name := range rep.EndToEnd {
				if !nameRE.MatchString(name) {
					t.Errorf("bad metric name %q", name)
				}
			}
			for name := range rep.PerLayer {
				if !nameRE.MatchString(name) {
					t.Errorf("bad metric name %q", name)
				}
			}
		})
	}
}
