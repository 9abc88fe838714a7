package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if got := c.Value(); got != 0 {
		t.Fatalf("zero counter = %d, want 0", got)
	}
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	var c Counter
	c.Add(10)
	c.Add(-3)
	if got := c.Value(); got != 10 {
		t.Fatalf("counter = %d, want 10 (negative add ignored)", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
}

// TestCounterSharedConcurrentReads: broker partitions increment one shared
// counter while metric dumps read it. Every read sees a value between the
// previous read and the final total.
func TestCounterSharedConcurrentReads(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var last int64
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		got := c.Value()
		if got < last || got > workers*per {
			t.Fatalf("read %d after %d (total %d)", got, last, workers*per)
		}
		last = got
	}
	if last != workers*per {
		t.Fatalf("final read = %d, want %d", last, workers*per)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(7)
	g.Add(-10)
	if got := g.Value(); got != -3 {
		t.Fatalf("gauge = %d, want -3", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram should report zeros: %+v", h.Snapshot())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {1, 100}, {0.5, 50.5}, {-1, 1}, {2, 100},
	}
	for _, tc := range tests {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := h.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("Mean = %v, want 50.5", got)
	}
}

func TestHistogramObserveAfterQuantile(t *testing.T) {
	// Interleaving observations and quantile queries must stay correct
	// (the lazy sort must be invalidated).
	var h Histogram
	h.Observe(10)
	if got := h.Quantile(1); got != 10 {
		t.Fatalf("max = %v, want 10", got)
	}
	h.Observe(5)
	if got := h.Quantile(0); got != 5 {
		t.Fatalf("min after second observe = %v, want 5", got)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	var h Histogram
	h.ObserveDuration(1500 * time.Microsecond)
	if got := h.Mean(); math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("duration sample = %v ms, want 1.5", got)
	}
}

// Property: quantile is monotone in q and bounded by min/max.
func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, qa, qb float64) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			h.Observe(v)
		}
		qa = math.Abs(math.Mod(qa, 1))
		qb = math.Abs(math.Mod(qb, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		lo, hi := h.Quantile(qa), h.Quantile(qb)
		return lo <= hi && h.Min() <= lo && hi <= h.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: mean lies within [min, max].
func TestHistogramMeanBoundedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var h Histogram
		n := 0
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			// Clamp magnitude so that summation cannot overflow and skew the
			// mean outside [min, max]; the property targets ordinary samples.
			v = math.Mod(v, 1e12)
			h.Observe(v)
			n++
		}
		if n == 0 {
			return true
		}
		m := h.Mean()
		return m >= h.Min()-1e-6 && m <= h.Max()+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for j := 0; j < 500; j++ {
				h.Observe(r.Float64())
				if j%100 == 0 {
					_ = h.Quantile(0.9) // interleave reads
				}
			}
		}(int64(i))
	}
	wg.Wait()
	if got := h.Count(); got != 2000 {
		t.Fatalf("count = %d, want 2000", got)
	}
}

func TestSeriesAppendAndTable(t *testing.T) {
	a := &Series{Name: "random", XLabel: "providers"}
	b := &Series{Name: "fastest", XLabel: "providers"}
	for _, n := range []float64{1, 2, 4} {
		a.Append(n, 100/n)
		b.Append(n, 80/n)
	}
	b.Append(8, 10) // extra x only in one series

	out := Table(a, b)
	if !strings.Contains(out, "providers") || !strings.Contains(out, "random") {
		t.Fatalf("table missing headers:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // header + 4 x values
		t.Fatalf("table has %d lines, want 5:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[4], "-") {
		t.Fatalf("missing cell should render '-':\n%s", out)
	}
}

func TestTableEmpty(t *testing.T) {
	if got := Table(); got != "" {
		t.Fatalf("empty table = %q, want empty", got)
	}
}

func TestTableSortsX(t *testing.T) {
	s := &Series{Name: "y", XLabel: "x"}
	s.Append(4, 1)
	s.Append(1, 2)
	s.Append(2, 3)
	out := Table(s)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var xs []string
	for _, l := range lines[1:] {
		xs = append(xs, strings.Fields(l)[0])
	}
	if !sort.StringsAreSorted(xs) {
		t.Fatalf("x column not sorted: %v", xs)
	}
}

func TestRegistryReturnsSameInstance(t *testing.T) {
	var r Registry
	c1 := r.Counter("a")
	c1.Inc()
	if got := r.Counter("a").Value(); got != 1 {
		t.Fatalf("registry counter not shared: %d", got)
	}
	h1 := r.Histogram("h")
	h1.Observe(3)
	if got := r.Histogram("h").Count(); got != 1 {
		t.Fatalf("registry histogram not shared: %d", got)
	}
	g1 := r.Gauge("g")
	g1.Set(9)
	if got := r.Gauge("g").Value(); got != 9 {
		t.Fatalf("registry gauge not shared: %d", got)
	}
}

func TestRegistryDump(t *testing.T) {
	var r Registry
	r.Counter("tasks.done").Add(3)
	r.Gauge("slots.free").Set(2)
	r.Histogram("latency").Observe(1)
	out := r.Dump()
	for _, want := range []string{"counter tasks.done 3", "gauge slots.free 2", "histogram latency"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

func TestSummaryString(t *testing.T) {
	var h Histogram
	h.Observe(1)
	h.Observe(2)
	s := h.Snapshot().String()
	if !strings.Contains(s, "n=2") || !strings.Contains(s, "mean=1.500") {
		t.Fatalf("unexpected summary string: %s", s)
	}
}

func TestCSVRendering(t *testing.T) {
	a := &Series{Name: "plain", XLabel: "x"}
	b := &Series{Name: `with "quote", comma`, XLabel: "x"}
	a.Append(1, 10)
	a.Append(2, 20)
	b.Append(1, 0.5)

	out := CSV(a, b)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv = %q", out)
	}
	if lines[0] != `x,plain,"with ""quote"", comma"` {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "1,10,0.5" {
		t.Fatalf("row 1 = %q", lines[1])
	}
	if lines[2] != "2,20," { // missing cell empty
		t.Fatalf("row 2 = %q", lines[2])
	}
	if CSV() != "" {
		t.Fatal("empty CSV should be empty")
	}
}
