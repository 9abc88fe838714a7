package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"time"
)

// TestHistQuantileError checks the histogram against an exact sort: every
// quantile must be within 1 % of the sample of the same rank, on data that
// spans nanoseconds to minutes.
func TestHistQuantileError(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	shapes := map[string]func() int64{
		"log-uniform": func() int64 { return int64(math.Exp(r.Float64() * math.Log(120e9))) },
		"uniform":     func() int64 { return r.Int64N(5_000_000) },
		"bimodal": func() int64 {
			if r.IntN(100) == 0 {
				return 40_000_000 + r.Int64N(1_000_000)
			}
			return 50_000 + r.Int64N(5_000)
		},
		"tiny": func() int64 { return r.Int64N(300) },
	}
	for name, draw := range shapes {
		var h, a, b hist
		exact := make([]int64, 200_000)
		for i := range exact {
			exact[i] = draw()
			h.record(time.Duration(exact[i]))
			if i%2 == 0 {
				a.record(time.Duration(exact[i]))
			} else {
				b.record(time.Duration(exact[i]))
			}
		}
		a.merge(&b)
		sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
		for _, q := range []float64{0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			want := float64(exact[int(math.Ceil(q*float64(len(exact))))-1])
			for which, got := range map[string]float64{"direct": h.quantile(q), "merged": a.quantile(q)} {
				if diff := math.Abs(got - want); diff > 0.01*want && diff > 0.5 {
					t.Errorf("%s %s q=%g: got %g, exact %g (%.2f%% off)", name, which, q, got, want, 100*diff/want)
				}
			}
		}
	}
}

func TestHistFixedMemory(t *testing.T) {
	var h hist
	d := time.Duration(1)
	if n := testing.AllocsPerRun(1000, func() { h.record(d); d = d*3/2 + 1 }); n != 0 {
		t.Errorf("record allocates %v times per call", n)
	}
	h.record(-5) // clamps to zero instead of indexing out of range
	h.record(math.MaxInt64)
}

func TestHistTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    uint64
		want float64
	}{{5, 1}, {10, 1}, {400, 0.975}, {1000, 0.99}, {100000, 0.99}} {
		h := hist{n: c.n}
		if got := h.tailQuantile(); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("n=%d: tail quantile %g, want %g", c.n, got, c.want)
		}
	}
}
