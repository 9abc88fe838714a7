package broker

import (
	"fmt"
	"testing"

	"repro/internal/consumer"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/provider"
	"repro/internal/scheduler"
)

// TestBrokerIndexDifferential runs a redundant-QoC job over a heterogeneous
// fleet through the placement index under the fastest-free policy and checks
// every result status and value. Memoization is disabled so every tasklet
// really goes through placement. Live timing interleaves passes and result
// arrivals differently run to run (a redundant replica may or may not launch
// before the first result finalizes its tracker), so attempt counts are only
// sanity-bounded; the pick-sequence identity between the index and
// Policy.Pick is pinned by the deterministic scheduler differential test.
func TestBrokerIndexDifferential(t *testing.T) {
	reg := &metrics.Registry{}
	addr := testStack(t,
		Options{
			Policy:      scheduler.NewFastestFree(),
			Metrics:     reg,
			MemoEntries: -1, MemoBytes: -1, MemoTTL: -1,
		},
		4,
		func(i int) provider.Options {
			return provider.Options{
				Slots: 1 + i%2, Speed: float64(50 * (i + 1)),
				Name: fmt.Sprintf("p%d", i),
			}
		})
	c, err := consumer.Connect(addr, "diff")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 48
	spec := compileJob(t, squareSrc, intRows(n)...)
	spec.QoC = core.QoC{Mode: core.QoCRedundant, Replicas: 2}
	job, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Collect(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	checkSquares(t, res, n)
	// Every tasklet needs at least one real launch, and never more than its
	// two replicas.
	if launched := reg.Counter("attempts.launched").Value(); launched < n || launched > 2*n {
		t.Errorf("attempts launched: %d, want %d..%d", launched, n, 2*n)
	}
}

// TestBrokerPlacementMetrics checks the observability satellites: a
// placement burst must populate the sched-pass histogram, the placed
// counter, and leave the pending-depth gauge at zero once drained.
func TestBrokerPlacementMetrics(t *testing.T) {
	opts := Options{MemoEntries: -1, MemoBytes: -1, MemoTTL: -1}
	b := New(opts)
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	p, err := provider.Connect(provider.Options{BrokerAddr: addr, Slots: 2, Speed: 100, Name: "p0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })

	c, err := consumer.Connect(addr, "metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rows := make([][]int64, 16)
	for i := range rows {
		rows[i] = []int64{int64(i)}
	}
	job, err := c.Submit(compileJob(t, squareSrc, rows...))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Collect(ctxT(t)); err != nil {
		t.Fatal(err)
	}

	reg := b.Metrics()
	if n := reg.Histogram("broker.sched_pass_ns").Count(); n == 0 {
		t.Error("broker.sched_pass_ns recorded no passes")
	}
	if placed := reg.Counter("broker.placed_per_pass").Value(); placed < int64(len(rows)) {
		t.Errorf("broker.placed_per_pass = %d, want >= %d", placed, len(rows))
	}
	if depth := reg.Gauge("broker.pending_depth").Value(); depth != 0 {
		t.Errorf("broker.pending_depth = %d after drain, want 0", depth)
	}
}
