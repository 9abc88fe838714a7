package broker

import (
	"testing"

	"repro/internal/consumer"
	"repro/internal/metrics"
	"repro/internal/provider"
)

// TestDifferentialBatchingBitIdentical runs one deterministic job through
// the batched control plane and checks it against the known answers: every
// result OK with the right value, and the providers really did decode
// AssignBatch frames. (It used to compare against a second run with batch
// frames switched off; that switch is gone, the result checks stayed.)
func TestDifferentialBatchingBitIdentical(t *testing.T) {
	regs := make([]*metrics.Registry, 3)
	addr := testStack(t, Options{}, 3, func(i int) provider.Options {
		regs[i] = &metrics.Registry{}
		return provider.Options{Slots: 2, Speed: 100, Metrics: regs[i]}
	})
	c, err := consumer.Connect(addr, "diff")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 96
	job, err := c.Submit(compileJob(t, squareSrc, intRows(n)...))
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Collect(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	checkSquares(t, res, n)
	// One Submit queues 96 tasklets before the first placement pass runs, so
	// the pass must group ≥2 assignments per provider into AssignBatches.
	var batches int64
	for _, reg := range regs {
		batches += reg.Counter("provider.batches.received").Value()
	}
	if batches == 0 {
		t.Fatal("providers decoded no AssignBatch frames")
	}
}
