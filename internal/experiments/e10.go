package experiments

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/scheduler"
)

// e10Fleet builds P provider infos with varied speeds and backlogs, the
// same shape the scheduler benchmarks use.
func e10Fleet(p int) ([]*core.ProviderInfo, []scheduler.Candidate) {
	infos := make([]*core.ProviderInfo, p)
	cands := make([]scheduler.Candidate, p)
	for i := range infos {
		infos[i] = &core.ProviderInfo{
			ID:          core.ProviderID(i + 1),
			Speed:       float64(1 + (i*37)%100),
			Slots:       4,
			Reliability: 1,
		}
		cands[i] = scheduler.Candidate{Info: infos[i], FreeSlots: 4, Backlog: i % 4}
	}
	return infos, cands
}

// e10IndexedPick times one full indexed placement decision (Pick + Assign +
// Complete) at fleet size p, returning ns/pick.
func e10IndexedPick(p int) (float64, error) {
	pol := scheduler.NewWorkSteal()
	ix, err := scheduler.NewIndexFor(pol)
	if err != nil {
		return 0, err
	}
	infos, _ := e10Fleet(p)
	for i, info := range infos {
		ix.Upsert(info, 4, i%4)
	}
	task := &core.Tasklet{Fuel: 1_000_000}
	const iters = 100_000
	start := time.Now()
	for i := 0; i < iters; i++ {
		id, ok := ix.Pick(task, nil)
		if !ok {
			return 0, fmt.Errorf("e10: indexed pick failed at P=%d", p)
		}
		ix.Assign(id)
		ix.Complete(id)
	}
	return float64(time.Since(start)) / iters, nil
}

// e10LegacyPick times one reference filter-and-sort placement decision
// (Policy.Pick over a candidate snapshot) at fleet size p, returning ns/pick.
func e10LegacyPick(p int) (float64, error) {
	pol := scheduler.NewWorkSteal()
	_, cands := e10Fleet(p)
	req := scheduler.Request{Tasklet: &core.Tasklet{Fuel: 1_000_000}}
	iters := 2_000_000 / p
	if iters < 50 {
		iters = 50
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, ok := pol.Pick(req, cands); !ok {
			return 0, fmt.Errorf("e10: legacy pick failed at P=%d", p)
		}
	}
	return float64(time.Since(start)) / float64(iters), nil
}

// RunE10 measures placement cost versus fleet size (Figure 9): per-pick
// latency of the incremental scheduler index — the one placement path the
// broker and the simulator run — against the reference filter-and-sort
// Policy.Pick, and allocs-per-pick rows. The broker mediates every
// placement, so this is the constant that caps task-throughput scaling at
// paper-scale fleets.
func RunE10(opts Options) (*Result, error) {
	res := &Result{ID: "E10", Title: Title("e10")}

	fleets := []int{100, 1000, 10000}
	if opts.Quick {
		fleets = []int{100, 1000}
	}

	// Series 1/2: ns per placement decision vs fleet size.
	idxNS := &metrics.Series{Name: "ns/pick (indexed)", XLabel: "providers"}
	legNS := &metrics.Series{Name: "ns/pick (legacy)", XLabel: "providers"}
	var speedupAtMax float64
	for _, p := range fleets {
		in, err := e10IndexedPick(p)
		if err != nil {
			return nil, err
		}
		ln, err := e10LegacyPick(p)
		if err != nil {
			return nil, err
		}
		idxNS.Append(float64(p), in)
		legNS.Append(float64(p), ln)
		speedupAtMax = ln / in
		opts.logf("e10: P=%d placement %.0f ns indexed, %.0f ns legacy (%.0fx)", p, in, ln, ln/in)
	}
	res.Series = append(res.Series, idxNS, legNS)

	// Allocation rows: the indexed pick cycle must be allocation-free; the
	// reference scan reuses its scratch after warm-up.
	pMax := fleets[len(fleets)-1]
	pol := scheduler.NewWorkSteal()
	ix, err := scheduler.NewIndexFor(pol)
	if err != nil {
		return nil, err
	}
	infos, cands := e10Fleet(pMax)
	for i, info := range infos {
		ix.Upsert(info, 4, i%4)
	}
	task := &core.Tasklet{Fuel: 1_000_000}
	idxAllocs := testing.AllocsPerRun(100, func() {
		id, _ := ix.Pick(task, nil)
		ix.Assign(id)
		ix.Complete(id)
	})
	req := scheduler.Request{Tasklet: task}
	pol.Pick(req, cands) // warm the eligible scratch
	legAllocs := testing.AllocsPerRun(20, func() { pol.Pick(req, cands) })

	res.Rows = append(res.Rows,
		[2]string{"allocs/pick (indexed)", fmt.Sprintf("%.1f", idxAllocs)},
		[2]string{"allocs/pick (legacy, warm)", fmt.Sprintf("%.1f", legAllocs)},
	)
	res.Notes = append(res.Notes,
		fmt.Sprintf("indexed placement is %.0fx faster than the legacy scan at P=%d", speedupAtMax, pMax))
	return res, nil
}
