package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/stdtasks"
	"repro/internal/tvm"
)

// e13BurstsPerSide is how many timed bursts each side of E13's ablation
// runs; a side reports its median burst.
const e13BurstsPerSide = 5

// RunE13 ablates the partitioned broker core (lock-striped lifecycle
// partitions, each applying its results under its own mutex) on the live
// stack: two loopback stacks, one at -partitions=1 and one at GOMAXPROCS,
// take turns running saturating noop bursts, so the broker core and not the
// fleet is the bottleneck, and each side reports its median burst (E7's
// method). On a host with at least 8 usable cores a speedup under 1.5x
// fails the run; on smaller hosts the rows are informational.
func RunE13(opts Options) (*Result, error) {
	res := &Result{ID: "E13", Title: Title("e13")}

	burst := 2048
	if opts.Quick {
		burst = 512
	}
	noopData, err := stdtasks.Bytecode("noop")
	if err != nil {
		return nil, err
	}
	// The host's width is what it can run at once: GOMAXPROCS raised past
	// the CPU count (the CI matrix does that) buys no parallelism, so it
	// must not arm the gate below either.
	procs := min(runtime.GOMAXPROCS(0), runtime.NumCPU())
	sides := []int{1, procs}
	stacks := make([]*liveStack, len(sides))
	for i, p := range sides {
		stack, err := newLiveStackPartitions(4, 8, p)
		if err != nil {
			return nil, err
		}
		defer stack.close()
		stacks[i] = stack
	}
	runBurst := func(stack *liveStack) (time.Duration, error) {
		el, results, err := stack.runBatch(noopData, make([][]tvm.Value, burst), core.QoC{}, 0)
		if err != nil {
			return 0, err
		}
		for _, r := range results {
			if !r.OK() {
				return 0, fmt.Errorf("e13: live tasklet failed: %+v", r)
			}
		}
		return el, nil
	}
	// A stack's first job ships the bytecode and wakes every worker; one
	// untimed burst per side keeps that out of the medians.
	for _, stack := range stacks {
		if _, err := runBurst(stack); err != nil {
			return nil, err
		}
	}
	times := make([][]time.Duration, len(sides))
	for range e13BurstsPerSide {
		for i, stack := range stacks {
			el, err := runBurst(stack)
			if err != nil {
				return nil, err
			}
			times[i] = append(times[i], el)
		}
	}
	tputs := make([]float64, len(sides))
	for i, ts := range times {
		slices.Sort(ts)
		tputs[i] = float64(burst) / ts[len(ts)/2].Seconds()
	}
	liveOne, liveMax := tputs[0], tputs[1]
	liveRatio := liveMax / liveOne
	opts.logf("e13: live %.0f/s P=1, %.0f/s P=%d (%.2fx, GOMAXPROCS=%d)",
		liveOne, liveMax, procs, liveRatio, procs)
	res.Rows = append(res.Rows,
		[2]string{"live loopback, -partitions=1", fmt.Sprintf("%.0f tasklets/s", liveOne)},
		[2]string{fmt.Sprintf("live loopback, -partitions=%d (GOMAXPROCS)", procs), fmt.Sprintf("%.0f tasklets/s", liveMax)},
		[2]string{"live speedup", fmt.Sprintf("%.2fx", liveRatio)})
	res.Notes = append(res.Notes,
		fmt.Sprintf("each side is the median of %d alternating bursts of %d noop tasklets", e13BurstsPerSide, burst))

	if procs >= 8 {
		res.Notes = append(res.Notes,
			fmt.Sprintf("live gate active (GOMAXPROCS=%d >= 8): measured %.2fx", procs, liveRatio))
		if liveRatio < 1.5 {
			return nil, fmt.Errorf("e13: live P=%d speedup %.2fx is under the 1.5x floor on a %d-way host",
				procs, liveRatio, procs)
		}
	} else {
		res.Notes = append(res.Notes,
			fmt.Sprintf("rows informational on this %d-way host (the 1.5x gate requires GOMAXPROCS >= 8)", procs))
	}
	return res, nil
}
