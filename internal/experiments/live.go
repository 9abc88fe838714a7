package experiments

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/broker"
	"repro/internal/consumer"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/provider"
	"repro/internal/stdtasks"
	"repro/internal/tasklang"
	"repro/internal/tvm"
)

// liveStack is a broker + providers + consumer on loopback, the "real
// middleware" half of the evaluation (overhead and throughput numbers need
// real sockets and real serialization).
type liveStack struct {
	broker    *broker.Broker
	providers []*provider.Provider
	client    *consumer.Client
}

func newLiveStack(nProviders, slots int) (*liveStack, error) {
	return newLiveStackPartitions(nProviders, slots, 0)
}

// newLiveStackPartitions additionally pins the broker's lock-striped
// partition count (0 = GOMAXPROCS, 1 = one stripe); E13 runs one stack at
// each end and alternates noop bursts between them.
func newLiveStackPartitions(nProviders, slots, partitions int) (*liveStack, error) {
	// E1/E2/E7/E9 measure the raw dispatch path with repeated identical
	// tasklets; the result memo would serve those from cache and measure
	// the wrong thing, so it is disabled here. E8 covers the memo.
	s := &liveStack{broker: broker.New(broker.Options{
		MemoEntries: -1, MemoBytes: -1, MemoTTL: -1,
		Partitions: partitions,
	})}
	addr, err := s.broker.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	for i := 0; i < nProviders; i++ {
		p, err := provider.Connect(provider.Options{
			BrokerAddr: addr, Slots: slots, Speed: 100,
			Name: fmt.Sprintf("bench-%d", i),
		})
		if err != nil {
			s.close()
			return nil, err
		}
		s.providers = append(s.providers, p)
	}
	c, err := consumer.Connect(addr, "experiments")
	if err != nil {
		s.close()
		return nil, err
	}
	s.client = c
	return s, nil
}

func (s *liveStack) close() {
	if s.client != nil {
		s.client.Close()
	}
	for _, p := range s.providers {
		p.Close()
	}
	if s.broker != nil {
		s.broker.Close()
	}
}

// runBatch submits one job of n identical tasklets and waits. fuel 0
// selects the broker default.
func (s *liveStack) runBatch(prog []byte, params [][]tvm.Value, q core.QoC, fuel uint64) (time.Duration, []consumer.TaskResult, error) {
	start := time.Now()
	job, err := s.client.Submit(core.JobSpec{Program: prog, Params: params, QoC: q, Seed: 1, Fuel: fuel})
	if err != nil {
		return 0, nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	res, err := job.Collect(ctx)
	if err != nil {
		return 0, nil, err
	}
	return time.Since(start), res, nil
}

// RunE1 measures the middleware's micro-overheads (Table 1): compilation,
// local VM dispatch, interpretation slowdown vs native Go, and the full
// submit-to-result round trip over real loopback sockets.
func RunE1(opts Options) (*Result, error) {
	res := &Result{ID: "E1", Title: Title("e1")}

	// Compilation cost (mandelbrot is the largest standard program).
	src := stdtasks.Sources["mandelbrot"]
	compileReps := 200
	if opts.Quick {
		compileReps = 50
	}
	start := time.Now()
	for i := 0; i < compileReps; i++ {
		if _, err := tasklang.Compile(src); err != nil {
			return nil, err
		}
	}
	compileUS := float64(time.Since(start).Microseconds()) / float64(compileReps)
	res.Rows = append(res.Rows, [2]string{"TCL compile (mandelbrot)", fmt.Sprintf("%.1f µs", compileUS)})

	data, err := stdtasks.Bytecode("mandelbrot")
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, [2]string{"bytecode size (mandelbrot)", fmt.Sprintf("%d bytes", len(data))})

	// Local VM dispatch: a noop tasklet end to end in-process.
	noop := stdtasks.MustProgram("noop")
	dispatchReps := 20000
	if opts.Quick {
		dispatchReps = 2000
	}
	start = time.Now()
	for i := 0; i < dispatchReps; i++ {
		if _, err := tvm.New(noop, tvm.DefaultConfig()).Run(); err != nil {
			return nil, err
		}
	}
	res.Rows = append(res.Rows, [2]string{"TVM dispatch (noop, local)",
		fmt.Sprintf("%.2f µs", float64(time.Since(start).Microseconds())/float64(dispatchReps))})

	// Interpretation overhead: spin kernel in the VM vs native Go.
	iters := int64(3_000_000)
	if opts.Quick {
		iters = 300_000
	}
	spin := stdtasks.MustProgram("spin")
	start = time.Now()
	vmRes, err := tvm.New(spin, tvm.DefaultConfig()).Run(tvm.Int(iters))
	if err != nil {
		return nil, err
	}
	vmTime := time.Since(start)
	start = time.Now()
	native := stdtasks.RefSpin(iters)
	nativeTime := time.Since(start)
	if native != vmRes.Return.I {
		return nil, fmt.Errorf("e1: spin mismatch vm=%d native=%d", vmRes.Return.I, native)
	}
	slowdown := float64(vmTime) / float64(nativeTime)
	res.Rows = append(res.Rows,
		[2]string{"VM ops/sec (spin kernel)", fmt.Sprintf("%.1f Mops/s", float64(vmRes.FuelUsed)/vmTime.Seconds()/1e6)},
		[2]string{"interpretation slowdown vs native Go", fmt.Sprintf("%.1fx", slowdown)},
	)

	// Full round trip over loopback: noop tasklets, one at a time.
	stack, err := newLiveStack(1, 1)
	if err != nil {
		return nil, err
	}
	defer stack.close()
	noopData, err := stdtasks.Bytecode("noop")
	if err != nil {
		return nil, err
	}
	rtReps := 200
	if opts.Quick {
		rtReps = 40
	}
	var rt metrics.Histogram
	for i := 0; i < rtReps; i++ {
		start := time.Now()
		if _, _, err := stack.runBatch(noopData, [][]tvm.Value{{}}, core.QoC{}, 0); err != nil {
			return nil, err
		}
		rt.ObserveDuration(time.Since(start))
	}
	snap := rt.Snapshot()
	res.Rows = append(res.Rows,
		[2]string{"submit→result round trip (noop, loopback)",
			fmt.Sprintf("p50 %.2f ms, p99 %.2f ms", snap.P50, snap.P99)},
	)
	res.Notes = append(res.Notes,
		"paper expectation: sub-millisecond VM dispatch, single-digit-ms round trip, interpreter 10-100x native")
	return res, nil
}

// RunE2 measures the offload crossover (Figure 2): a weak consumer device
// (mobile class, 4x slower than the provider) either runs a tasklet locally
// or offloads it over loopback. Offload pays once compute time exceeds the
// round-trip overhead.
func RunE2(opts Options) (*Result, error) {
	res := &Result{ID: "E2", Title: Title("e2")}
	stack, err := newLiveStack(1, 1)
	if err != nil {
		return nil, err
	}
	defer stack.close()

	spin := stdtasks.MustProgram("spin")
	spinData, err := stdtasks.Bytecode("spin")
	if err != nil {
		return nil, err
	}

	sizes := []int64{100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000}
	if opts.Quick {
		sizes = sizes[:5]
	}
	mobileSlowdown := 1 / core.ClassSpeedFactor(core.ClassMobile)

	// Loopback RTTs (~50µs) are far below any real deployment; the LAN
	// series adds the 2ms round trip of a typical office network, which
	// is where the paper's crossover lives. The raw series shows the
	// middleware's own overhead floor.
	const lanRTT = 2 * time.Millisecond

	local := &metrics.Series{Name: "local(mobile) ms", XLabel: "spin iters"}
	remote := &metrics.Series{Name: "offload(loopback) ms", XLabel: "spin iters"}
	remoteLAN := &metrics.Series{Name: "offload(LAN 2ms) ms", XLabel: "spin iters"}
	var crossover int64 = -1
	for _, n := range sizes {
		// Local on the weak device: measured fast-host VM time scaled by
		// the mobile class factor (the provider in this stack represents
		// the fast host; the weak device is emulated). Best of 5 to match
		// the remote measurement discipline.
		var bestLocal time.Duration
		localCfg := tvm.DefaultConfig()
		localCfg.Fuel = 1 << 40 // the largest swept size exceeds the default budget
		for r := 0; r < 5; r++ {
			start := time.Now()
			if _, err := tvm.New(spin, localCfg).Run(tvm.Int(n)); err != nil {
				return nil, err
			}
			if el := time.Since(start); bestLocal == 0 || el < bestLocal {
				bestLocal = el
			}
		}
		localMS := bestLocal.Seconds() * 1e3 * mobileSlowdown

		reps := 5
		var best time.Duration
		for r := 0; r < reps; r++ {
			el, results, err := stack.runBatch(spinData, [][]tvm.Value{{tvm.Int(n)}}, core.QoC{}, 1<<40)
			if err != nil {
				return nil, err
			}
			if !results[0].OK() {
				return nil, fmt.Errorf("e2: tasklet failed: %+v", results[0])
			}
			if best == 0 || el < best {
				best = el
			}
		}
		remoteMS := best.Seconds() * 1e3

		lanMS := remoteMS + lanRTT.Seconds()*1e3
		local.Append(float64(n), localMS)
		remote.Append(float64(n), remoteMS)
		remoteLAN.Append(float64(n), lanMS)
		if crossover < 0 && lanMS < localMS {
			crossover = n
		}
	}
	res.Series = []*metrics.Series{local, remote, remoteLAN}
	if crossover >= 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("over a 2ms-RTT LAN, offload beats local execution from ~%d iterations", crossover))
	} else {
		res.Notes = append(res.Notes, "no crossover in the swept range (overhead dominates)")
	}
	res.Notes = append(res.Notes,
		"paper expectation: offload loses on tiny tasklets and wins beyond a workload-size threshold")
	return res, nil
}

// e7Rounds is how many timed units make one point of E7's sweep.
const e7Rounds = 5

// RunE7 measures broker throughput and queueing (Figure 6): batches of
// empty tasklets through a live stack; tasklets/second versus batch size.
func RunE7(opts Options) (*Result, error) {
	res := &Result{ID: "E7", Title: Title("e7")}
	stack, err := newLiveStack(4, 8)
	if err != nil {
		return nil, err
	}
	defer stack.close()

	noopData, err := stdtasks.Bytecode("noop")
	if err != nil {
		return nil, err
	}
	sizes := []int{64, 256, 1024, 4096}
	if opts.Quick {
		sizes = []int{64, 256, 1024}
	}
	// The stack's first job ships the bytecode, decodes and optimizes it and
	// wakes every worker; one untimed batch keeps that out of the first point.
	if _, _, err := stack.runBatch(noopData, make([][]tvm.Value, sizes[0]), core.QoC{}, 0); err != nil {
		return nil, err
	}
	// Every timed unit is the same work: maxN tasklets, as maxN/n back-to-back
	// batches of n. On a host shared with other busy processes, a unit shorter
	// than the OS time slice runs uncontended while a longer one runs at its
	// fair share of the CPUs, so units of unequal length would read a
	// several-fold gap between batch sizes that is only the competition
	// around them. Rounds run every size once, and a point is its size's
	// median round, so a disturbance lasting a round hits every point alike.
	maxN := sizes[len(sizes)-1]
	times := make([][]time.Duration, len(sizes))
	for round := 0; round < e7Rounds; round++ {
		for i, n := range sizes {
			var unit time.Duration
			for k := 0; k < maxN/n; k++ {
				el, results, err := stack.runBatch(noopData, make([][]tvm.Value, n), core.QoC{}, 0)
				if err != nil {
					return nil, err
				}
				for _, r := range results {
					if !r.OK() {
						return nil, fmt.Errorf("e7: batch of %d: tasklet %d failed: %s", n, r.Index, r.Fault)
					}
				}
				unit += el
			}
			times[i] = append(times[i], unit/time.Duration(maxN/n))
		}
	}
	tput := &metrics.Series{Name: "tasklets/s", XLabel: "batch size"}
	lat := &metrics.Series{Name: "mean latency ms", XLabel: "batch size"}
	for i, n := range sizes {
		slices.Sort(times[i])
		el := times[i][len(times[i])/2]
		tput.Append(float64(n), float64(n)/el.Seconds())
		lat.Append(float64(n), el.Seconds()*1e3/float64(n))
		opts.logf("e7: batch %d -> %.0f tasklets/s", n, float64(n)/el.Seconds())
	}
	res.Series = []*metrics.Series{tput, lat}
	res.Notes = append(res.Notes,
		"paper expectation: throughput grows with batch size until the broker saturates, then flattens")
	return res, nil
}
