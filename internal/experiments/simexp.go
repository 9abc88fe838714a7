package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/workload"
)

// RunE3 measures scalability (Figure 3): speedup of a fixed batch as the
// provider fleet grows, on homogeneous devices in the simulator.
func RunE3(opts Options) (*Result, error) {
	res := &Result{ID: "E3", Title: Title("e3")}
	nTasks, fuel := 512, uint64(100_000_000)
	fleets := []int{1, 2, 4, 8, 16, 32, 64}
	if opts.Quick {
		nTasks = 128
		fleets = []int{1, 2, 4, 8, 16}
	}
	speedup := &metrics.Series{Name: "speedup", XLabel: "providers"}
	efficiency := &metrics.Series{Name: "efficiency", XLabel: "providers"}
	var base time.Duration
	for _, n := range fleets {
		stats, err := sim.Run(sim.Config{
			Devices: workload.Homogeneous(n, core.ClassDesktop, 1),
			Tasks:   workload.Batch(nTasks, fuel, core.QoC{}),
			Latency: 2 * time.Millisecond,
			Seed:    opts.seed(),
		})
		if err != nil {
			return nil, err
		}
		if stats.Completed != nTasks {
			return nil, fmt.Errorf("e3: %d/%d completed", stats.Completed, nTasks)
		}
		if n == 1 {
			base = stats.Makespan
		}
		s := float64(base) / float64(stats.Makespan)
		speedup.Append(float64(n), s)
		efficiency.Append(float64(n), s/float64(n))
		opts.logf("e3: %d providers -> makespan %v (speedup %.2f)", n, stats.Makespan, s)
	}
	res.Series = []*metrics.Series{speedup, efficiency}
	res.Notes = append(res.Notes,
		"paper expectation: near-linear speedup while tasklets outnumber slots, flattening as the batch fragments")
	return res, nil
}

// RunE4 measures heterogeneity sensitivity (Figure 4): mean tasklet
// response time under open arrivals, sweeping the fleet's speed spread, for
// each scheduling policy. Speed-aware policies win increasingly as the
// spread grows; on a homogeneous fleet all policies coincide.
func RunE4(opts Options) (*Result, error) {
	res := &Result{ID: "E4", Title: Title("e4")}
	const devices = 12
	nTasks, fuel := 600, uint64(100_000_000)
	if opts.Quick {
		nTasks = 200
	}
	spreads := []float64{1, 2, 4, 8, 16}
	policies := []string{"random", "round_robin", "fastest", "work_steal"}

	series := make(map[string]*metrics.Series, len(policies))
	for _, pol := range policies {
		series[pol] = &metrics.Series{Name: pol + " ms", XLabel: "speed spread"}
	}
	for _, spread := range spreads {
		devs := workload.SpreadFleet(devices, 100, spread, opts.seed())
		// Offered load ~50% of aggregate capacity, independent of spread.
		rate := workload.TotalSpeed(devs) * 1e6 / float64(fuel) * 0.5
		tasks := workload.Poisson(nTasks, fuel, rate, core.QoC{}, opts.seed()+1)
		for _, pol := range policies {
			p, err := scheduler.New(pol, opts.seed())
			if err != nil {
				return nil, err
			}
			stats, err := sim.Run(sim.Config{
				Devices: devs,
				Tasks:   tasks,
				Policy:  p,
				Latency: 2 * time.Millisecond,
				Seed:    opts.seed(),
			})
			if err != nil {
				return nil, err
			}
			if stats.Completed != nTasks {
				return nil, fmt.Errorf("e4: %s spread %v: %d/%d completed", pol, spread, stats.Completed, nTasks)
			}
			series[pol].Append(spread, stats.Latency.Mean)
		}
		opts.logf("e4: spread %.0fx done", spread)
	}
	for _, pol := range policies {
		res.Series = append(res.Series, series[pol])
	}
	res.Notes = append(res.Notes,
		"paper expectation: all policies tie on homogeneous fleets; speed-aware placement wins as heterogeneity grows")
	return res, nil
}

// RunE5 measures reliability under churn (Figure 5): completion rate and
// attempt overhead as provider MTBF shrinks, for each QoC level. Retries
// and redundancy mask churn at the cost of extra attempts.
func RunE5(opts Options) (*Result, error) {
	res := &Result{ID: "E5", Title: Title("e5")}
	const devices = 16
	nTasks, fuel := 400, uint64(200_000_000) // 2s per attempt at desktop speed
	if opts.Quick {
		nTasks = 150
	}
	mtbfs := []time.Duration{120 * time.Second, 60 * time.Second, 30 * time.Second, 15 * time.Second, 8 * time.Second}

	qocs := []struct {
		name string
		q    core.QoC
	}{
		{"best_effort(no retry)", core.QoC{Mode: core.QoCBestEffort, MaxRetries: -1}},
		{"best_effort(retry3)", core.QoC{Mode: core.QoCBestEffort}},
		{"redundant2", core.QoC{Mode: core.QoCRedundant, Replicas: 2}},
	}
	// MaxRetries -1 is normalized to 0 which means "default"; encode the
	// no-retry level with MaxRetries 1 instead (a single re-issue) to keep
	// a visible gradation.
	qocs[0].q = core.QoC{Mode: core.QoCBestEffort, MaxRetries: 1}

	var completion, overhead []*metrics.Series
	for _, qc := range qocs {
		cs := &metrics.Series{Name: qc.name + " %done", XLabel: "MTBF s"}
		os := &metrics.Series{Name: qc.name + " attempts/task", XLabel: "MTBF s"}
		for _, mtbf := range mtbfs {
			devs := workload.WithChurn(
				workload.Homogeneous(devices, core.ClassDesktop, 1),
				mtbf, 10*time.Second)
			stats, err := sim.Run(sim.Config{
				Devices:     devs,
				Tasks:       workload.Batch(nTasks, fuel, qc.q),
				DetectDelay: time.Second,
				Latency:     2 * time.Millisecond,
				Seed:        opts.seed(),
				MaxTime:     96 * time.Hour,
			})
			if err != nil {
				return nil, err
			}
			cs.Append(mtbf.Seconds(), 100*float64(stats.Completed)/float64(nTasks))
			os.Append(mtbf.Seconds(), float64(stats.Attempts)/float64(nTasks))
		}
		completion = append(completion, cs)
		overhead = append(overhead, os)
		opts.logf("e5: qoc %s done", qc.name)
	}
	res.Series = append(completion, overhead...)
	res.Notes = append(res.Notes,
		"paper expectation: completion degrades without retries as MTBF approaches execution time; redundancy holds completion near 100% at the cost of ~2x attempts")
	return res, nil
}

// RunE6 measures the QoC cost matrix (Table 2): attempts, wasted work and
// latency of each QoC level on a stable fleet — what a consumer pays for
// reliability it does not need.
func RunE6(opts Options) (*Result, error) {
	res := &Result{ID: "E6", Title: Title("e6")}
	const devices = 8
	nTasks, fuel := 200, uint64(100_000_000)
	if opts.Quick {
		nTasks = 80
	}
	devs := workload.Homogeneous(devices, core.ClassDesktop, 1)
	qocs := []struct {
		name string
		q    core.QoC
	}{
		{"best_effort", core.QoC{}},
		{"redundant2", core.QoC{Mode: core.QoCRedundant, Replicas: 2}},
		{"redundant3", core.QoC{Mode: core.QoCRedundant, Replicas: 3}},
		{"voting3", core.QoC{Mode: core.QoCVoting, Replicas: 3}},
		{"voting5", core.QoC{Mode: core.QoCVoting, Replicas: 5}},
	}
	for _, qc := range qocs {
		stats, err := sim.Run(sim.Config{
			Devices: devs,
			Tasks:   workload.Batch(nTasks, fuel, qc.q),
			Latency: 2 * time.Millisecond,
			Seed:    opts.seed(),
		})
		if err != nil {
			return nil, err
		}
		if stats.Completed != nTasks {
			return nil, fmt.Errorf("e6: %s: %d/%d completed", qc.name, stats.Completed, nTasks)
		}
		res.Rows = append(res.Rows, [2]string{qc.name, fmt.Sprintf(
			"attempts/task %.2f, wasted %.0f%%, mean latency %.0f ms, makespan %v",
			float64(stats.Attempts)/float64(nTasks),
			100*float64(stats.WastedAttempts)/float64(stats.Attempts),
			stats.Latency.Mean,
			stats.Makespan.Round(time.Millisecond),
		)})
		opts.logf("e6: %s done", qc.name)
	}
	res.Notes = append(res.Notes,
		"paper expectation: redundancy multiplies attempts by the replica count; voting-k launches only the majority that can decide it (the rest on disagreement, fault or loss), so an agreeing fleet pays ⌈(k+1)/2⌉ attempts and waits for that many results")
	return res, nil
}

// RunE8 measures result memoization (Figure 7): a Zipf-repeated workload —
// many submissions drawn from a small pool of distinct tasklet contents —
// swept over the Zipf skew, with the broker memo on and off. The memo turns
// repeated content into cache hits (or coalesced waiters while the first
// submission is still in flight), cutting both executed attempts and
// latency; the win grows with skew.
func RunE8(opts Options) (*Result, error) {
	res := &Result{ID: "E8", Title: Title("e8")}
	const devices = 8
	nTasks, fuel := 2000, uint64(50_000_000) // 0.5s per execution at desktop speed
	if opts.Quick {
		nTasks = 500
	}
	// A pool a quarter the draw count keeps uniform sampling from trivially
	// covering it, so the hit rate genuinely varies with skew.
	pool := nTasks / 4
	devs := workload.Homogeneous(devices, core.ClassDesktop, 1)
	// Offered load ~70% of capacity if every task executed; repeats push the
	// effective load far below that when the memo is on.
	rate := workload.TotalSpeed(devs) * 1e6 / float64(fuel) * 0.7
	skews := []float64{0, 0.5, 0.8, 1.0, 1.2, 1.5}

	hitRate := &metrics.Series{Name: "hit+coalesce %", XLabel: "zipf skew"}
	onP50 := &metrics.Series{Name: "memo on p50 ms", XLabel: "zipf skew"}
	offP50 := &metrics.Series{Name: "memo off p50 ms", XLabel: "zipf skew"}
	onP99 := &metrics.Series{Name: "memo on p99 ms", XLabel: "zipf skew"}
	offP99 := &metrics.Series{Name: "memo off p99 ms", XLabel: "zipf skew"}
	for _, s := range skews {
		tasks := workload.ZipfRepeated(nTasks, pool, s, fuel, rate, core.QoC{}, opts.seed())
		run := func(memoOn bool) (*sim.Stats, error) {
			cfg := sim.Config{Devices: devs, Tasks: tasks, Latency: 2 * time.Millisecond, Seed: opts.seed()}
			if !memoOn {
				cfg.MemoEntries, cfg.MemoBytes, cfg.MemoTTL = -1, -1, -1
			}
			return sim.Run(cfg)
		}
		on, err := run(true)
		if err != nil {
			return nil, err
		}
		off, err := run(false)
		if err != nil {
			return nil, err
		}
		if on.Completed != nTasks || off.Completed != nTasks {
			return nil, fmt.Errorf("e8: skew %v: completed on/off = %d/%d", s, on.Completed, off.Completed)
		}
		served := float64(on.CacheHits+on.Coalesced) / float64(nTasks) * 100
		hitRate.Append(s, served)
		onP50.Append(s, on.Latency.P50)
		offP50.Append(s, off.Latency.P50)
		onP99.Append(s, on.Latency.P99)
		offP99.Append(s, off.Latency.P99)
		opts.logf("e8: skew %.1f -> %.0f%% served from memo, p99 %.0fms vs %.0fms",
			s, served, on.Latency.P99, off.Latency.P99)
	}
	res.Series = []*metrics.Series{hitRate, onP50, offP50, onP99, offP99}
	res.Notes = append(res.Notes,
		"expectation: hit rate climbs with skew as mass concentrates on already-cached hot contents; memo-off latency is skew-independent (every submission executes), so the on/off gap widens with skew")
	return res, nil
}
