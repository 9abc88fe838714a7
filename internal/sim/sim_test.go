package sim

import (
	"container/heap"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scheduler"
)

// --- event engine ---

func TestEventOrdering(t *testing.T) {
	e := newEngine(1)
	var order []int
	e.at(30*time.Millisecond, func() { order = append(order, 3) })
	e.at(10*time.Millisecond, func() { order = append(order, 1) })
	e.at(20*time.Millisecond, func() { order = append(order, 2) })
	e.run(time.Hour)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.now != 30*time.Millisecond {
		t.Fatalf("clock = %v", e.now)
	}
}

func TestEventFIFOAmongEqualTimes(t *testing.T) {
	e := newEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.at(time.Millisecond, func() { order = append(order, i) })
	}
	e.run(time.Hour)
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events reordered: %v", order)
		}
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := newEngine(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			e.after(time.Second, tick)
		}
	}
	e.after(0, tick)
	e.run(time.Hour)
	if count != 5 {
		t.Fatalf("count = %d", count)
	}
	if e.now != 4*time.Second {
		t.Fatalf("clock = %v", e.now)
	}
}

func TestRunStopsAtMaxTime(t *testing.T) {
	e := newEngine(1)
	fired := false
	e.at(time.Hour, func() { fired = true })
	if e.run(time.Minute) {
		t.Fatal("run claimed completion")
	}
	if fired {
		t.Fatal("event beyond max fired")
	}
}

func TestHeapProperty(t *testing.T) {
	e := newEngine(42)
	var h eventHeap
	for i := 0; i < 500; i++ {
		heap.Push(&h, &event{at: time.Duration(e.next64() % 1000), seq: uint64(i)})
	}
	last := time.Duration(-1)
	for h.Len() > 0 {
		ev := heap.Pop(&h).(*event)
		if ev.at < last {
			t.Fatal("heap pop out of order")
		}
		last = ev.at
	}
}

func TestExponentialProperties(t *testing.T) {
	e := newEngine(7)
	mean := 10 * time.Second
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		d := e.exponential(mean)
		if d < 0 {
			t.Fatal("negative exponential sample")
		}
		sum += d
	}
	got := float64(sum) / n
	if math.Abs(got-float64(mean)) > 0.05*float64(mean) {
		t.Fatalf("sample mean %v, want ~%v", time.Duration(got), mean)
	}
	if e.exponential(0) != 0 {
		t.Fatal("zero mean should yield zero")
	}
}

// --- full simulations ---

func uniformTasks(n int, fuel uint64) []TaskSpec {
	tasks := make([]TaskSpec, n)
	for i := range tasks {
		tasks[i] = TaskSpec{Fuel: fuel}
	}
	return tasks
}

func homogeneous(n, slots int, speed float64) []DeviceSpec {
	devs := make([]DeviceSpec, n)
	for i := range devs {
		devs[i] = DeviceSpec{Class: core.ClassDesktop, Slots: slots, Speed: speed}
	}
	return devs
}

func TestSimBasicCompletion(t *testing.T) {
	stats, err := Run(Config{
		Devices: homogeneous(1, 1, 100),
		Tasks:   uniformTasks(10, 100_000_000), // 1s each at 100 Mops/s
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 10 || stats.Failed != 0 {
		t.Fatalf("completed/failed = %d/%d", stats.Completed, stats.Failed)
	}
	// Serial execution on one slot: makespan = 10s (+latency ~0).
	if stats.Makespan < 9*time.Second || stats.Makespan > 11*time.Second {
		t.Fatalf("makespan = %v, want ~10s", stats.Makespan)
	}
	if stats.Attempts != 10 {
		t.Fatalf("attempts = %d", stats.Attempts)
	}
}

func TestSimDeterministicPerSeed(t *testing.T) {
	cfg := Config{
		Devices: []DeviceSpec{
			{Class: core.ClassServer, Slots: 2, MTBF: 30 * time.Second, MTTR: 5 * time.Second},
			{Class: core.ClassMobile, Slots: 1, MTBF: 20 * time.Second, MTTR: 10 * time.Second},
			{Class: core.ClassDesktop, Slots: 1},
		},
		Tasks:  uniformTasks(200, 50_000_000),
		Policy: scheduler.NewRandom(3),
		Seed:   99,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Policy = scheduler.NewRandom(3) // fresh policy state
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.Attempts != b.Attempts ||
		a.LostAttempts != b.LostAttempts || a.Completed != b.Completed {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

func TestSimSpeedupWithMoreDevices(t *testing.T) {
	makespan := func(n int) time.Duration {
		stats, err := Run(Config{
			Devices: homogeneous(n, 1, 100),
			Tasks:   uniformTasks(64, 50_000_000),
			Seed:    1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats.Makespan
	}
	m1, m2, m4 := makespan(1), makespan(2), makespan(4)
	if s := float64(m1) / float64(m2); s < 1.8 || s > 2.2 {
		t.Fatalf("2-device speedup = %.2f, want ~2", s)
	}
	if s := float64(m1) / float64(m4); s < 3.5 || s > 4.5 {
		t.Fatalf("4-device speedup = %.2f, want ~4", s)
	}
}

func TestSimMultiSlotDeviceParallelism(t *testing.T) {
	one, err := Run(Config{
		Devices: homogeneous(1, 1, 100),
		Tasks:   uniformTasks(16, 100_000_000),
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	four, err := Run(Config{
		Devices: homogeneous(1, 4, 100),
		Tasks:   uniformTasks(16, 100_000_000),
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := float64(one.Makespan) / float64(four.Makespan); s < 3.5 {
		t.Fatalf("4-slot speedup = %.2f, want ~4", s)
	}
}

func TestSimFastPolicyBeatsRandomOnHeterogeneousFleet(t *testing.T) {
	// With an open arrival process at moderate load, speed-aware placement
	// sends work to fast devices while random wastes it on phones; the
	// mean response time separates the policies. (With a closed batch of
	// identical tasklets every work-conserving policy yields the same
	// makespan, so latency — not makespan — is the discriminating metric.)
	devices := []DeviceSpec{
		{Class: core.ClassServer, Slots: 2},
		{Class: core.ClassDesktop, Slots: 1},
		{Class: core.ClassLaptop, Slots: 1},
		{Class: core.ClassMobile, Slots: 1},
		{Class: core.ClassMobile, Slots: 1},
	}
	// Aggregate capacity: 610 Mops/s. Offered load ~40%: one 100 Mop task
	// every 400ms.
	tasks := uniformTasks(150, 100_000_000)
	for i := range tasks {
		tasks[i].Arrival = time.Duration(i) * 400 * time.Millisecond
	}
	run := func(p scheduler.Policy) float64 {
		stats, err := Run(Config{Devices: devices, Tasks: tasks, Policy: p, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Completed != 150 {
			t.Fatalf("completed = %d", stats.Completed)
		}
		return stats.Latency.Mean
	}
	random := run(scheduler.NewRandom(1))
	fastest := run(scheduler.NewFastestFree())
	if fastest >= random {
		t.Fatalf("fastest mean latency (%.1fms) should beat random (%.1fms)", fastest, random)
	}
	if random/fastest < 1.5 {
		t.Fatalf("expected a pronounced gap on this fleet: fastest=%.1fms random=%.1fms", fastest, random)
	}
}

func TestSimChurnWithRetriesCompletes(t *testing.T) {
	stats, err := Run(Config{
		Devices: []DeviceSpec{
			{Class: core.ClassDesktop, Slots: 1, MTBF: 5 * time.Second, MTTR: 2 * time.Second},
			{Class: core.ClassDesktop, Slots: 1, MTBF: 5 * time.Second, MTTR: 2 * time.Second},
			{Class: core.ClassDesktop, Slots: 1},
		},
		Tasks:       uniformTasks(100, 50_000_000),
		DetectDelay: 500 * time.Millisecond,
		Seed:        11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 100 {
		t.Fatalf("completed = %d, want 100 (retries should mask churn)", stats.Completed)
	}
	if stats.LostAttempts == 0 {
		t.Fatal("churny fleet lost no attempts; churn injection broken")
	}
	if stats.Attempts <= 100 {
		t.Fatalf("attempts = %d, want > 100 (re-issues)", stats.Attempts)
	}
}

func TestSimVotingDefeatsFaultyMinority(t *testing.T) {
	stats, err := Run(Config{
		Devices: []DeviceSpec{
			{Class: core.ClassDesktop, Slots: 2},
			{Class: core.ClassDesktop, Slots: 2},
			{Class: core.ClassDesktop, Slots: 2, Faulty: true},
		},
		Tasks: func() []TaskSpec {
			ts := uniformTasks(50, 10_000_000)
			for i := range ts {
				ts[i].QoC = core.QoC{Mode: core.QoCVoting, Replicas: 3}
			}
			return ts
		}(),
		Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 50 {
		t.Fatalf("completed = %d, want 50 (honest majority must win)", stats.Completed)
	}
	// Every tasklet needs its majority of 2; one that drew the faulty device
	// needs the third replica too, and nothing here spends a retry.
	if stats.Attempts < 100 || stats.Attempts > 150 {
		t.Fatalf("attempts = %d, want 2n..3n for n = 50", stats.Attempts)
	}
	if stats.DeviceExecuted[2] == 0 {
		t.Fatal("the faulty device never voted: the scenario tests nothing")
	}
	for i, f := range stats.Finals {
		if !f.OK() || f.Return.I != int64(i+1) {
			t.Fatalf("final %d = %+v, want the canonical result %d (a faulty vote was accepted)", i, f, i+1)
		}
	}
}

func TestSimBestEffortOnFaultyDeviceReturnsWrongAnswerSilently(t *testing.T) {
	// Documents why voting exists: with best-effort QoC a faulty device's
	// corrupted results are accepted.
	stats, err := Run(Config{
		Devices: []DeviceSpec{{Class: core.ClassDesktop, Slots: 1, Faulty: true}},
		Tasks:   uniformTasks(5, 1_000_000),
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 5 {
		t.Fatalf("completed = %d (best-effort accepts whatever arrives)", stats.Completed)
	}
}

func TestSimRedundancyCostsExtraAttempts(t *testing.T) {
	base, err := Run(Config{
		Devices: homogeneous(4, 1, 100),
		Tasks:   uniformTasks(40, 10_000_000),
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	dup, err := Run(Config{
		Devices: homogeneous(4, 1, 100),
		Tasks: func() []TaskSpec {
			ts := uniformTasks(40, 10_000_000)
			for i := range ts {
				ts[i].QoC = core.QoC{Mode: core.QoCRedundant, Replicas: 2}
			}
			return ts
		}(),
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dup.Attempts < 2*base.Attempts {
		t.Fatalf("redundant attempts = %d, want >= 2x base %d", dup.Attempts, base.Attempts)
	}
	if dup.WastedAttempts == 0 {
		t.Fatal("redundancy produced no wasted attempts")
	}
}

func TestSimDeadlineFailsSlowTasklets(t *testing.T) {
	stats, err := Run(Config{
		Devices: homogeneous(1, 1, 1), // 1 Mops/s: 100s per tasklet
		Tasks: func() []TaskSpec {
			ts := uniformTasks(3, 100_000_000)
			for i := range ts {
				ts[i].QoC = core.QoC{Deadline: 10 * time.Second}
			}
			return ts
		}(),
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed != 3 {
		t.Fatalf("failed = %d, want 3 (deadline 10s < exec 100s)", stats.Failed)
	}
}

func TestSimLatencyAddsToMakespan(t *testing.T) {
	fast, err := Run(Config{
		Devices: homogeneous(1, 1, 100),
		Tasks:   uniformTasks(10, 1_000_000),
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(Config{
		Devices: homogeneous(1, 1, 100),
		Tasks:   uniformTasks(10, 1_000_000),
		Latency: 100 * time.Millisecond,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Makespan <= fast.Makespan+time.Second {
		t.Fatalf("latency had no effect: %v vs %v", fast.Makespan, slow.Makespan)
	}
}

func TestSimArrivalProcessRespected(t *testing.T) {
	tasks := uniformTasks(10, 1_000_000)
	for i := range tasks {
		tasks[i].Arrival = time.Duration(i) * time.Second
	}
	stats, err := Run(Config{
		Devices: homogeneous(4, 2, 100),
		Tasks:   tasks,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Last arrival at 9s; execution 10ms. Makespan dominated by arrivals.
	if stats.Makespan < 9*time.Second {
		t.Fatalf("makespan = %v, want >= 9s", stats.Makespan)
	}
}

func TestSimUtilizationBounds(t *testing.T) {
	devices := homogeneous(2, 1, 100)
	stats, err := Run(Config{
		Devices: devices,
		Tasks:   uniformTasks(20, 50_000_000),
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	u := stats.Utilization(devices)
	if u <= 0.5 || u > 1.0001 {
		t.Fatalf("utilization = %v, want (0.5, 1]", u)
	}
}

func TestSimErrorCases(t *testing.T) {
	if _, err := Run(Config{Tasks: uniformTasks(1, 1)}); err == nil {
		t.Fatal("no devices accepted")
	}
	if _, err := Run(Config{Devices: homogeneous(1, 1, 1)}); err == nil {
		t.Fatal("no tasks accepted")
	}
	// A scenario that cannot finish within MaxTime errors out.
	_, err := Run(Config{
		Devices: homogeneous(1, 1, 0.001),
		Tasks:   uniformTasks(10, 1<<40),
		MaxTime: time.Second,
	})
	if err == nil {
		t.Fatal("impossible scenario did not error")
	}
}

func TestTraceRecordsTimeline(t *testing.T) {
	stats, err := Run(Config{
		Devices: homogeneous(2, 1, 100),
		Tasks:   uniformTasks(4, 10_000_000),
		Trace:   true,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[TraceKind]int{}
	for _, e := range stats.Trace {
		counts[e.Kind]++
	}
	if counts[TraceArrival] != 4 || counts[TraceFinal] != 4 {
		t.Fatalf("arrivals/finals = %d/%d, want 4/4", counts[TraceArrival], counts[TraceFinal])
	}
	if counts[TraceLaunch] != stats.Attempts || counts[TraceComplete] != stats.Attempts {
		t.Fatalf("launch/complete = %d/%d, attempts = %d",
			counts[TraceLaunch], counts[TraceComplete], stats.Attempts)
	}
	// Timestamps are non-decreasing.
	for i := 1; i < len(stats.Trace); i++ {
		if stats.Trace[i].At < stats.Trace[i-1].At {
			t.Fatalf("trace out of order at %d", i)
		}
	}
	// Every attempt launches before it completes.
	launched := map[int]time.Duration{}
	for _, e := range stats.Trace {
		switch e.Kind {
		case TraceLaunch:
			launched[e.Attempt] = e.At
		case TraceComplete:
			at, ok := launched[e.Attempt]
			if !ok || e.At < at {
				t.Fatalf("attempt %d completed before launch", e.Attempt)
			}
		}
	}
	out := Timeline(stats.Trace)
	if !strings.Contains(out, "launch") || !strings.Contains(out, "final") {
		t.Fatalf("timeline rendering:\n%s", out)
	}
}

func TestTraceRecordsChurnEvents(t *testing.T) {
	stats, err := Run(Config{
		Devices: []DeviceSpec{
			{Class: core.ClassDesktop, Slots: 1, MTBF: 3 * time.Second, MTTR: time.Second},
			{Class: core.ClassDesktop, Slots: 1},
		},
		Tasks:       uniformTasks(50, 100_000_000),
		DetectDelay: 500 * time.Millisecond,
		Trace:       true,
		Seed:        4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var fails, recovers, losses int
	for _, e := range stats.Trace {
		switch e.Kind {
		case TraceDeviceFail:
			fails++
		case TraceDeviceRecover:
			recovers++
		case TraceLost:
			losses++
		}
	}
	if fails == 0 {
		t.Fatal("churny run recorded no device failures")
	}
	if losses != stats.LostAttempts {
		t.Fatalf("trace losses %d != stats %d", losses, stats.LostAttempts)
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	stats, err := Run(Config{
		Devices: homogeneous(1, 1, 100),
		Tasks:   uniformTasks(2, 1000),
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Trace) != 0 {
		t.Fatal("trace recorded without Config.Trace")
	}
}
