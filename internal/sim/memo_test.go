package sim

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/tvm"
)

// keyedTasks builds n tasklets whose content keys cycle through keys,
// arriving every gap.
func keyedTasks(n int, fuel uint64, keys []uint64, gap time.Duration, q core.QoC) []TaskSpec {
	tasks := make([]TaskSpec, n)
	for i := range tasks {
		tasks[i] = TaskSpec{
			Fuel:    fuel,
			Key:     keys[i%len(keys)],
			Arrival: time.Duration(i) * gap,
			QoC:     q,
		}
	}
	return tasks
}

func TestSimMemoServesRepeats(t *testing.T) {
	// 10 tasklets over 2 distinct contents, spaced so each finishes before
	// the next arrives: 2 real executions, 8 cache hits.
	stats, err := Run(Config{
		Devices: homogeneous(1, 1, 100),
		Tasks:   keyedTasks(10, 10_000_000, []uint64{41, 42}, time.Second, core.QoC{}),
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 10 {
		t.Fatalf("completed = %d", stats.Completed)
	}
	if stats.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one per distinct content)", stats.Attempts)
	}
	if stats.CacheHits != 8 {
		t.Fatalf("cache hits = %d, want 8", stats.CacheHits)
	}
	for i, f := range stats.Finals {
		want := tvm.Int(int64([]uint64{41, 42}[i%2]))
		if !f.Return.Equal(want) {
			t.Fatalf("final %d = %s, want %s", i, f.Return, want)
		}
	}
}

func TestSimMemoCoalescesConcurrentIdentical(t *testing.T) {
	// 8 identical tasklets all arriving at t=0 on a single slot: one real
	// attempt, 7 coalesced waiters, everyone served.
	stats, err := Run(Config{
		Devices: homogeneous(1, 1, 100),
		Tasks:   keyedTasks(8, 100_000_000, []uint64{9}, 0, core.QoC{}),
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 8 {
		t.Fatalf("completed = %d", stats.Completed)
	}
	if stats.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (coalesced)", stats.Attempts)
	}
	if stats.Coalesced != 7 {
		t.Fatalf("coalesced = %d, want 7", stats.Coalesced)
	}
	for i, f := range stats.Finals {
		if !f.OK() || !f.Return.Equal(tvm.Int(9)) {
			t.Fatalf("final %d = %+v", i, f)
		}
	}
}

func TestSimMemoCoalescingRespectsVotingReplicas(t *testing.T) {
	// Coalescing must not reduce the QoC-required attempt count: 6 identical
	// voting(3) tasklets run exactly the 2 agreeing attempts one voting(3)
	// tasklet needs, not 12 and not 1.
	stats, err := Run(Config{
		Devices: homogeneous(3, 1, 100),
		Tasks: keyedTasks(6, 50_000_000, []uint64{5}, 0,
			core.QoC{Mode: core.QoCVoting, Replicas: 3}),
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 6 {
		t.Fatalf("completed = %d", stats.Completed)
	}
	if stats.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one voting fan-out)", stats.Attempts)
	}
	if stats.Coalesced != 5 {
		t.Fatalf("coalesced = %d, want 5", stats.Coalesced)
	}
}

func TestSimMemoDisabled(t *testing.T) {
	stats, err := Run(Config{
		Devices:     homogeneous(1, 1, 100),
		Tasks:       keyedTasks(6, 10_000_000, []uint64{3}, time.Second, core.QoC{}),
		Seed:        1,
		MemoEntries: -1, MemoBytes: -1, MemoTTL: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Attempts != 6 {
		t.Fatalf("attempts = %d, want 6 with memo disabled", stats.Attempts)
	}
	if stats.CacheHits != 0 || stats.Coalesced != 0 {
		t.Fatalf("hits/coalesced = %d/%d with memo disabled", stats.CacheHits, stats.Coalesced)
	}
}

func TestSimMemoNoCacheOptOut(t *testing.T) {
	stats, err := Run(Config{
		Devices: homogeneous(1, 1, 100),
		Tasks:   keyedTasks(4, 10_000_000, []uint64{3}, time.Second, core.QoC{NoCache: true}),
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Attempts != 4 {
		t.Fatalf("attempts = %d, want 4 under NoCache", stats.Attempts)
	}
	if stats.CacheHits != 0 || stats.Coalesced != 0 {
		t.Fatalf("hits/coalesced = %d/%d under NoCache", stats.CacheHits, stats.Coalesced)
	}
}

func TestSimMemoTTLExpiresOnVirtualClock(t *testing.T) {
	// TTL 1s of *virtual* time: a repeat 5s later misses and re-executes, a
	// repeat 400ms after that hits the refreshed entry.
	tasks := []TaskSpec{
		{Fuel: 10_000_000, Key: 7, Arrival: 0},
		{Fuel: 10_000_000, Key: 7, Arrival: 5 * time.Second},
		{Fuel: 10_000_000, Key: 7, Arrival: 5*time.Second + 500*time.Millisecond},
	}
	stats, err := Run(Config{
		Devices: homogeneous(1, 1, 100),
		Tasks:   tasks,
		Seed:    1,
		MemoTTL: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (TTL forces one re-execution)", stats.Attempts)
	}
	if stats.CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1", stats.CacheHits)
	}
}

func TestSimMemoStrengthGate(t *testing.T) {
	// A best-effort final must not satisfy a later voting request; the
	// voting final upgrades the entry and then serves best-effort repeats.
	tasks := []TaskSpec{
		{Fuel: 10_000_000, Key: 5, Arrival: 0},
		{Fuel: 10_000_000, Key: 5, Arrival: time.Second,
			QoC: core.QoC{Mode: core.QoCVoting, Replicas: 3}},
		{Fuel: 10_000_000, Key: 5, Arrival: 2 * time.Second},
	}
	stats, err := Run(Config{
		Devices: homogeneous(3, 1, 100),
		Tasks:   tasks,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (1 best-effort + a voting majority of 2)", stats.Attempts)
	}
	if stats.CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1 (only the final best-effort repeat)", stats.CacheHits)
	}
}

// diffConfig builds the differential scenario: a fleet with a faulty
// minority, voting QoC, and heavily repeated content keys.
func diffConfig(memoOn bool) Config {
	keys := []uint64{11, 12, 11, 13, 11, 12, 14, 11}
	cfg := Config{
		Devices: []DeviceSpec{
			{Class: core.ClassDesktop, Slots: 2},
			{Class: core.ClassDesktop, Slots: 2},
			{Class: core.ClassDesktop, Slots: 2},
			{Class: core.ClassDesktop, Slots: 2, Faulty: true},
		},
		Tasks: keyedTasks(64, 20_000_000, keys, 100*time.Millisecond,
			core.QoC{Mode: core.QoCVoting, Replicas: 3}),
		Seed: 17,
	}
	if !memoOn {
		cfg.MemoEntries, cfg.MemoBytes, cfg.MemoTTL = -1, -1, -1
	}
	return cfg
}

func TestSimMemoDifferentialVotingFaulty(t *testing.T) {
	// The acceptance differential: with a faulty provider under voting QoC,
	// every tasklet's final result is bit-identical with the memo on and
	// off — the cache can only ever serve what voting already certified.
	on, err := Run(diffConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	off, err := Run(diffConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	if on.Completed != 64 || off.Completed != 64 {
		t.Fatalf("completed on/off = %d/%d", on.Completed, off.Completed)
	}
	for i := range on.Finals {
		a, b := on.Finals[i], off.Finals[i]
		if a.Status != b.Status || !a.Return.Equal(b.Return) || a.FuelUsed != b.FuelUsed {
			t.Fatalf("final %d diverged:\nmemo on:  %+v\nmemo off: %+v", i, a, b)
		}
	}
	if on.CacheHits+on.Coalesced == 0 {
		t.Fatal("memo run neither hit nor coalesced; scenario exercises nothing")
	}
	if on.Attempts >= off.Attempts {
		t.Fatalf("memo saved no attempts: on=%d off=%d", on.Attempts, off.Attempts)
	}
}

func TestSimMemoDifferentialMixedModes(t *testing.T) {
	// Honest fleet, all three QoC modes interleaved over shared content.
	build := func(memoOn bool) Config {
		modes := []core.QoC{
			{},
			{Mode: core.QoCRedundant, Replicas: 2},
			{Mode: core.QoCVoting, Replicas: 3},
		}
		keys := []uint64{21, 22, 23, 21, 22}
		tasks := make([]TaskSpec, 60)
		for i := range tasks {
			tasks[i] = TaskSpec{
				Fuel:    10_000_000,
				Key:     keys[i%len(keys)],
				QoC:     modes[i%len(modes)],
				Arrival: time.Duration(i) * 50 * time.Millisecond,
			}
		}
		cfg := Config{Devices: homogeneous(4, 2, 100), Tasks: tasks, Seed: 9}
		if !memoOn {
			cfg.MemoEntries, cfg.MemoBytes, cfg.MemoTTL = -1, -1, -1
		}
		return cfg
	}
	on, err := Run(build(true))
	if err != nil {
		t.Fatal(err)
	}
	off, err := Run(build(false))
	if err != nil {
		t.Fatal(err)
	}
	for i := range on.Finals {
		a, b := on.Finals[i], off.Finals[i]
		if a.Status != b.Status || !a.Return.Equal(b.Return) || a.FuelUsed != b.FuelUsed {
			t.Fatalf("final %d diverged:\nmemo on:  %+v\nmemo off: %+v", i, a, b)
		}
	}
	if on.CacheHits == 0 {
		t.Fatal("mixed-mode run produced no cache hits")
	}
}
