package sim

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
)

// diffConfigs are scenarios exercising every mechanism the sharded world
// transcribes: heterogeneous fleets, memoization/coalescing, voting QoC,
// deadlines, churn, retries.
func diffConfigs() map[string]Config {
	mixed := []DeviceSpec{
		{Class: core.ClassServer, Slots: 4},
		{Class: core.ClassDesktop, Slots: 2},
		{Class: core.ClassLaptop, Slots: 2},
		{Class: core.ClassMobile, Slots: 1},
		{Class: core.ClassDesktop, Slots: 2},
		{Class: core.ClassServer, Slots: 3},
	}
	tasks := func(n int, f func(i int) TaskSpec) []TaskSpec {
		ts := make([]TaskSpec, n)
		for i := range ts {
			ts[i] = f(i)
		}
		return ts
	}
	return map[string]Config{
		"plain": {
			Devices: mixed,
			Tasks: tasks(120, func(i int) TaskSpec {
				return TaskSpec{Fuel: 300_000, Arrival: time.Duration(i) * time.Millisecond}
			}),
			Latency: 2 * time.Millisecond,
			Seed:    7,
		},
		"memo_voting": {
			Devices: mixed,
			Tasks: tasks(150, func(i int) TaskSpec {
				ts := TaskSpec{Fuel: 200_000, Arrival: time.Duration(i/3) * time.Millisecond}
				ts.Key = uint64(i%10 + 1) // heavy key repetition: memo + coalescing
				if i%4 == 0 {
					ts.QoC = core.QoC{Mode: core.QoCVoting, Replicas: 3}
				}
				return ts
			}),
			Latency: time.Millisecond,
			Seed:    11,
		},
		"churn_deadline": {
			Devices: []DeviceSpec{
				{Class: core.ClassServer, Slots: 4, MTBF: 3 * time.Second, MTTR: 500 * time.Millisecond},
				{Class: core.ClassDesktop, Slots: 2},
				{Class: core.ClassLaptop, Slots: 2, MTBF: 2 * time.Second, MTTR: 300 * time.Millisecond},
				{Class: core.ClassDesktop, Slots: 2},
			},
			Tasks: tasks(100, func(i int) TaskSpec {
				ts := TaskSpec{Fuel: 500_000, Arrival: time.Duration(i*2) * time.Millisecond}
				if i%5 == 0 {
					ts.QoC = core.QoC{Deadline: 4 * time.Second, MaxRetries: 2}
				}
				return ts
			}),
			Latency:      time.Millisecond,
			DetectDelay:  200 * time.Millisecond,
			Seed:         23,
			MaxAttempts:  8,
			RetryBackoff: 5 * time.Millisecond,
		},
	}
}

// TestShardedSingleMatchesUnsharded is the differential acceptance test: a
// 1-shard cluster must be event-identical to the unsharded simulator —
// same finals, same attempt counts, same makespan, same traces.
func TestShardedSingleMatchesUnsharded(t *testing.T) {
	for name, cfg := range diffConfigs() {
		t.Run(name, func(t *testing.T) {
			cfg.Trace = true
			want, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunSharded(ShardedConfig{Base: cfg, Shards: 1, Exchange: true})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(*want, got.Stats) {
				t.Errorf("1-shard cluster diverged from unsharded run:\nunsharded: %+v\n  sharded: %+v", *want, got.Stats)
			}
			if got.Migrated != 0 || got.MigrateRequests != 0 {
				t.Errorf("single-shard run migrated %d (%d requests)", got.Migrated, got.MigrateRequests)
			}
		})
	}
}

// shardScaleConfig builds a broker-bound scenario: device capacity far
// exceeds what one dispatcher can push, so throughput should track shard
// count. Load is weak-scaled (tasks ∝ shards) to keep makespans comparable.
func shardScaleConfig(shards int, tasksPerShard int, program func(i int) uint64) ShardedConfig {
	devices := make([]DeviceSpec, 4*shards)
	for i := range devices {
		devices[i] = DeviceSpec{Class: core.ClassDesktop, Slots: 4, Speed: 100}
	}
	n := tasksPerShard * shards
	tasks := make([]TaskSpec, n)
	for i := range tasks {
		tasks[i] = TaskSpec{Fuel: 100_000, Program: program(i)} // 1ms of work, arrival 0
	}
	return ShardedConfig{
		Base: Config{
			Devices: devices,
			Tasks:   tasks,
			Latency: 100 * time.Microsecond,
			Seed:    5,
		},
		Shards:         shards,
		BrokerOverhead: 50 * time.Microsecond,
		// Fine-grained exchange: ~1k dispatcher ops per shard per tick
		// would be far too coarse for ~100ms runs, so gossip every 2ms and
		// steal down to small gaps.
		GossipInterval: 2 * time.Millisecond,
		ExchangePolicy: shard.Policy{MinGap: 4},
	}
}

func uniqueProgram(i int) uint64 { return 0xabcd_0000 + uint64(i) }

// TestShardedThroughputScales pins the tentpole claim at test scale: 4
// shards deliver ≥3× the aggregate saturation throughput of 1 shard.
func TestShardedThroughputScales(t *testing.T) {
	tput := func(shards int) float64 {
		st, err := RunSharded(shardScaleConfig(shards, 1500, uniqueProgram))
		if err != nil {
			t.Fatal(err)
		}
		if st.Completed != 1500*shards {
			t.Fatalf("%d shards: completed %d of %d", shards, st.Completed, 1500*shards)
		}
		return float64(st.Completed) / st.Makespan.Seconds()
	}
	t1, t4 := tput(1), tput(4)
	t.Logf("throughput: 1 shard %.0f/s, 4 shards %.0f/s (%.2fx)", t1, t4, t4/t1)
	if t4 < 3*t1 {
		t.Fatalf("4-shard throughput %.0f/s is under 3× the 1-shard %.0f/s", t4, t1)
	}
}

// TestShardedSkewExchangeRecovers pins the work-exchange claim: under a
// fully skewed workload (every task routes to one hot shard), enabling the
// exchange recovers ≥80%% of balanced-load throughput, while without it the
// cluster degrades to single-shard speed.
func TestShardedSkewExchangeRecovers(t *testing.T) {
	const shards, perShard = 4, 750
	run := func(program func(i int) uint64, exchange bool) *ShardedStats {
		cfg := shardScaleConfig(shards, perShard, program)
		cfg.Exchange = exchange
		st, err := RunSharded(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if st.Completed != shards*perShard {
			t.Fatalf("completed %d of %d", st.Completed, shards*perShard)
		}
		return st
	}
	hot := func(int) uint64 { return 0xbeef } // one program hash: all → one shard

	balanced := run(uniqueProgram, false)
	skewOff := run(hot, false)
	skewOn := run(hot, true)

	tp := func(s *ShardedStats) float64 { return float64(s.Completed) / s.Makespan.Seconds() }
	recovery := tp(skewOn) / tp(balanced)
	t.Logf("balanced %.0f/s, skew no-exchange %.0f/s, skew exchange %.0f/s (recovery %.2f, migrated %d in %d requests)",
		tp(balanced), tp(skewOff), tp(skewOn), recovery, skewOn.Migrated, skewOn.MigrateRequests)

	if skewOn.Migrated == 0 {
		t.Fatal("exchange run migrated nothing")
	}
	if skewOff.Migrated != 0 {
		t.Fatalf("exchange-off run migrated %d", skewOff.Migrated)
	}
	if tp(skewOn) <= tp(skewOff) {
		t.Fatalf("exchange did not improve skewed throughput: %.0f/s vs %.0f/s", tp(skewOn), tp(skewOff))
	}
	if recovery < 0.8 {
		t.Fatalf("exchange recovered only %.0f%% of balanced throughput", 100*recovery)
	}
}

// TestShardedMultihome checks split-slot multi-homing: every device
// registers with two shards at half capacity, and the cluster still
// completes everything with the full slot budget in play.
func TestShardedMultihome(t *testing.T) {
	cfg := shardScaleConfig(2, 400, uniqueProgram)
	cfg.Multihome = 2
	st, err := RunSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 800 {
		t.Fatalf("completed %d of 800", st.Completed)
	}
	// 8 devices × multihome 2 = 16 sub-devices, 2 slots each.
	if len(st.BusyTime) != 16 {
		t.Fatalf("got %d sub-devices, want 16", len(st.BusyTime))
	}
	for i := range st.Finals {
		if st.Finals[i].Tasklet == 0 {
			t.Fatalf("task %d has no final", i)
		}
	}
}

// TestShardedDeterministic: same config, same seed → identical stats.
func TestShardedDeterministic(t *testing.T) {
	cfg := shardScaleConfig(3, 300, func(int) uint64 { return 0xbeef })
	cfg.Exchange = true
	a, err := RunSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("sharded runs with identical seeds diverged")
	}
}

// TestBrokerOverheadGolden pins the one broker-cost model's arithmetic:
// BrokerOverhead charged per dispatch, per result and per migration batch
// on each shard's serialized line. The values were recorded before the
// frame, result and partition cost knobs were deleted, so any drift in
// gate's bookkeeping shows up here as an exact mismatch.
func TestBrokerOverheadGolden(t *testing.T) {
	type outcome struct {
		Makespan                                time.Duration
		Attempts, Migrated, Requests, Completed int
	}
	skewed := shardScaleConfig(4, 750, func(int) uint64 { return 0xbeef })
	skewed.Exchange = true
	cases := []struct {
		name string
		cfg  ShardedConfig
		want outcome
	}{
		// Dispatcher-bound: 3000 serialized 50µs operations plus one
		// tasklet's round trip.
		{"1-shard-saturated", shardScaleConfig(1, 1500, uniqueProgram),
			outcome{151 * time.Millisecond, 1500, 0, 0, 1500}},
		// Arrivals every 1ms against 0.8ms of dispatcher work per tasklet:
		// the line goes idle between bursts.
		{"1-shard-intermittent", ShardedConfig{Base: diffConfigs()["plain"], Shards: 1, BrokerOverhead: 400 * time.Microsecond},
			outcome{125600 * time.Microsecond, 120, 0, 0, 120}},
		{"4-shard-skew-exchange", skewed,
			outcome{91450 * time.Microsecond, 3000, 2112, 33, 3000}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st, err := RunSharded(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := outcome{st.Makespan, st.Attempts, st.Migrated, st.MigrateRequests, st.Completed}
			if got != c.want {
				t.Fatalf("got %+v, want %+v", got, c.want)
			}
		})
	}
}
