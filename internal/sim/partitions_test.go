package sim

import (
	"testing"
	"time"
)

// partitionScenario is a result-bound cluster: one shard, plenty of device
// capacity, and a result-processing cost high enough that the serialized
// dispatcher line is the bottleneck partitioning relieves.
func partitionScenario(partitions int) ShardedConfig {
	devices := make([]DeviceSpec, 16)
	for i := range devices {
		devices[i] = DeviceSpec{Slots: 6, Speed: 100}
	}
	tasks := make([]TaskSpec, 1500)
	for i := range tasks {
		tasks[i] = TaskSpec{Fuel: 100_000, Arrival: time.Duration(i) * 25 * time.Microsecond}
	}
	return ShardedConfig{
		Base: Config{
			Devices: devices,
			Tasks:   tasks,
			Latency: 200 * time.Microsecond,
			Seed:    7,
		},
		Shards:         1,
		BrokerOverhead: 12 * time.Microsecond,
		ResultOverhead: 50 * time.Microsecond,
		FrameOverhead:  25 * time.Microsecond,
		Partitions:     partitions,
	}
}

// TestPartitionsInertAtOne pins the ablation contract: Partitions 0 and 1
// run the identical fully-serialized model — same event sequence, same
// makespan, same finals.
func TestPartitionsInertAtOne(t *testing.T) {
	zero, err := RunSharded(partitionScenario(0))
	if err != nil {
		t.Fatal(err)
	}
	one, err := RunSharded(partitionScenario(1))
	if err != nil {
		t.Fatal(err)
	}
	if zero.Makespan != one.Makespan {
		t.Fatalf("Partitions 0 vs 1 diverged: makespan %v vs %v", zero.Makespan, one.Makespan)
	}
	if zero.Completed != one.Completed || zero.Attempts != one.Attempts {
		t.Fatalf("Partitions 0 vs 1 diverged: completed %d/%d attempts %d/%d",
			zero.Completed, one.Completed, zero.Attempts, one.Attempts)
	}
	for i := range zero.Finals {
		a, b := zero.Finals[i], one.Finals[i]
		if a.Tasklet != b.Tasklet || a.Status != b.Status || a.Provider != b.Provider ||
			a.Attempt != b.Attempt || !a.Return.Equal(b.Return) {
			t.Fatalf("final %d diverged: %+v vs %+v", i, a, b)
		}
	}
}

// TestPartitionsRelieveResultBottleneck checks the model does what the
// partitioned broker core claims: on a result-bound scenario, striping
// result processing across partition servers shortens the makespan, and
// more partitions never hurt.
func TestPartitionsRelieveResultBottleneck(t *testing.T) {
	base, err := RunSharded(partitionScenario(1))
	if err != nil {
		t.Fatal(err)
	}
	prev := base.Makespan
	for _, p := range []int{2, 4, 8} {
		st, err := RunSharded(partitionScenario(p))
		if err != nil {
			t.Fatal(err)
		}
		if st.Completed != base.Completed {
			t.Fatalf("P=%d completed %d, want %d", p, st.Completed, base.Completed)
		}
		// Tail effects of the tasklet-to-partition keying can wiggle a tier
		// by a hair; anything beyond 2% is a real regression.
		if st.Makespan > prev+prev/50 {
			t.Fatalf("P=%d makespan %v regressed over previous tier %v", p, st.Makespan, prev)
		}
		if st.Makespan < prev {
			prev = st.Makespan
		}
	}
	if ratio := float64(base.Makespan) / float64(prev); ratio < 1.5 {
		t.Fatalf("P=8 speedup %.2fx over serialized, want >= 1.5x", ratio)
	}
}
