package sim

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scheduler"
)

// TestSimIndexMatchesLegacy checks that every policy finalizes every
// tasklet: it runs each policy, with and without device churn, through the
// simulator and checks the run against what the scenario fixes — every
// tasklet finalizes, every completed one carries its canonical value and a
// real provider, and the attempt and per-device execution counts add up.
// The index's picks themselves are checked against the reference scan in
// internal/scheduler.
func TestSimIndexMatchesLegacy(t *testing.T) {
	mixedDevices := func(churn bool) []DeviceSpec {
		devs := []DeviceSpec{
			{Class: core.ClassServer, Slots: 4, Speed: 400},
			{Class: core.ClassDesktop, Slots: 2, Speed: 100},
			{Class: core.ClassDesktop, Slots: 2, Speed: 100}, // rank ties
			{Class: core.ClassMobile, Slots: 1, Speed: 25},
			{Class: core.ClassEmbedded, Slots: 1, Speed: 5},
		}
		if churn {
			devs[1].MTBF, devs[1].MTTR = 20*time.Second, 5*time.Second
			devs[3].MTBF, devs[3].MTTR = 15*time.Second, 10*time.Second
		}
		return devs
	}
	tasks := func() []TaskSpec {
		var ts []TaskSpec
		for i := 0; i < 60; i++ {
			spec := TaskSpec{
				Fuel:    uint64(1+i%7) * 40_000_000,
				Arrival: time.Duration(i) * 150 * time.Millisecond,
			}
			switch i % 4 {
			case 1:
				spec.QoC = core.QoC{Mode: core.QoCRedundant, Replicas: 2}
			case 2:
				spec.QoC = core.QoC{Deadline: 30 * time.Second}
			}
			ts = append(ts, spec)
		}
		return ts
	}

	for _, name := range scheduler.Names() {
		name := name
		for _, churn := range []bool{false, true} {
			churn := churn
			label := name + "/steady"
			if churn {
				label = name + "/churn"
			}
			t.Run(label, func(t *testing.T) {
				pol, err := scheduler.New(name, 42)
				if err != nil {
					t.Fatal(err)
				}
				specs := tasks()
				stats, err := Run(Config{
					Devices: mixedDevices(churn),
					Tasks:   specs,
					Policy:  pol,
					Latency: 5 * time.Millisecond,
					Seed:    42,
				})
				if err != nil {
					t.Fatal(err)
				}

				if stats.Completed+stats.Failed != len(specs) {
					t.Errorf("completed %d + failed %d, want %d tasklets",
						stats.Completed, stats.Failed, len(specs))
				}
				if !churn && stats.LostAttempts != 0 {
					t.Errorf("%d attempts lost on a steady fleet", stats.LostAttempts)
				}
				if stats.Attempts < stats.Completed {
					t.Errorf("%d attempts for %d completed tasklets", stats.Attempts, stats.Completed)
				}
				executed := 0
				for _, n := range stats.DeviceExecuted {
					executed += n
				}
				if executed > stats.Attempts || executed < stats.Completed {
					t.Errorf("devices executed %d attempts, want between %d completed and %d launched",
						executed, stats.Completed, stats.Attempts)
				}
				for i, f := range stats.Finals {
					if f.Status != core.StatusOK {
						continue // deadline or retry budget ran out under churn
					}
					if f.Return.I != int64(i+1) || f.Provider < 1 || int(f.Provider) > len(stats.DeviceExecuted) {
						t.Errorf("tasklet %d final: %+v, want return %d from a fleet device", i, f, i+1)
					}
				}
			})
		}
	}
}
