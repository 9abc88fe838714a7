package sim

import (
	"testing"
	"time"

	"repro/internal/core"
)

// The tests in this file pin behaviour the simulator shares with the live
// broker because both run the same scheduler core: cancellation, provider
// reliability, queued places and placement on a failed provider that has
// not been detected yet.

// TestSimCancelDropsQueuedReplica: a redundant tasklet's first replica
// lands in the queue of a fast device busy with a long attempt, the second
// runs at once on an idle slow one. Its result finalizes the tasklet and
// the core cancels the queued replica, which the fast device drops without
// running it. Tiny attempts first bring the devices' execution-time means
// down far enough to earn queued places.
func TestSimCancelDropsQueuedReplica(t *testing.T) {
	const lat = time.Millisecond
	tasks := uniformTasks(40, 1_000) // 10 µs at the slow device's speed
	tasks = append(tasks,
		TaskSpec{Fuel: 400_000_000, Arrival: time.Second},
		TaskSpec{Fuel: 1_000, Arrival: time.Second + 5*lat, QoC: core.QoC{Mode: core.QoCRedundant, Replicas: 2}},
	)
	stats, err := Run(Config{
		Devices: []DeviceSpec{
			{Class: core.ClassDesktop, Slots: 1, Speed: 200},
			{Class: core.ClassDesktop, Slots: 1, Speed: 100},
		},
		Tasks:   tasks,
		Policy:  policy(t, "fastest", 0),
		Latency: lat,
		Trace:   true,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	redundant := len(tasks) - 1
	var onFast []int
	completed := map[int]bool{}
	for _, e := range stats.Trace {
		switch {
		case e.Tasklet != redundant:
		case e.Kind == TraceLaunch && e.Device == 0:
			onFast = append(onFast, e.Attempt)
		case e.Kind == TraceComplete:
			completed[e.Attempt] = true
		}
	}
	if len(onFast) != 1 {
		t.Fatalf("%d replicas placed on the busy fast device, want the one queued behind its long attempt", len(onFast))
	}
	if completed[onFast[0]] {
		t.Fatalf("the queued replica (attempt %d) ran after its tasklet was final", onFast[0])
	}
	if f := stats.Finals[redundant]; !f.OK() || f.Provider != 2 {
		t.Fatalf("redundant final %+v, want OK from the slow device", f)
	}
	if stats.WastedAttempts != 1 {
		t.Fatalf("%d wasted attempts, want the one cancelled", stats.WastedAttempts)
	}
}

// TestSimCancelStopsRunningReplica: a redundant tasklet's replicas run at
// once on a fast and a slow device. The fast one's result finalizes the
// tasklet and the core cancels the slow replica mid-run: the slow device
// books only the time it ran, reports no completion, and its freed slot
// runs the next attempt placed there while the fast device is busy.
func TestSimCancelStopsRunningReplica(t *testing.T) {
	const lat = time.Millisecond
	tasks := []TaskSpec{
		{Fuel: 10_000_000, QoC: core.QoC{Mode: core.QoCRedundant, Replicas: 2}}, // 50 ms fast, 100 ms slow
		{Fuel: 40_000_000, Arrival: 55 * time.Millisecond},                      // holds the fast device
		{Fuel: 1_000_000, Arrival: 60 * time.Millisecond},                       // 10 ms on the slow one
	}
	stats, err := Run(Config{
		Devices: []DeviceSpec{
			{Class: core.ClassDesktop, Slots: 1, Speed: 200},
			{Class: core.ClassDesktop, Slots: 1, Speed: 100},
		},
		Tasks:   tasks,
		Policy:  policy(t, "fastest", 0),
		Latency: lat,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if f := stats.Finals[0]; !f.OK() || f.Provider != 1 {
		t.Fatalf("redundant final %+v, want OK from the fast device", f)
	}
	if f := stats.Finals[2]; !f.OK() || f.Provider != 2 {
		t.Fatalf("last final %+v, want OK from the slow device's freed slot", f)
	}
	if got, want := stats.DeviceExecuted, []int{2, 1}; got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("device completions %v, want %v: the cancelled replica must not complete", got, want)
	}
	// The slow replica ran from its assign (1 ms) until the cancel reached
	// it: the fast result's 50 ms run and two link crossings later.
	if ran, want := stats.BusyTime[1], 52*time.Millisecond+10*time.Millisecond; ran != want {
		t.Fatalf("slow device busy %v, want %v (the cancelled run's 52 ms plus the last tasklet)", ran, want)
	}
	if stats.WastedAttempts != 1 {
		t.Fatalf("%d wasted attempts, want the one cancelled", stats.WastedAttempts)
	}
}

// TestSimReliableAvoidsLossyDevice: two equal devices, the lower-ID one
// churning. Tasklets arrive one at a time, so both devices are idle at each
// arrival and reliable breaks the tie by ID — until the churning device
// loses an attempt. Its completion ratio then stays below 1, and reliable
// ranks it last for the rest of the run.
func TestSimReliableAvoidsLossyDevice(t *testing.T) {
	tasks := uniformTasks(60, 20_000_000) // 200 ms each
	for i := range tasks {
		tasks[i].Arrival = time.Duration(i) * time.Second
	}
	stats, err := Run(Config{
		Devices: []DeviceSpec{
			{Class: core.ClassDesktop, Slots: 1, Speed: 100, MTBF: 4 * time.Second, MTTR: time.Second},
			{Class: core.ClassDesktop, Slots: 1, Speed: 100},
		},
		Tasks:       tasks,
		Policy:      policy(t, "reliable", 0),
		DetectDelay: 100 * time.Millisecond,
		Trace:       true,
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	firstLoss := time.Duration(-1)
	for _, e := range stats.Trace {
		switch {
		case e.Kind == TraceLost && e.Device == 0 && firstLoss < 0:
			firstLoss = e.At
		case e.Kind == TraceLaunch && e.Device == 0 && firstLoss >= 0:
			t.Fatalf("attempt %d placed on the churning device at %v, after it lost one at %v",
				e.Attempt, e.At, firstLoss)
		}
	}
	if firstLoss < 0 {
		t.Fatal("the churning device never lost an attempt: the scenario tests nothing")
	}
	if stats.DeviceExecuted[0] == 0 {
		t.Fatal("the churning device ran nothing before its loss: the tie-break tests nothing")
	}
}

// TestSimQueuesBehindTinyAttempts: attempts of a few µs earn queued credits
// as soon as results show them tiny, so a one-slot device holds more than
// one attempt at once — running, queued or on the link — as a live
// provider does.
func TestSimQueuesBehindTinyAttempts(t *testing.T) {
	stats, err := Run(Config{
		Devices: homogeneous(1, 1, 100),
		Tasks:   uniformTasks(200, 1_000), // 10 µs each
		Latency: time.Millisecond,
		Trace:   true,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	held, most := 0, 0
	for _, e := range stats.Trace {
		switch e.Kind {
		case TraceLaunch:
			held++
			most = max(most, held)
		case TraceComplete:
			held--
		}
	}
	if most <= 1 {
		t.Fatalf("the one-slot device held at most %d attempt at once, want queued attempts behind its slot", most)
	}
	if stats.Completed != 200 {
		t.Fatalf("completed %d of 200", stats.Completed)
	}
}

// TestSimPlacesOnUndetectedFailure: between a device's failure and the end
// of DetectDelay the broker cannot know it is gone, so placement still
// gives it attempts while it has credits, and detection counts those
// attempts lost with the rest.
func TestSimPlacesOnUndetectedFailure(t *testing.T) {
	const detect = time.Second
	tasks := uniformTasks(100, 20_000_000)
	for i := range tasks {
		tasks[i].Arrival = time.Duration(i) * 100 * time.Millisecond
	}
	stats, err := Run(Config{
		Devices: []DeviceSpec{
			{Class: core.ClassServer, Slots: 4, Speed: 400, MTBF: 3 * time.Second, MTTR: 2 * time.Second},
			{Class: core.ClassDesktop, Slots: 1, Speed: 100},
		},
		Tasks:       tasks,
		Policy:      policy(t, "fastest", 0),
		DetectDelay: detect,
		Trace:       true,
		Seed:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	down := time.Duration(-1)
	blind := map[int]bool{} // attempts placed on the failed, undetected device
	lost := 0
	for _, e := range stats.Trace {
		switch {
		case e.Device != 0:
		case e.Kind == TraceDeviceFail:
			down = e.At
		case e.Kind == TraceDeviceRecover:
			down = -1
		case e.Kind == TraceLaunch && down >= 0 && e.At > down && e.At < down+detect:
			blind[e.Attempt] = true
		case e.Kind == TraceLost && blind[e.Attempt]:
			lost++
		}
	}
	if len(blind) == 0 {
		t.Fatal("no attempt was placed on the failed device before its loss was detected")
	}
	if lost != len(blind) {
		t.Fatalf("%d attempts placed on the failed device before detection, %d of them counted lost", len(blind), lost)
	}
	if stats.Completed != len(tasks) {
		t.Fatalf("completed %d of %d", stats.Completed, len(tasks))
	}
}
