package broker

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/consumer"
	"repro/internal/core"
	"repro/internal/provider"
	"repro/internal/wire"
)

// runJobWithPartitions runs one deterministic job through a fresh stack with
// the given partition count.
func runJobWithPartitions(t *testing.T, partitions int) []consumer.TaskResult {
	t.Helper()
	b := New(Options{partitions: partitions})
	if got := b.core.Partitions(); got != partitions {
		t.Fatalf("partitions=%d built %d partitions", partitions, got)
	}
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	for i := 0; i < 3; i++ {
		p, err := provider.Connect(provider.Options{
			BrokerAddr: addr, Slots: 2, Speed: 100, Name: fmt.Sprintf("p%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
	}
	c, err := consumer.Connect(addr, "part-diff")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 96
	job, err := c.Submit(compileJob(t, squareSrc, intRows(n)...))
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Collect(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDifferentialPartitionsBitIdentical: the same job on one stripe and on
// four produces bit-identical results (status, return values, emits,
// faults) — the stripes change where lifecycle state lives, never what the
// consumer sees.
func TestDifferentialPartitionsBitIdentical(t *testing.T) {
	one := essences(runJobWithPartitions(t, 1))
	four := essences(runJobWithPartitions(t, 4))
	if !reflect.DeepEqual(one, four) {
		t.Fatalf("results diverge between 1 and 4 partitions:\nP=1: %+v\nP=4: %+v", one, four)
	}
	for i, r := range one {
		if r.Status != core.StatusOK {
			t.Fatalf("result[%d] = %+v, want OK %d", i, r, i*i)
		}
	}
}

// runMemoWorkloadWithPartitions drives one seeded, duplicate-heavy workload
// through a fresh memo-enabled stack: four consumers concurrently submit a
// job each whose rows are drawn from twelve distinct values, so identical
// content arrives on different connections while its first execution is
// still in flight. It returns every job's results plus the broker's work
// accounting: tasklets served without an attempt (memo hits + coalesced
// waiters — which of the two a repeat becomes depends on timing, their sum
// does not) and attempts launched.
func runMemoWorkloadWithPartitions(t *testing.T, partitions int) (finals [][]resultEssence, saved, launched int64) {
	t.Helper()
	b, addr := memoStack(t, Options{partitions: partitions}, 3, 2)

	const consumers, rows, distinct = 4, 60, 12
	rng := rand.New(rand.NewSource(7))
	finals = make([][]resultEssence, consumers)
	var wg sync.WaitGroup
	for ci := 0; ci < consumers; ci++ {
		vals := make([][]int64, rows)
		for i := range vals {
			vals[i] = []int64{int64(rng.Intn(distinct))}
		}
		spec := compileJob(t, slowSrc, vals...)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := consumer.Connect(addr, fmt.Sprintf("memo-diff-%d", ci))
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			job, err := c.Submit(spec)
			if err != nil {
				t.Error(err)
				return
			}
			res, err := job.Collect(ctxT(t))
			if err != nil {
				t.Error(err)
				return
			}
			finals[ci] = essences(res)
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	m := b.Metrics()
	return finals, m.Counter("memo.hits").Value() + m.Counter("memo.coalesced").Value(),
		m.Counter("attempts.launched").Value()
}

// TestDifferentialPartitionsMemoCoalescing pins that striping never splits a
// flight: the same seeded memo workload on 1 and on 4 partitions delivers
// the same finals, serves the same number of tasklets without an attempt,
// and launches the same number of attempts — one per distinct content.
// Keyed tasklets are routed by content key (submitEvent), so duplicates meet
// in one partition's flight table however many stripes there are.
func TestDifferentialPartitionsMemoCoalescing(t *testing.T) {
	one, savedOne, launchedOne := runMemoWorkloadWithPartitions(t, 1)
	four, savedFour, launchedFour := runMemoWorkloadWithPartitions(t, 4)
	if !reflect.DeepEqual(one, four) {
		t.Fatalf("finals diverge between 1 and 4 partitions:\nP=1: %+v\nP=4: %+v", one, four)
	}
	if savedOne != savedFour {
		t.Errorf("memo.hits + memo.coalesced: P=1 %d, P=4 %d", savedOne, savedFour)
	}
	if launchedOne != launchedFour {
		t.Errorf("attempts.launched: P=1 %d, P=4 %d", launchedOne, launchedFour)
	}
	total := int64(0)
	seen := map[string]bool{}
	for _, job := range one {
		for _, r := range job {
			total++
			seen[r.Return] = true
			if r.Status != core.StatusOK {
				t.Fatalf("result %+v, want OK", r)
			}
		}
	}
	if distinct := int64(len(seen)); launchedOne != distinct || savedOne != total-distinct {
		t.Errorf("P=1 launched %d and saved %d, want %d and %d (%d tasklets, %d distinct)",
			launchedOne, savedOne, distinct, total-distinct, total, distinct)
	}
}

// TestPartitionStressInterleaved hammers a 4-partition broker with
// interleaved submits, results, QoC deadlines, job cancels, and a provider
// loss, then asserts the two partition-safety invariants: no tasklet is
// finalized twice (every surviving job yields exactly one result per index)
// and no attempt leaks (all lifecycle state drains to zero once the dust
// settles, and every deadline timer is stopped and forgotten). Run it under
// -race and the per-reader result routing, deadline and backoff timer
// callbacks and striped counters are all exercised across stripes.
func TestPartitionStressInterleaved(t *testing.T) {
	b := New(Options{partitions: 4, RetryBackoff: time.Millisecond})
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })

	for i := 0; i < 2; i++ {
		p, err := provider.Connect(provider.Options{
			BrokerAddr: addr, Slots: 4, Speed: 100, Name: fmt.Sprintf("steady%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
	}
	// Slow providers keep attempts in flight long enough for deadlines and
	// cancels to catch them. "crawler" stays up all run (so late deadline
	// jobs still have attempts that blow their budget); "doomed" dies mid-run
	// to exercise ProviderLost re-issues (with backoff, so the delayed
	// launch path runs too). doomed is slow enough (1000x) that nothing it
	// is given finishes before it dies; a cancel still frees its slots at
	// once, so abandoned attempts do not hold up the leak check below.
	crawler, err := provider.Connect(provider.Options{
		BrokerAddr: addr, Slots: 2, Speed: 100, Throttle: 0.2, Name: "crawler"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { crawler.Close() })
	doomed, err := provider.Connect(provider.Options{
		BrokerAddr: addr, Slots: 2, Speed: 100, Throttle: 0.001, Name: "doomed"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { doomed.Close() })

	const workers = 4
	const jobsPerWorker = 6
	const n = 24
	// Compiled once on the test goroutine; workers copy them (compileJob uses
	// t.Fatal, which must not run off the test goroutine). Deadline jobs use
	// a ~20x heavier loop so their 3ms budget is unmeetable even on a fast
	// idle provider — every run drives expirations through the timers.
	baseSpec := compileJob(t, slowSrc, intRows(n)...)
	heavySrc := `func main(n int) int {
		var s int = 0;
		for (var i int = 0; i < 400000; i = i + 1) { s = s + i; }
		return n * n;
	}`
	heavySpec := compileJob(t, heavySrc, intRows(n)...)

	// The provider loss must hit live work to be a loss at all, so doomed
	// dies only once it is seen holding attempts of the anchor job — heavy
	// enough to fill every slot of the fleet, never cancelled, no deadline:
	// whatever doomed holds of it is still running, and still wanted, when
	// the connection drops. (A fixed sleep used to stand in for this, and
	// found doomed idle once the TVM got faster.) NoCache keeps its results
	// out of the memo, which would otherwise serve the deadline jobs below.
	ac, err := consumer.Connect(addr, "anchor")
	if err != nil {
		t.Fatal(err)
	}
	defer ac.Close()
	anchorSpec := heavySpec
	anchorSpec.QoC = core.QoC{NoCache: true}
	anchor, err := ac.Submit(anchorSpec)
	if err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); b.core.LiveAttemptsOn(doomed.ID()) == 0; time.Sleep(time.Millisecond) {
		if time.Since(start) > 10*time.Second {
			t.Fatal("doomed was never given work")
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := consumer.Connect(addr, fmt.Sprintf("stress%d", w))
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < jobsPerWorker; j++ {
				spec := baseSpec
				switch j % 3 {
				case 1:
					// Tight deadline: tasklets expire on their timer (the work
					// outlasts the budget); every index must still settle
					// exactly once.
					spec = heavySpec
					spec.QoC = core.QoC{Deadline: 3 * time.Millisecond}
				case 2:
					// Cancelled mid-flight after a short head start.
					job, err := c.Submit(spec)
					if err != nil {
						errs <- err
						return
					}
					time.Sleep(2 * time.Millisecond)
					if err := c.Cancel(job); err != nil {
						errs <- err
						return
					}
					continue
				}
				job, err := c.Submit(spec)
				if err != nil {
					errs <- err
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				res, err := job.Collect(ctx)
				cancel()
				if err != nil {
					errs <- err
					return
				}
				if len(res) != n {
					errs <- fmt.Errorf("worker %d job %d: %d results, want %d", w, j, len(res), n)
					return
				}
				seen := map[int]bool{}
				for _, r := range res {
					if seen[r.Index] {
						errs <- fmt.Errorf("worker %d job %d: index %d finalized twice", w, j, r.Index)
						return
					}
					seen[r.Index] = true
				}
			}
		}(w)
	}

	time.Sleep(25 * time.Millisecond) // let the stress get going
	doomed.Close()                    // mid-run provider loss across every partition

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	res, err := anchor.Collect(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	checkSquares(t, res, n) // the lost attempts were re-issued, each index settled once

	// Attempt-leak check: with every consumer gone (cancelled jobs die with
	// their consumer) the engines and queues must drain to zero, and so must
	// the deadline-timer maps: delivered, cancelled and expired tasklets all
	// stop and forget their timer. The window
	// is generous because abandoned attempts settle only when their provider
	// reports in, and the throttled provider stretches race-slowed
	// executions considerably.
	deadline := time.Now().Add(30 * time.Second)
	for {
		s := b.Snapshot()
		armed := b.core.ArmedDeadlines()
		if s.Pending == 0 && s.InFlight == 0 && s.Jobs == 0 && armed == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leaked state after stress: pending=%d inflight=%d jobs=%d deadline timers=%d",
				s.Pending, s.InFlight, s.Jobs, armed)
		}
		time.Sleep(5 * time.Millisecond)
	}

	m := b.Metrics()
	if m.Counter("tasklets.deadline_expired").Value() == 0 {
		t.Error("stress never expired a deadline (timer path not exercised)")
	}
	if m.Counter("attempts.lost").Value() == 0 {
		t.Error("provider loss produced no lost attempts")
	}
}

// TestDrainOrderPartitionZeroFirst pins the order a placement pass drains
// the stripes in: partition 0's queue before partition 1's, FIFO within
// each. A one-slot provider takes one attempt per pass, so the assigns
// arrive as every even tasklet ID in ascending order, then every odd one
// (tid = seq·P + pi). Latency percentiles depend on this order.
func TestDrainOrderPartitionZeroFirst(t *testing.T) {
	const n = 16
	b := New(Options{MemoEntries: -1, partitions: 2})
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	f := dialFakeProvider(t, addr, wire.Register{Slots: 1, Speed: 100}, 1)
	c, err := consumer.Connect(addr, "drain")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	job, err := c.Submit(compileJob(t, squareSrc, intRows(n)...))
	if err != nil {
		t.Fatal(err)
	}
	var order []core.TaskletID
	for len(order) < n {
		if !f.recv(10 * time.Second) {
			t.Fatalf("%d of %d attempts placed, then none", len(order), n)
		}
		for _, a := range f.held {
			order = append(order, a.Tasklet)
		}
		f.answer(len(f.held), time.Microsecond)
	}
	res, err := job.Collect(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	checkSquares(t, res, n)

	var even, odd []core.TaskletID
	for _, tid := range order {
		if tid%2 == 0 {
			even = append(even, tid)
		} else {
			odd = append(odd, tid)
		}
	}
	if len(even) == 0 || len(odd) == 0 {
		t.Fatalf("assign order %v leaves a stripe empty", order)
	}
	sort.Slice(even, func(i, j int) bool { return even[i] < even[j] })
	sort.Slice(odd, func(i, j int) bool { return odd[i] < odd[j] })
	if want := append(even, odd...); !reflect.DeepEqual(order, want) {
		t.Fatalf("assign order %v, want partition 0 then 1, FIFO within each: %v", order, want)
	}
}
