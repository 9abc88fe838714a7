package broker

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/consumer"
	"repro/internal/core"
	"repro/internal/provider"
)

// TestRetryBackoffDelaysReissue pins the delayed-launch path end to end: a
// provider dies holding the only attempt, and with RetryBackoff the
// re-issue must wait out the backoff even though a surviving provider has a
// free slot the whole time — then complete there.
func TestRetryBackoffDelaysReissue(t *testing.T) {
	const backoff = 100 * time.Millisecond
	b := New(Options{RetryBackoff: backoff})
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	assigns, kill := silentProvider(t, addr, 1)

	c, err := consumer.Connect(addr, "backoff")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	job, err := c.Submit(compileJob(t, squareSrc, []int64{7}))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-assigns:
	case <-time.After(5 * time.Second):
		t.Fatal("tasklet was never assigned")
	}

	// The survivor registers before the loss, so only the backoff can hold
	// the re-issue back.
	survivor := addProvider(t, addr, provider.Options{Slots: 1, Speed: 100, Name: "survivor"})
	for start := time.Now(); len(b.Snapshot().Providers) < 2 || b.freeSlotsSample() < 1; time.Sleep(time.Millisecond) {
		if time.Since(start) > 10*time.Second {
			t.Fatal("survivor never registered")
		}
	}

	launched := b.Metrics().Counter("attempts.launched")
	lost := time.Now() // the broker learns of the loss no earlier than this
	kill()
	for {
		// Read the counter before the clock: a placement seen here happened
		// no later than elapsed after the loss.
		n := launched.Value()
		elapsed := time.Since(lost)
		if n > 1 && elapsed < backoff {
			t.Fatalf("re-issue placed %v after the loss, inside the %v backoff", elapsed, backoff)
		}
		if elapsed >= backoff {
			break
		}
		time.Sleep(time.Millisecond)
	}

	res, err := job.Collect(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].OK() || res[0].Return.I != 49 {
		t.Fatalf("re-issued result = %+v, want 49", res[0])
	}
	if res[0].Provider != survivor.ID() || res[0].Attempts != 2 {
		t.Fatalf("re-issued result ran on provider %d in %d attempts, want survivor %d in 2",
			res[0].Provider, res[0].Attempts, survivor.ID())
	}
}

// TestCloseWithArmedTimers closes a broker holding both kinds of timer — a
// long QoC deadline on a tasklet no provider can take, and a backoff
// re-issue still waiting out its delay. Close must not wait for either, and
// neither may deliver or queue anything once Close has returned.
func TestCloseWithArmedTimers(t *testing.T) {
	const backoff = time.Second
	b := New(Options{RetryBackoff: backoff})
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	assigns, kill := silentProvider(t, addr, 1)

	c, err := consumer.Connect(addr, "armed")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Submit(compileJob(t, squareSrc, []int64{7})); err != nil {
		t.Fatal(err)
	}
	select {
	case <-assigns:
	case <-time.After(5 * time.Second):
		t.Fatal("tasklet was never assigned")
	}
	lost := time.Now()
	kill()
	for start := time.Now(); b.Metrics().Counter("attempts.lost").Value() == 0; time.Sleep(time.Millisecond) {
		if time.Since(start) > 10*time.Second {
			t.Fatal("provider loss was never noticed")
		}
	}

	spec := compileJob(t, squareSrc, []int64{8})
	spec.QoC = core.QoC{Deadline: 10 * time.Second}
	if _, err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); armedDeadlines(b) == 0; time.Sleep(time.Millisecond) {
		if time.Since(start) > 10*time.Second {
			t.Fatal("deadline was never armed")
		}
	}
	if pending := b.pendingN.Load(); pending != 1 {
		t.Fatalf("pending = %d before Close, want only the deadline tasklet (the re-issue waits out its backoff)", pending)
	}

	start := time.Now()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > backoff/2 {
		t.Fatalf("Close took %v with timers armed", d)
	}
	finals := b.finalizedN.Load()

	// Let the backoff timer fire into the closed broker.
	time.Sleep(time.Until(lost.Add(backoff + 200*time.Millisecond)))
	if got := b.finalizedN.Load(); got != finals {
		t.Fatalf("%d finals delivered after Close", got-finals)
	}
	if got := b.pendingN.Load(); got != 0 {
		t.Fatalf("pending = %d after Close, want 0", got)
	}
	if got := armedDeadlines(b); got != 0 {
		t.Fatalf("%d deadline timers still armed after Close", got)
	}
}

// TestIdleBrokerGoroutines pins the background goroutines of a listening,
// unsharded broker: accept, reaper and scheduler, however many partitions
// it stripes its state over.
func TestIdleBrokerGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	b := New(Options{Partitions: 8})
	if _, err := b.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	// A timer callback left by an earlier test can add a short-lived
	// goroutine, so a high count must persist before it fails the test.
	for start := time.Now(); ; time.Sleep(10 * time.Millisecond) {
		extra := runtime.NumGoroutine() - before
		if extra <= 3 {
			break
		}
		if time.Since(start) > time.Second {
			t.Fatalf("idle broker runs %d background goroutines, want 3", extra)
		}
	}
}
