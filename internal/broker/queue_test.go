package broker

import (
	"net"
	"testing"
	"time"

	"repro/internal/consumer"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/provider"
	"repro/internal/tvm"
	"repro/internal/wire"
)

// spinSrc runs n loop iterations; with n huge it runs until cancelled.
const spinSrc = `func main(n int) int {
	var acc int = 0;
	for (var i int = 0; i < n; i = i + 1) { acc = acc + i % 7; }
	return acc;
}`

// queueStack starts a memo-less broker (repeats must reach the provider),
// one real provider with the given slots, and a consumer. It returns the
// broker, the provider's metrics and the consumer.
func queueStack(t *testing.T, slots int) (*Broker, *metrics.Registry, *consumer.Client) {
	t.Helper()
	b := New(Options{MemoEntries: -1})
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	reg := &metrics.Registry{}
	p, err := provider.Connect(provider.Options{BrokerAddr: addr, Slots: slots, Speed: 100, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	c, err := consumer.Connect(addr, "queue")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return b, reg, c
}

// soleProvider returns the broker's one registered provider.
func soleProvider(t *testing.T, b *Broker) *providerState {
	t.Helper()
	for start := time.Now(); time.Since(start) < 10*time.Second; time.Sleep(time.Millisecond) {
		b.pmu.RLock()
		for _, p := range b.providers {
			b.pmu.RUnlock()
			return p
		}
		b.pmu.RUnlock()
	}
	t.Fatal("no provider registered")
	return nil
}

// runJob submits one job and requires every tasklet to come back OK.
func runJob(t *testing.T, c *consumer.Client, spec core.JobSpec) {
	t.Helper()
	job, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Collect(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if !r.OK() {
			t.Fatalf("tasklet %d: %+v", r.Index, r)
		}
	}
}

// openGate runs near-instant jobs until the provider's recent attempts read
// as tiny. One job is normally enough; a host that preempts a worker mid-run
// can report one long execution, which takes a few more tiny ones to outweigh.
func openGate(t *testing.T, c *consumer.Client, p *providerState) {
	t.Helper()
	for i := 0; p.execMean.Load() >= wire.TinyExecNanos; i++ {
		if i == 50 {
			t.Fatalf("provider's mean execution stayed at %dns after %d noop jobs", p.execMean.Load(), i)
		}
		runJob(t, c, compileJob(t, squareSrc, intRows(64)...))
	}
}

// holdEndless submits n tasklets that run until cancelled and waits until
// the provider holds want of them; it then checks that no further attempt
// is placed, and returns the job for the caller to cancel.
func holdEndless(t *testing.T, b *Broker, c *consumer.Client, p *providerState, n, want int) *consumer.Job {
	t.Helper()
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{1<<40 + int64(i)}
	}
	spec := compileJob(t, spinSrc, rows...)
	spec.Fuel = 1 << 50
	job, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); p.backlog.Load() != int64(want); time.Sleep(time.Millisecond) {
		if time.Since(start) > 10*time.Second {
			t.Fatalf("provider holds %d attempts, want %d", p.backlog.Load(), want)
		}
	}
	time.Sleep(100 * time.Millisecond) // any further placement would land now
	if got := p.backlog.Load(); got != int64(want) {
		t.Fatalf("provider holds %d attempts, want %d", got, want)
	}
	if got := b.Snapshot().Pending; got != n-want {
		t.Fatalf("%d tasklets pending, want %d", got, n-want)
	}
	return job
}

// cancelAndCheck cancels the held job and requires that the provider never
// rejected an attempt.
func cancelAndCheck(t *testing.T, c *consumer.Client, job *consumer.Job, reg *metrics.Registry) {
	t.Helper()
	if err := c.Cancel(job); err != nil {
		t.Fatal(err)
	}
	if _, err := job.Collect(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("provider.attempts.rejected").Value(); got != 0 {
		t.Fatalf("provider.attempts.rejected = %d, want 0", got)
	}
}

// TestBrokerQueuesBehindTinyAttempts: a CapQueue provider whose recent
// attempts were tiny is given one queued attempt per slot beyond the ones
// it runs — 2×Slots outstanding, no more — and rejects none of them.
func TestBrokerQueuesBehindTinyAttempts(t *testing.T) {
	const slots = 2
	b, reg, c := queueStack(t, slots)
	p := soleProvider(t, b)
	openGate(t, c, p)
	job := holdEndless(t, b, c, p, 10, 2*slots)
	cancelAndCheck(t, c, job, reg)
}

// TestBrokerStopsQueueingAfterLongAttempts: once a CapQueue provider reports
// attempts longer than wire.TinyExecNanos, placement gives it no attempt past
// its Slots, as for a provider without the queue.
func TestBrokerStopsQueueingAfterLongAttempts(t *testing.T) {
	const slots = 2
	b, reg, c := queueStack(t, slots)
	p := soleProvider(t, b)
	openGate(t, c, p)
	// 200 000 iterations run for milliseconds: far past the threshold.
	runJob(t, c, compileJob(t, spinSrc, []int64{200_000}, []int64{200_001}))
	if m := p.execMean.Load(); m < wire.TinyExecNanos {
		t.Fatalf("mean execution %dns after millisecond attempts, want ≥ %d", m, wire.TinyExecNanos)
	}
	job := holdEndless(t, b, c, p, 10, slots)
	cancelAndCheck(t, c, job, reg)
}

// TestBrokerNeverQueuesOnLegacyProvider: a provider that did not advertise
// wire.CapQueue never has more than Slots attempts outstanding, however tiny
// its attempts. The raw-wire provider here admits like one from before the
// queue, so any attempt past its Slots fails the test as a rejection would;
// it reports every attempt as a 1 µs execution once it holds Slots of them.
func TestBrokerNeverQueuesOnLegacyProvider(t *testing.T) {
	const slots, n = 2, 40
	b := New(Options{MemoEntries: -1})
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	pc := wire.NewConn(nc)
	if err := pc.Send(&wire.Hello{
		Version: wire.ProtocolVersion, Role: wire.RoleProvider, Name: "pre-queue",
		Caps: wire.CapFlagsTail | wire.CapBatch,
	}); err != nil {
		t.Fatal(err)
	}
	if msg, err := pc.Recv(); err != nil {
		t.Fatal(err)
	} else if _, ok := msg.(*wire.Welcome); !ok {
		t.Fatalf("handshake reply = %T", msg)
	}
	if err := pc.Send(&wire.Register{Slots: slots, Speed: 100}); err != nil {
		t.Fatal(err)
	}

	c, err := consumer.Connect(addr, "legacy")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	job, err := c.Submit(compileJob(t, squareSrc, intRows(n)...))
	if err != nil {
		t.Fatal(err)
	}

	msgs := make(chan wire.Message, 64)
	go func() {
		defer close(msgs)
		for {
			msg, err := pc.Recv()
			if err != nil {
				return
			}
			msgs <- msg
		}
	}()
	var held []wire.Assign
	done := 0
	admit := func(a *wire.Assign) {
		if len(held) == slots {
			t.Fatalf("attempt %d placed on a legacy provider holding its %d slots: it would be rejected", a.Attempt, slots)
		}
		held = append(held, *a)
	}
	for done < n {
		wait := 10 * time.Second
		full := len(held) == slots || done+len(held) == n
		if full {
			wait = 5 * time.Millisecond // time for the broker to over-place
		}
		var msg wire.Message
		select {
		case msg = <-msgs:
		case <-time.After(wait):
			if !full {
				t.Fatalf("no attempt for %v after %d results", wait, done)
			}
			for _, a := range held {
				x := a.Params[0].I
				if err := pc.Send(&wire.AttemptResult{
					Attempt: a.Attempt, Tasklet: a.Tasklet, Status: core.StatusOK,
					Return: tvm.Int(x * x), FuelUsed: 1, ExecNanos: 1000,
				}); err != nil {
					t.Fatal(err)
				}
			}
			done += len(held)
			held = held[:0]
			continue
		}
		switch m := msg.(type) {
		case nil:
			t.Fatalf("connection closed after %d results", done)
		case *wire.Assign:
			admit(m)
		case *wire.AssignBatch:
			for i := range m.Assigns {
				admit(&m.Assigns[i])
			}
		}
	}
	res, err := job.Collect(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	checkSquares(t, res, n)
}
