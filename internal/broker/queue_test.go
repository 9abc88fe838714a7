package broker

import (
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/consumer"
	"repro/internal/core"
	"repro/internal/dispatch"
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
func soleProvider(t *testing.T, b *Broker) *dispatch.Provider {
	t.Helper()
	for start := time.Now(); time.Since(start) < 10*time.Second; time.Sleep(time.Millisecond) {
		b.mu.Lock()
		for _, p := range b.providers {
			b.mu.Unlock()
			return p.prov
		}
		b.mu.Unlock()
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
func openGate(t *testing.T, c *consumer.Client, p *dispatch.Provider) {
	t.Helper()
	for i := 0; p.ExecMean() >= wire.TinyExecNanos; i++ {
		if i == 50 {
			t.Fatalf("provider's mean execution stayed at %dns after %d noop jobs", p.ExecMean(), i)
		}
		runJob(t, c, compileJob(t, squareSrc, intRows(64)...))
	}
}

// holdEndless submits n tasklets that run until cancelled and waits until
// the provider holds want of them; it then checks that no further attempt
// is placed, and returns the job for the caller to cancel.
func holdEndless(t *testing.T, b *Broker, c *consumer.Client, p *dispatch.Provider, n, want int) *consumer.Job {
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
	for start := time.Now(); p.Backlog() != want; time.Sleep(time.Millisecond) {
		if time.Since(start) > 10*time.Second {
			t.Fatalf("provider holds %d attempts, want %d", p.Backlog(), want)
		}
	}
	time.Sleep(100 * time.Millisecond) // any further placement would land now
	if got := p.Backlog(); got != want {
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

// TestBrokerQueuesBehindTinyAttempts: a provider whose recent
// attempts were tiny is given queued attempts beyond the ones it runs —
// exactly its credits, no more — and rejects none of them.
func TestBrokerQueuesBehindTinyAttempts(t *testing.T) {
	const slots = 2
	b, reg, c := queueStack(t, slots)
	p := soleProvider(t, b)
	openGate(t, c, p)
	want := b.core.Credits(p)
	if want <= slots {
		t.Fatalf("credits %d at a mean execution of %dns, want more than the %d slots", want, p.ExecMean(), slots)
	}
	job := holdEndless(t, b, c, p, want+8, want)
	cancelAndCheck(t, c, job, reg)
}

// TestBrokerStopsQueueingAfterLongAttempts: once a provider reports attempts
// longer than wire.TinyExecNanos, placement gives it no attempt past its
// Slots, as for a provider without a queue.
func TestBrokerStopsQueueingAfterLongAttempts(t *testing.T) {
	const slots = 2
	b, reg, c := queueStack(t, slots)
	p := soleProvider(t, b)
	openGate(t, c, p)
	// 200 000 iterations run for milliseconds: far past the threshold.
	runJob(t, c, compileJob(t, spinSrc, []int64{200_000}, []int64{200_001}))
	if m := p.ExecMean(); m < wire.TinyExecNanos {
		t.Fatalf("mean execution %dns after millisecond attempts, want ≥ %d", m, wire.TinyExecNanos)
	}
	job := holdEndless(t, b, c, p, 10, slots)
	cancelAndCheck(t, c, job, reg)
}

// fakeProvider is a raw-wire provider driven by hand. It holds every
// attempt it is given until the test answers it, and fails the test if the
// broker gives it more than it admits: that attempt would be rejected.
type fakeProvider struct {
	t     *testing.T
	nc    net.Conn
	conn  *wire.Conn
	msgs  chan wire.Message
	limit int // attempts admitted at once
	held  []wire.Assign
}

// dialFakeProvider registers a provider with the given Register frame,
// admitting limit attempts at once.
func dialFakeProvider(t *testing.T, addr string, reg wire.Register, limit int) *fakeProvider {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	f := &fakeProvider{t: t, nc: nc, conn: wire.NewConn(nc), msgs: make(chan wire.Message, 1024), limit: limit}
	if err := f.conn.Send(&wire.Hello{Version: wire.ProtocolVersion, Role: wire.RoleProvider, Name: "fake"}); err != nil {
		t.Fatal(err)
	}
	if msg, err := f.conn.Recv(); err != nil {
		t.Fatal(err)
	} else if _, ok := msg.(*wire.Welcome); !ok {
		t.Fatalf("handshake reply = %T", msg)
	}
	if err := f.conn.Send(&reg); err != nil {
		t.Fatal(err)
	}
	go func() {
		defer close(f.msgs)
		for {
			msg, err := f.conn.Recv()
			if err != nil {
				return
			}
			f.msgs <- msg
		}
	}()
	return f
}

// recv takes the next broker message within wait, holding the attempts it
// carries; false means none came.
func (f *fakeProvider) recv(wait time.Duration) bool {
	f.t.Helper()
	select {
	case msg, ok := <-f.msgs:
		if !ok {
			f.t.Fatal("broker closed the provider connection")
		}
		if m, ok := msg.(*wire.AssignBatch); ok {
			for i := range m.Assigns {
				f.hold(&m.Assigns[i])
			}
		}
		return true
	case <-time.After(wait):
		return false
	}
}

func (f *fakeProvider) hold(a *wire.Assign) {
	f.t.Helper()
	if len(f.held) == f.limit {
		f.t.Fatalf("attempt %d placed on a provider holding the %d it admits: it would be rejected", a.Attempt, f.limit)
	}
	f.held = append(f.held, *a)
}

// settle holds attempts until it holds want, then through a quiet spell in
// which any further placement would land, and returns how many it holds.
func (f *fakeProvider) settle(want int) int {
	f.t.Helper()
	for start := time.Now(); len(f.held) < want && time.Since(start) < 10*time.Second; {
		f.recv(10 * time.Millisecond)
	}
	for f.recv(100 * time.Millisecond) {
	}
	return len(f.held)
}

// answer reports the first n held attempts as squares of their parameter
// that each ran for exec.
func (f *fakeProvider) answer(n int, exec time.Duration) {
	f.t.Helper()
	for _, a := range f.held[:n] {
		x := a.Params[0].I
		f.report(wire.AttemptResult{
			Attempt: a.Attempt, Tasklet: a.Tasklet, Status: core.StatusOK,
			Return: tvm.Int(x * x), FuelUsed: 1, ExecNanos: int64(exec),
		})
	}
	f.held = append(f.held[:0], f.held[n:]...)
}

// report sends one result in the only frame a provider reports in.
func (f *fakeProvider) report(r wire.AttemptResult) {
	f.t.Helper()
	if err := f.conn.Send(&wire.AttemptResultBatch{Results: []wire.AttemptResult{r}}); err != nil {
		f.t.Fatal(err)
	}
}

// serve answers every attempt as it arrives, each run for exec, until job
// has all its results, and checks them.
func (f *fakeProvider) serve(job *consumer.Job, exec time.Duration) {
	f.t.Helper()
	for start := time.Now(); ; {
		if done, failed := job.Counts(); done+failed == job.Tasklets {
			break
		}
		if time.Since(start) > 10*time.Second {
			f.t.Fatal("job did not finish")
		}
		f.recv(5 * time.Millisecond)
		f.answer(len(f.held), exec)
	}
	res, err := job.Collect(ctxT(f.t))
	if err != nil {
		f.t.Fatal(err)
	}
	checkSquares(f.t, res, job.Tasklets)
}

// fakeQueueStack starts a memo-less broker, a fake provider and a consumer,
// and runs a 64-tasklet job whose every attempt the provider reports as
// running for exec, so the broker's mean execution time for it settles
// there.
func fakeQueueStack(t *testing.T, reg wire.Register, limit int, exec time.Duration) (*Broker, *fakeProvider, *consumer.Client) {
	t.Helper()
	b := New(Options{MemoEntries: -1})
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	f := dialFakeProvider(t, addr, reg, limit)
	c, err := consumer.Connect(addr, "queue")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	job, err := c.Submit(compileJob(t, squareSrc, intRows(64)...))
	if err != nil {
		t.Fatal(err)
	}
	f.serve(job, exec)
	return b, f, c
}

// TestBrokerQueueDepthFollowsExecTime: queued credits are Slots ×
// ⌊TinyExecNanos / mean execution⌋, capped by the queue the provider
// advertised — the whole advertised queue for 1 µs attempts, two per slot
// at 20 µs, one at 30 µs, none from TinyExecNanos on.
func TestBrokerQueueDepthFollowsExecTime(t *testing.T) {
	const slots, queue, n = 2, 10, 40
	for _, tc := range []struct {
		exec   time.Duration
		queued int
	}{
		{time.Microsecond, queue},
		{20 * time.Microsecond, 2 * slots},
		{30 * time.Microsecond, slots},
		{wire.TinyExecNanos, 0},
		{time.Millisecond, 0},
	} {
		t.Run(tc.exec.String(), func(t *testing.T) {
			reg := wire.Register{Slots: slots, Speed: 100, Queue: queue}
			b, f, c := fakeQueueStack(t, reg, slots+queue, tc.exec)
			job, err := c.Submit(compileJob(t, squareSrc, intRows(n)...))
			if err != nil {
				t.Fatal(err)
			}
			want := slots + tc.queued
			if got := f.settle(want); got != want {
				t.Fatalf("provider holds %d attempts at a mean execution of %dns, want %d",
					got, soleProvider(t, b).ExecMean(), want)
			}
			if got := b.Snapshot().Pending; got != n-want {
				t.Fatalf("%d tasklets pending, want %d", got, n-want)
			}
			f.serve(job, tc.exec)
		})
	}
}

// TestBrokerShrinksQueueOnLongResult: one 1 ms result on a provider holding
// a deep queue of 1 µs attempts takes its queued credits to zero at once —
// no attempt replaces the one it finished, and none is placed past what the
// provider admits — and once its queue drains it holds only Slots.
func TestBrokerShrinksQueueOnLongResult(t *testing.T) {
	const slots, queue, n = 2, 10, 40
	reg := wire.Register{Slots: slots, Speed: 100, Queue: queue}
	b, f, c := fakeQueueStack(t, reg, slots+queue, time.Microsecond)
	p := soleProvider(t, b)
	job, err := c.Submit(compileJob(t, squareSrc, intRows(n)...))
	if err != nil {
		t.Fatal(err)
	}
	if got := f.settle(slots + queue); got != slots+queue {
		t.Fatalf("provider holds %d attempts, want %d", got, slots+queue)
	}
	f.answer(1, time.Millisecond)
	if got := f.settle(slots + queue - 1); got != slots+queue-1 {
		t.Fatalf("provider holds %d attempts after a 1 ms result, want %d", got, slots+queue-1)
	}
	if m := p.ExecMean(); m < wire.TinyExecNanos {
		t.Fatalf("mean execution %dns after a 1 ms result, want ≥ %d", m, wire.TinyExecNanos)
	}
	if got := b.core.Credits(p); got != 0 {
		t.Fatalf("credits = %d after a 1 ms result, want 0", got)
	}
	f.answer(len(f.held), time.Millisecond)
	if got := f.settle(slots); got != slots {
		t.Fatalf("provider holds %d attempts after millisecond results, want %d", got, slots)
	}
	f.serve(job, time.Millisecond)
}

// TestBrokerNeverQueuesWithoutQueue: a provider that registers no queued
// places never has more than Slots attempts outstanding, however tiny its
// attempts.
func TestBrokerNeverQueuesWithoutQueue(t *testing.T) {
	const slots, n = 2, 40
	_, f, c := fakeQueueStack(t, wire.Register{Slots: slots, Speed: 100}, slots, time.Microsecond)
	job, err := c.Submit(compileJob(t, squareSrc, intRows(n)...))
	if err != nil {
		t.Fatal(err)
	}
	if got := f.settle(slots); got != slots {
		t.Fatalf("provider holds %d attempts, want %d", got, slots)
	}
	f.serve(job, time.Microsecond)
}

// TestProviderLossWithDeepQueue kills a provider holding a full deep queue
// mid-burst. Every tasklet must finalize exactly once with the right value
// on the provider that replaces it, every attempt the dead provider held
// must count as lost, the attempt and deadline maps must drain, and the
// broker must return to its idle goroutine count.
func TestProviderLossWithDeepQueue(t *testing.T) {
	const slots, queue, n = 2, 10, 64
	before := runtime.NumGoroutine()
	b := New(Options{MemoEntries: -1})
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	f := dialFakeProvider(t, addr, wire.Register{Slots: slots, Speed: 100, Queue: queue}, slots+queue)
	c, err := consumer.Connect(addr, "loss")
	if err != nil {
		t.Fatal(err)
	}
	warm, err := c.Submit(compileJob(t, squareSrc, intRows(64)...))
	if err != nil {
		t.Fatal(err)
	}
	f.serve(warm, time.Microsecond)
	m := b.Metrics()
	completed := m.Counter("tasklets.completed").Value()

	spec := compileJob(t, squareSrc, intRows(n)...)
	spec.QoC.Deadline = time.Minute // arms a deadline timer per tasklet
	job, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Mid-burst: answer some, let the queue refill, then die holding it.
	if got := f.settle(slots + queue); got != slots+queue {
		t.Fatalf("provider holds %d attempts, want %d", got, slots+queue)
	}
	f.answer(5, time.Microsecond)
	if got := f.settle(slots + queue); got != slots+queue {
		t.Fatalf("provider holds %d attempts after 5 results, want %d", got, slots+queue)
	}
	f.nc.Close()
	for start := time.Now(); m.Counter("providers.lost").Value() != 1; time.Sleep(time.Millisecond) {
		if time.Since(start) > 10*time.Second {
			t.Fatal("broker never noticed the provider's loss")
		}
	}
	if got := m.Counter("attempts.lost").Value(); got != slots+queue {
		t.Fatalf("attempts.lost = %d, want the %d the provider held", got, slots+queue)
	}

	p, err := provider.Connect(provider.Options{BrokerAddr: addr, Slots: slots, Speed: 100})
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]int, n)
	for r := range job.Results() {
		seen[r.Index]++
		if !r.OK() || r.Return.I != int64(r.Index*r.Index) {
			t.Fatalf("result %+v, want %d", r, r.Index*r.Index)
		}
	}
	if err := job.Err(); err != nil {
		t.Fatal(err)
	}
	for i, k := range seen {
		if k != 1 {
			t.Fatalf("tasklet %d finalized %d times", i, k)
		}
	}
	if got := m.Counter("tasklets.completed").Value() - completed; got != n {
		t.Fatalf("tasklets.completed rose by %d, want %d", got, n)
	}

	for start := time.Now(); ; time.Sleep(5 * time.Millisecond) {
		s := b.Snapshot()
		armed := b.core.ArmedDeadlines()
		if s.Pending == 0 && s.InFlight == 0 && s.Jobs == 0 && armed == 0 {
			break
		}
		if time.Since(start) > 10*time.Second {
			t.Fatalf("leaked state: pending=%d inflight=%d jobs=%d deadline timers=%d",
				s.Pending, s.InFlight, s.Jobs, armed)
		}
	}

	p.Close()
	c.Close()
	for start := time.Now(); ; time.Sleep(10 * time.Millisecond) {
		extra := runtime.NumGoroutine() - before
		if extra <= 3 { // TestIdleBrokerGoroutines' idle broker
			break
		}
		if time.Since(start) > 10*time.Second {
			t.Fatalf("broker runs %d goroutines after its peers left, want the idle 3", extra)
		}
	}
}
