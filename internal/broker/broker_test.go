package broker

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/consumer"
	"repro/internal/core"
	"repro/internal/provider"
	"repro/internal/scheduler"
	"repro/internal/tasklang"
	"repro/internal/tvm"
	"repro/internal/wire"
)

// testStack spins up a broker plus n providers on loopback and returns the
// broker address. Everything is torn down with t.Cleanup.
func testStack(t *testing.T, opts Options, n int, provOpts func(i int) provider.Options) string {
	t.Helper()
	b := New(opts)
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	for i := 0; i < n; i++ {
		po := provider.Options{BrokerAddr: addr, Slots: 2, Speed: 100, Name: fmt.Sprintf("p%d", i)}
		if provOpts != nil {
			po = provOpts(i)
			po.BrokerAddr = addr
		}
		p, err := provider.Connect(po)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
	}
	return addr
}

// compileJob builds a JobSpec from TCL source and int parameter rows.
func compileJob(t *testing.T, src string, rows ...[]int64) core.JobSpec {
	t.Helper()
	prog, err := tasklang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	data, err := prog.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	params := make([][]tvm.Value, len(rows))
	for i, row := range rows {
		vals := make([]tvm.Value, len(row))
		for j, v := range row {
			vals[j] = tvm.Int(v)
		}
		params[i] = vals
	}
	return core.JobSpec{Program: data, Params: params, Seed: 1}
}

func ctxT(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

const squareSrc = `func main(n int) int { return n * n; }`

func TestEndToEndSingleTasklet(t *testing.T) {
	addr := testStack(t, Options{}, 1, nil)
	c, err := consumer.Connect(addr, "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	job, err := c.Submit(compileJob(t, squareSrc, []int64{12}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Collect(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || !res[0].OK() || res[0].Return.I != 144 {
		t.Fatalf("results = %+v", res)
	}
	if res[0].Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", res[0].Attempts)
	}
}

func TestEndToEndManyTaskletsOrdered(t *testing.T) {
	addr := testStack(t, Options{}, 3, nil)
	c, err := consumer.Connect(addr, "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 64
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{int64(i)}
	}
	job, err := c.Submit(compileJob(t, squareSrc, rows...))
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Collect(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !r.OK() || r.Return.I != int64(i*i) {
			t.Fatalf("result[%d] = %+v, want %d", i, r, i*i)
		}
	}
	completed, failed := job.Counts()
	if completed != n || failed != 0 {
		t.Fatalf("counts = %d/%d", completed, failed)
	}
}

func TestEndToEndProgramShippedOnce(t *testing.T) {
	reg := Options{}
	addr := testStack(t, reg, 1, nil)
	c, err := consumer.Connect(addr, "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rows := make([][]int64, 20)
	for i := range rows {
		rows[i] = []int64{int64(i)}
	}
	job, err := c.Submit(compileJob(t, squareSrc, rows...))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Collect(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	// A second job with the same program reuses the provider cache: no way
	// to observe directly from here, but completing fast with one provider
	// shows the flow works; the dedup behaviour itself is unit-tested via
	// the wire Assign.ProgramData contract in provider tests.
}

func TestEndToEndFaultReported(t *testing.T) {
	addr := testStack(t, Options{}, 1, nil)
	c, err := consumer.Connect(addr, "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	job, err := c.Submit(compileJob(t, `func main(n int) int { return 1 / n; }`, []int64{0}, []int64{2}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Collect(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].OK() || res[0].Status != core.StatusFault {
		t.Fatalf("div-by-zero result = %+v", res[0])
	}
	if !res[1].OK() || res[1].Return.I != 0 {
		t.Fatalf("1/2 = %+v", res[1])
	}
	_, failed := job.Counts()
	if failed != 1 {
		t.Fatalf("failed = %d, want 1", failed)
	}
}

func TestEndToEndEmittedValues(t *testing.T) {
	addr := testStack(t, Options{}, 1, nil)
	c, err := consumer.Connect(addr, "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	src := `func main(n int) void { for (var i int = 0; i < n; i = i + 1) { emit(i * 10); } }`
	job, err := c.Submit(compileJob(t, src, []int64{3}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Collect(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0].Emitted) != 3 || res[0].Emitted[2].I != 20 {
		t.Fatalf("emitted = %v", res[0].Emitted)
	}
}

func TestRedundantQoCUsesDistinctProviders(t *testing.T) {
	addr := testStack(t, Options{}, 3, nil)
	c, err := consumer.Connect(addr, "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	spec := compileJob(t, squareSrc, []int64{9})
	spec.QoC = core.QoC{Mode: core.QoCVoting, Replicas: 3}
	job, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Collect(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].OK() || res[0].Return.I != 81 {
		t.Fatalf("voting result = %+v", res[0])
	}
	if res[0].Attempts < 2 {
		t.Fatalf("voting used %d attempts, want >= majority", res[0].Attempts)
	}
}

// A saturated fleet (3 one-slot providers, 128 attempts to place) makes
// every vote arrive while its sibling still waits for a slot. At the default
// retry budget nothing may be spent on that: each tasklet runs exactly the
// two agreeing attempts a 3-way vote needs.
func TestVotingOnSaturatedFleetSpendsNoRetry(t *testing.T) {
	b, addr := memoStack(t, Options{}, 3, 1)
	c, err := consumer.Connect(addr, "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 64
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{int64(i)}
	}
	spec := compileJob(t, squareSrc, rows...)
	spec.QoC = core.QoC{Mode: core.QoCVoting, Replicas: 3}
	job, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Collect(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !r.OK() || r.Return.I != int64(i*i) || r.Attempts != 2 {
			t.Fatalf("tasklet %d = %+v, want %d after exactly 2 attempts", i, r, i*i)
		}
	}
	if got := b.Metrics().Counter("attempts.launched").Value(); got != 2*n {
		t.Fatalf("attempts.launched = %d, want %d", got, 2*n)
	}
}

func TestProviderChurnReissuesWork(t *testing.T) {
	// One flaky provider dies after 5 tasklets; a stable one finishes the
	// job. Heartbeat timeout is short so loss detection is fast.
	opts := Options{HeartbeatTimeout: 300 * time.Millisecond}
	addr := testStack(t, opts, 2, func(i int) provider.Options {
		po := provider.Options{Slots: 1, Speed: 100, Name: fmt.Sprintf("p%d", i),
			HeartbeatInterval: 50 * time.Millisecond}
		if i == 0 {
			po.FailAfter = 5
		}
		return po
	})
	c, err := consumer.Connect(addr, "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 40
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{int64(i)}
	}
	job, err := c.Submit(compileJob(t, squareSrc, rows...))
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Collect(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !r.OK() {
			t.Fatalf("tasklet %d failed despite surviving provider: %+v", i, r)
		}
		if r.Return.I != int64(i*i) {
			t.Fatalf("tasklet %d = %d, want %d", i, r.Return.I, i*i)
		}
	}
}

func TestAllProvidersGoneThenJoinLate(t *testing.T) {
	// Submitting with zero providers queues; a provider joining later
	// drains the queue.
	b := New(Options{})
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	c, err := consumer.Connect(addr, "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	job, err := c.Submit(compileJob(t, squareSrc, []int64{5}))
	if err != nil {
		t.Fatal(err)
	}
	// Give the broker a moment to verify nothing completes without
	// providers.
	select {
	case r := <-job.Results():
		t.Fatalf("result with no providers: %+v", r)
	case <-time.After(100 * time.Millisecond):
	}

	p, err := provider.Connect(provider.Options{BrokerAddr: addr, Slots: 1, Speed: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	res, err := job.Collect(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].OK() || res[0].Return.I != 25 {
		t.Fatalf("late-join result = %+v", res[0])
	}
}

func TestDeadlineExpiresUnplaceableTasklet(t *testing.T) {
	// No providers at all: the deadline must fire and fail the tasklet.
	b := New(Options{})
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	c, err := consumer.Connect(addr, "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	spec := compileJob(t, squareSrc, []int64{1})
	spec.QoC = core.QoC{Deadline: 150 * time.Millisecond}
	job, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Collect(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].OK() || res[0].Fault == "" {
		t.Fatalf("deadline result = %+v", res[0])
	}
}

func TestCancelJobStopsDelivery(t *testing.T) {
	addr := testStack(t, Options{}, 1, func(int) provider.Options {
		return provider.Options{Slots: 1, Speed: 100}
	})
	c, err := consumer.Connect(addr, "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A slow job: each tasklet burns real fuel.
	src := `func main(n int) int {
		var acc int = 0;
		for (var i int = 0; i < 3000000; i = i + 1) { acc = acc + i % 7; }
		return acc;
	}`
	rows := make([][]int64, 50)
	for i := range rows {
		rows[i] = []int64{int64(i)}
	}
	job, err := c.Submit(compileJob(t, src, rows...))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(job); err != nil {
		t.Fatal(err)
	}
	if _, err := job.Collect(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	// Counts tracks results actually delivered before the job ended; a
	// working cancel leaves most of the 50 tasklets undelivered.
	completed, _ := job.Counts()
	if completed == 50 {
		t.Fatal("cancel had no effect; all tasklets completed")
	}
}

func TestBadJobRejected(t *testing.T) {
	addr := testStack(t, Options{}, 1, nil)
	c, err := consumer.Connect(addr, "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Submit(core.JobSpec{Program: []byte("garbage"), Params: [][]tvm.Value{{}}})
	if err == nil {
		t.Fatal("garbage program accepted by client-side validation")
	}
}

func TestBrokerRejectsWrongVersion(t *testing.T) {
	b := New(Options{})
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	conn := wire.NewConn(nc)
	if err := conn.Send(&wire.Hello{Version: 99, Role: wire.RoleConsumer}); err != nil {
		t.Fatal(err)
	}
	msg, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	em, ok := msg.(*wire.ErrorMsg)
	if !ok || em.Code != wire.ErrCodeVersion {
		t.Fatalf("reply = %#v, want version error", msg)
	}
}

func TestBrokerRejectsNonHelloFirstMessage(t *testing.T) {
	b := New(Options{})
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	conn := wire.NewConn(nc)
	if err := conn.Send(&wire.Heartbeat{}); err != nil {
		t.Fatal(err)
	}
	msg, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if em, ok := msg.(*wire.ErrorMsg); !ok || em.Code != wire.ErrCodeProtocol {
		t.Fatalf("reply = %#v, want protocol error", msg)
	}
}

func TestSnapshotReflectsProviders(t *testing.T) {
	b := New(Options{})
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	p, err := provider.Connect(provider.Options{BrokerAddr: addr, Slots: 3, Speed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		s := b.Snapshot()
		if len(s.Providers) == 1 && s.Providers[0].Slots == 3 {
			if s.Providers[0].Speed != 42 {
				t.Fatalf("speed = %v, want 42", s.Providers[0].Speed)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("provider never registered: %+v", s)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestMetricsAccounting(t *testing.T) {
	b := New(Options{})
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	p, err := provider.Connect(provider.Options{BrokerAddr: addr, Slots: 2, Speed: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c, err := consumer.Connect(addr, "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	job, err := c.Submit(compileJob(t, squareSrc, []int64{1}, []int64{2}, []int64{3}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Collect(ctxT(t)); err != nil {
		t.Fatal(err)
	}
	m := b.Metrics()
	if got := m.Counter("tasklets.submitted").Value(); got != 3 {
		t.Fatalf("submitted = %d", got)
	}
	if got := m.Counter("tasklets.completed").Value(); got != 3 {
		t.Fatalf("completed = %d", got)
	}
	if got := m.Counter("attempts.ok").Value(); got < 3 {
		t.Fatalf("attempts.ok = %d", got)
	}
}

func TestFastestPolicySendsWorkToFastProvider(t *testing.T) {
	opts := Options{Policy: scheduler.NewFastestFree()}
	b := New(opts)
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	fast, err := provider.Connect(provider.Options{BrokerAddr: addr, Slots: 1, Speed: 1000, Name: "fast"})
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	slow, err := provider.Connect(provider.Options{BrokerAddr: addr, Slots: 1, Speed: 1, Name: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()

	c, err := consumer.Connect(addr, "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Sequential single-tasklet jobs: with a free fast provider the policy
	// must always choose it.
	for i := 0; i < 5; i++ {
		job, err := c.Submit(compileJob(t, squareSrc, []int64{int64(i)}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := job.Collect(ctxT(t)); err != nil {
			t.Fatal(err)
		}
	}
	if fast.Executed() != 5 || slow.Executed() != 0 {
		t.Fatalf("fast=%d slow=%d, want 5/0", fast.Executed(), slow.Executed())
	}
}

func TestConsumerDisconnectCleansUp(t *testing.T) {
	b := New(Options{})
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	c, err := consumer.Connect(addr, "test")
	if err != nil {
		t.Fatal(err)
	}
	// Submit with no providers so tasklets stay queued, then vanish.
	if _, err := c.Submit(compileJob(t, squareSrc, []int64{1}, []int64{2})); err != nil {
		t.Fatal(err)
	}
	c.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		s := b.Snapshot()
		if s.Jobs == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs not cleaned after consumer left: %+v", s)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestAdmissionControlRejectsOversizedQueue(t *testing.T) {
	b := New(Options{MaxPendingPerConsumer: 10})
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	c, err := consumer.Connect(addr, "greedy")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// 11 tasklets with no providers: exceeds the per-consumer budget.
	rows := make([][]int64, 11)
	for i := range rows {
		rows[i] = []int64{int64(i)}
	}
	if _, err := c.Submit(compileJob(t, squareSrc, rows...)); err == nil {
		t.Fatal("oversized job accepted")
	}
	// A smaller job still fits and the session remains usable.
	job, err := c.Submit(compileJob(t, squareSrc, rows[:5]...))
	if err != nil {
		t.Fatalf("within-budget job rejected: %v", err)
	}
	p, err := provider.Connect(provider.Options{BrokerAddr: addr, Slots: 2, Speed: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	res, err := job.Collect(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if !res[4].OK() || res[4].Return.I != 16 {
		t.Fatalf("res = %+v", res[4])
	}
}

func TestMultipleConsumersInterleave(t *testing.T) {
	// Two consumers submit concurrently; each gets exactly its own
	// results back.
	addr := testStack(t, Options{}, 2, nil)

	type outcome struct {
		id  int
		res []consumer.TaskResult
		err error
	}
	results := make(chan outcome, 2)
	for id := 0; id < 2; id++ {
		go func(id int) {
			c, err := consumer.Connect(addr, fmt.Sprintf("consumer-%d", id))
			if err != nil {
				results <- outcome{id: id, err: err}
				return
			}
			defer c.Close()
			rows := make([][]int64, 30)
			for i := range rows {
				rows[i] = []int64{int64(id*1000 + i)}
			}
			job, err := c.Submit(compileJob(t, squareSrc, rows...))
			if err != nil {
				results <- outcome{id: id, err: err}
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			res, err := job.Collect(ctx)
			results <- outcome{id: id, res: res, err: err}
		}(id)
	}
	for n := 0; n < 2; n++ {
		o := <-results
		if o.err != nil {
			t.Fatalf("consumer %d: %v", o.id, o.err)
		}
		for i, r := range o.res {
			want := int64(o.id*1000+i) * int64(o.id*1000+i)
			if !r.OK() || r.Return.I != want {
				t.Fatalf("consumer %d result %d = %+v, want %d (cross-consumer leak?)",
					o.id, i, r, want)
			}
		}
	}
}
