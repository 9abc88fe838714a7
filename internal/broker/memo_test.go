package broker

import (
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/consumer"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/provider"
	"repro/internal/wire"
)

// memoStack is testStack but returns the broker too, for metrics assertions.
func memoStack(t *testing.T, opts Options, n, slots int) (*Broker, string) {
	t.Helper()
	b := New(opts)
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	for i := 0; i < n; i++ {
		p, err := provider.Connect(provider.Options{
			BrokerAddr: addr, Slots: slots, Speed: 100, Name: fmt.Sprintf("m%d", i),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
	}
	return b, addr
}

func TestBrokerMemoHitSkipsProvider(t *testing.T) {
	b, addr := memoStack(t, Options{}, 1, 2)
	c, err := consumer.Connect(addr, "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	submit := func() consumer.TaskResult {
		job, err := c.Submit(compileJob(t, squareSrc, []int64{12}))
		if err != nil {
			t.Fatal(err)
		}
		res, err := job.Collect(ctxT(t))
		if err != nil {
			t.Fatal(err)
		}
		return res[0]
	}
	first := submit()
	if !first.OK() || first.Return.I != 144 || first.Attempts != 1 {
		t.Fatalf("first = %+v", first)
	}
	second := submit()
	if !second.OK() || second.Return.I != 144 {
		t.Fatalf("second = %+v", second)
	}
	// A memo hit is delivered without scheduling: zero attempts, no provider.
	if second.Attempts != 0 || second.Provider != 0 {
		t.Fatalf("cache hit ran attempts: %+v", second)
	}
	m := b.Metrics()
	if got := m.Counter("memo.hits").Value(); got != 1 {
		t.Fatalf("memo.hits = %d, want 1", got)
	}
	if got := m.Counter("attempts.launched").Value(); got != 1 {
		t.Fatalf("attempts.launched = %d, want 1", got)
	}
}

func TestBrokerCoalescesConcurrentIdenticalSubmissions(t *testing.T) {
	// Acceptance: N identical concurrent submissions against a single
	// 1-slot provider execute at most the QoC-required attempt count (1 for
	// best effort) while every consumer is served.
	const n = 6
	b, addr := memoStack(t, Options{}, 1, 1)

	// ~5M VM ops keeps the first submission in flight while the rest arrive;
	// a submission arriving after completion becomes a cache hit instead of
	// a waiter, so the attempt bound holds regardless of timing.
	spec := compileJob(t, `func main(iters int) int {
		var acc int = 0;
		for (var i int = 0; i < iters; i = i + 1) { acc = acc + i % 7; }
		return acc;
	}`, []int64{1_000_000})

	consumers := make([]*consumer.Client, n)
	jobs := make([]*consumer.Job, n)
	for i := range consumers {
		c, err := consumer.Connect(addr, fmt.Sprintf("c%d", i))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		consumers[i] = c
		job, err := c.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job
	}
	var want int64
	for i, job := range jobs {
		res, err := job.Collect(ctxT(t))
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || !res[0].OK() {
			t.Fatalf("consumer %d: %+v", i, res)
		}
		if i == 0 {
			want = res[0].Return.I
			if res[0].Attempts != 1 {
				t.Fatalf("leader reported %d attempts, want 1", res[0].Attempts)
			}
		} else if res[0].Return.I != want {
			t.Fatalf("consumer %d got %d, leader got %d", i, res[0].Return.I, want)
		} else if res[0].Attempts != 0 {
			// Waiters and cache hits alike consumed no attempts of their own.
			t.Fatalf("coalesced consumer %d reported %d attempts, want 0", i, res[0].Attempts)
		}
	}
	m := b.Metrics()
	if got := m.Counter("attempts.launched").Value(); got != 1 {
		t.Fatalf("attempts.launched = %d, want 1 (coalesced)", got)
	}
	if hits, co := m.Counter("memo.hits").Value(), m.Counter("memo.coalesced").Value(); hits+co != n-1 {
		t.Fatalf("hits(%d) + coalesced(%d) = %d, want %d", hits, co, hits+co, n-1)
	}
}

func TestBrokerCoalescingRespectsVotingReplicas(t *testing.T) {
	// Coalesced voting submissions still execute the full voting fan-out —
	// never fewer attempts than the QoC demands, never one fan-out per
	// submission.
	const n = 4
	b, addr := memoStack(t, Options{}, 3, 1)
	spec := compileJob(t, `func main(iters int) int {
		var acc int = 0;
		for (var i int = 0; i < iters; i = i + 1) { acc = acc + i % 7; }
		return acc;
	}`, []int64{1_000_000})
	spec.QoC = core.QoC{Mode: core.QoCVoting, Replicas: 3}

	jobs := make([]*consumer.Job, n)
	for i := range jobs {
		c, err := consumer.Connect(addr, fmt.Sprintf("v%d", i))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		job, err := c.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job
	}
	for i, job := range jobs {
		res, err := job.Collect(ctxT(t))
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || !res[0].OK() {
			t.Fatalf("consumer %d: %+v", i, res)
		}
	}
	if got := b.Metrics().Counter("attempts.launched").Value(); got != 2 {
		t.Fatalf("attempts.launched = %d, want 2 (one voting fan-out: the majority of 3)", got)
	}
}

// TestDeadlinedLeaderReschedulesCoalescedWaiter pins the deadline path's
// reschedule: FlightKey omits the deadline, so a waiter with no deadline can
// coalesce behind a leader whose deadline fires. Dissolving that flight
// re-queues the waiter, and the deadline handler itself must run the
// scheduler — the provider here never answers assignments, so no other
// broker event would ever place the waiter.
func TestDeadlinedLeaderReschedulesCoalescedWaiter(t *testing.T) {
	b := New(Options{})
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })

	// Silent two-slot provider on raw wire: accepts assignments, never
	// reports results.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	pc := wire.NewConn(nc)
	if err := pc.Send(&wire.Hello{
		Version: wire.ProtocolVersion, Role: wire.RoleProvider, Name: "silent",
		Caps: wire.CapFlagsTail,
	}); err != nil {
		t.Fatal(err)
	}
	if msg, err := pc.Recv(); err != nil {
		t.Fatal(err)
	} else if _, ok := msg.(*wire.Welcome); !ok {
		t.Fatalf("handshake reply = %T", msg)
	}
	if err := pc.Send(&wire.Register{Slots: 2, Speed: 100}); err != nil {
		t.Fatal(err)
	}
	assigns := make(chan *wire.Assign, 4)
	go func() {
		for {
			msg, err := pc.Recv()
			if err != nil {
				return
			}
			if a, ok := msg.(*wire.Assign); ok {
				assigns <- a
			}
		}
	}()

	spec := compileJob(t, squareSrc, []int64{31})

	leaderSpec := spec
	leaderSpec.QoC = core.QoC{Deadline: 150 * time.Millisecond}
	c1, err := consumer.Connect(addr, "leader")
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	leaderJob, err := c1.Submit(leaderSpec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-assigns:
	case <-time.After(5 * time.Second):
		t.Fatal("leader was never assigned")
	}

	// Identical content, no deadline: coalesces behind the in-flight leader.
	c2, err := consumer.Connect(addr, "waiter")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Submit(spec); err != nil {
		t.Fatal(err)
	}

	res, err := leaderJob.Collect(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].OK() || res[0].Fault == "" {
		t.Fatalf("leader deadline result = %+v", res[0])
	}
	// The dissolved flight's waiter must reach the provider's free slot
	// without any further broker traffic.
	select {
	case <-assigns:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter stalled: never rescheduled after the leader's deadline")
	}
}

func TestBrokerMemoHonorsNoCache(t *testing.T) {
	b, addr := memoStack(t, Options{}, 1, 2)
	c, err := consumer.Connect(addr, "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	spec := compileJob(t, squareSrc, []int64{7})
	spec.QoC = core.QoC{NoCache: true}
	for i := 0; i < 2; i++ {
		job, err := c.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := job.Collect(ctxT(t))
		if err != nil {
			t.Fatal(err)
		}
		if !res[0].OK() || res[0].Return.I != 49 || res[0].Attempts != 1 {
			t.Fatalf("run %d: %+v", i, res[0])
		}
	}
	m := b.Metrics()
	if got := m.Counter("attempts.launched").Value(); got != 2 {
		t.Fatalf("attempts.launched = %d, want 2 under NoCache", got)
	}
	if got := m.Counter("memo.hits").Value(); got != 0 {
		t.Fatalf("memo.hits = %d under NoCache", got)
	}
}

func TestBrokerMemoDisabledByOptions(t *testing.T) {
	b, addr := memoStack(t, Options{MemoEntries: -1, MemoBytes: -1, MemoTTL: -1}, 1, 2)
	c, err := consumer.Connect(addr, "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 2; i++ {
		job, err := c.Submit(compileJob(t, squareSrc, []int64{6}))
		if err != nil {
			t.Fatal(err)
		}
		res, err := job.Collect(ctxT(t))
		if err != nil {
			t.Fatal(err)
		}
		if !res[0].OK() || res[0].Attempts != 1 {
			t.Fatalf("run %d: %+v", i, res[0])
		}
	}
	if got := b.Metrics().Counter("attempts.launched").Value(); got != 2 {
		t.Fatalf("attempts.launched = %d, want 2 with memo disabled", got)
	}
}

// TestBrokerMemoOffExecutesEveryRepeat pins that the broker memo is the only
// result cache: with it disabled, identical content submitted again and again
// runs on a provider every time. Each reported execution time must cover a
// real run of the loop, which an answer replayed from a cache never does.
func TestBrokerMemoOffExecutesEveryRepeat(t *testing.T) {
	const n = 5
	b := New(Options{MemoEntries: -1})
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	preg := &metrics.Registry{}
	p, err := provider.Connect(provider.Options{BrokerAddr: addr, Speed: 100, Metrics: preg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	c, err := consumer.Connect(addr, "repeat")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// 200k iterations are milliseconds of TVM work on any host.
	spec := compileJob(t, `func main(iters int) int {
		var acc int = 0;
		for (var i int = 0; i < iters; i = i + 1) { acc = acc + i % 7; }
		return acc;
	}`, []int64{200_000})
	var first consumer.TaskResult
	for i := 0; i < n; i++ {
		job, err := c.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := job.Collect(ctxT(t))
		if err != nil {
			t.Fatal(err)
		}
		r := res[0]
		if !r.OK() || r.Attempts != 1 {
			t.Fatalf("run %d: %+v", i, r)
		}
		if i == 0 {
			first = r
		} else if !r.Return.Equal(first.Return) {
			t.Fatalf("run %d returned %s, first run %s", i, r.Return, first.Return)
		}
		if r.Exec < 200*time.Microsecond {
			t.Fatalf("run %d reported %v of execution: answered without running", i, r.Exec)
		}
	}
	// The provider counts an execution just after queueing its result.
	executed := preg.Counter("provider.attempts.executed")
	for start := time.Now(); executed.Value() != n; time.Sleep(time.Millisecond) {
		if time.Since(start) > 5*time.Second {
			t.Fatalf("provider.attempts.executed = %d, want %d", executed.Value(), n)
		}
	}
}

// TestBrokerMemoDifferential runs a program suite — values, faults, emitted
// streams, voting QoC, repeated content — against a memo-on and a memo-off
// stack and asserts every result is bit-identical. (The faulty-provider
// differential lives in internal/sim, which can inject corrupted results.)
func TestBrokerMemoDifferential(t *testing.T) {
	type tcase struct {
		name string
		spec core.JobSpec
	}
	suite := func(t *testing.T) []tcase {
		montecarlo := `
func main(samples int) float {
	var hits int = 0;
	for (var i int = 0; i < samples; i = i + 1) {
		var x float = rand();
		var y float = rand();
		if (x*x + y*y <= 1.0) { hits = hits + 1; }
	}
	return 4.0 * float(hits) / float(samples);
}`
		emitSrc := `func main(n int) void { for (var i int = 0; i < n; i = i + 1) { emit(i * 10); } }`
		voting := compileJob(t, squareSrc, []int64{5}, []int64{5}, []int64{5})
		voting.QoC = core.QoC{Mode: core.QoCVoting, Replicas: 3}
		return []tcase{
			{"square-repeats", compileJob(t, squareSrc, []int64{3}, []int64{4}, []int64{3}, []int64{4}, []int64{3})},
			{"faults-repeat", compileJob(t, `func main(n int) int { return 1 / n; }`, []int64{0}, []int64{2}, []int64{0})},
			{"seeded-rand", compileJob(t, montecarlo, []int64{2000}, []int64{2000})},
			{"emitted", compileJob(t, emitSrc, []int64{4}, []int64{4})},
			{"voting", voting},
		}
	}

	collect := func(t *testing.T, addr string, cases []tcase) [][]consumer.TaskResult {
		c, err := consumer.Connect(addr, "diff")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		out := make([][]consumer.TaskResult, len(cases))
		for i, tc := range cases {
			job, err := c.Submit(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			res, err := job.Collect(ctxT(t))
			if err != nil {
				t.Fatal(err)
			}
			out[i] = res
		}
		return out
	}

	_, onAddr := memoStack(t, Options{}, 3, 1)
	_, offAddr := memoStack(t, Options{MemoEntries: -1, MemoBytes: -1, MemoTTL: -1}, 3, 1)
	cases := suite(t)
	on := collect(t, onAddr, cases)
	off := collect(t, offAddr, cases)

	for ci, tc := range cases {
		for ri := range on[ci] {
			a, b := on[ci][ri], off[ci][ri]
			if a.Status != b.Status || a.Fault != b.Fault {
				t.Fatalf("%s[%d]: status/fault diverged: %+v vs %+v", tc.name, ri, a, b)
			}
			if !a.Return.Equal(b.Return) {
				t.Fatalf("%s[%d]: return diverged: %s vs %s", tc.name, ri, a.Return, b.Return)
			}
			if len(a.Emitted) != len(b.Emitted) {
				t.Fatalf("%s[%d]: emitted length diverged: %d vs %d", tc.name, ri, len(a.Emitted), len(b.Emitted))
			}
			for ei := range a.Emitted {
				if !a.Emitted[ei].Equal(b.Emitted[ei]) {
					t.Fatalf("%s[%d]: emitted[%d] diverged", tc.name, ri, ei)
				}
			}
		}
	}
}
