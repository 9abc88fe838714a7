package provider

import (
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/stdtasks"
	"repro/internal/tasklang"
	"repro/internal/tvm"
	"repro/internal/wire"
)

// fakeBroker is a minimal broker-side endpoint for driving a provider
// directly: it accepts one provider connection, completes the handshake,
// and exposes send/recv helpers.
type fakeBroker struct {
	t    *testing.T
	ln   net.Listener
	conn *wire.Conn

	welcomed chan *wire.Register
	// results holds the rest of a received AttemptResultBatch for recvResult.
	results []wire.AttemptResult
}

func newFakeBroker(t *testing.T) *fakeBroker {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fb := &fakeBroker{t: t, ln: ln, welcomed: make(chan *wire.Register, 1)}
	t.Cleanup(func() {
		ln.Close()
		if fb.conn != nil {
			fb.conn.Close()
		}
	})
	go fb.accept()
	return fb
}

func (fb *fakeBroker) addr() string { return fb.ln.Addr().String() }

func (fb *fakeBroker) accept() {
	nc, err := fb.ln.Accept()
	if err != nil {
		return
	}
	conn := wire.NewConn(nc)
	msg, err := conn.Recv()
	if err != nil {
		return
	}
	if _, ok := msg.(*wire.Hello); !ok {
		fb.t.Errorf("first message = %T, want Hello", msg)
		return
	}
	if err := conn.Send(&wire.Welcome{ID: 7}); err != nil {
		return
	}
	msg, err = conn.Recv()
	if err != nil {
		return
	}
	reg, ok := msg.(*wire.Register)
	if !ok {
		fb.t.Errorf("second message = %T, want Register", msg)
		return
	}
	fb.conn = conn
	fb.welcomed <- reg
}

// waitRegistered blocks until the provider finished the handshake.
func (fb *fakeBroker) waitRegistered() *wire.Register {
	select {
	case reg := <-fb.welcomed:
		return reg
	case <-time.After(5 * time.Second):
		fb.t.Fatal("provider never registered")
		return nil
	}
}

// recvHeartbeat reads messages until a heartbeat arrives.
func (fb *fakeBroker) recvHeartbeat() *wire.Heartbeat {
	fb.t.Helper()
	fb.conn.ReadTimeout = 10 * time.Second
	for {
		msg, err := fb.conn.Recv()
		if err != nil {
			fb.t.Fatalf("recv: %v", err)
		}
		if hb, ok := msg.(*wire.Heartbeat); ok {
			return hb
		}
	}
}

// recvResult returns the next attempt result, taking the entries of each
// AttemptResultBatch in order, skipping heartbeats.
func (fb *fakeBroker) recvResult() wire.AttemptResult {
	fb.t.Helper()
	fb.conn.ReadTimeout = 10 * time.Second
	for len(fb.results) == 0 {
		msg, err := fb.conn.Recv()
		if err != nil {
			fb.t.Fatalf("recv: %v", err)
		}
		if m, ok := msg.(*wire.AttemptResultBatch); ok {
			fb.results = append(fb.results, m.Results...)
		}
	}
	r := fb.results[0]
	fb.results = fb.results[1:]
	return r
}

// longSpin is an attempt that runs until it is cancelled.
func longSpin(attempt core.AttemptID) *wire.AssignBatch {
	ab := assignSpin(attempt, 1<<40)
	ab.Assigns[0].Fuel = 1 << 50
	return ab
}

// assignSpin is an assign frame for one spin(iters) attempt. Like every
// broker frame, it carries its program's bytes.
func assignSpin(attempt core.AttemptID, iters int64) *wire.AssignBatch {
	return assignOne("spin", 1, wire.Assign{
		Attempt: attempt, Tasklet: core.TaskletID(attempt),
		Params: []tvm.Value{tvm.Int(iters)}, Fuel: 10_000_000, Seed: 1,
	})
}

// assignOne is an assign frame holding the one attempt a, which runs the
// stdtask name under program ID id.
func assignOne(name string, id core.ProgramID, a wire.Assign) *wire.AssignBatch {
	data, err := stdtasks.Bytecode(name)
	if err != nil {
		panic(err)
	}
	a.Program = id
	return &wire.AssignBatch{Programs: []wire.ProgramBlob{{ID: id, Data: data}}, Assigns: []wire.Assign{a}}
}

func startProvider(t *testing.T, fb *fakeBroker, opts Options) *Provider {
	t.Helper()
	opts.BrokerAddr = fb.addr()
	if opts.Speed == 0 {
		opts.Speed = 100
	}
	p, err := Connect(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	fb.waitRegistered()
	return p
}

func TestProviderRegistersAdvertisedCapacity(t *testing.T) {
	fb := newFakeBroker(t)
	opts := Options{BrokerAddr: fb.addr(), Slots: 3, Speed: 55, Class: core.ClassLaptop}
	p, err := Connect(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	reg := fb.waitRegistered()
	if reg.Slots != 3 || reg.Speed != 55 || reg.Class != core.ClassLaptop || reg.Queue != 3*wire.QueuePerSlot {
		t.Fatalf("register = %+v", reg)
	}
	if p.ID() != 7 {
		t.Fatalf("id = %d, want broker-assigned 7", p.ID())
	}
}

func TestProviderThrottleScalesAdvertisedSpeed(t *testing.T) {
	fb := newFakeBroker(t)
	p, err := Connect(Options{BrokerAddr: fb.addr(), Speed: 100, Throttle: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	reg := fb.waitRegistered()
	if reg.Speed != 25 {
		t.Fatalf("advertised speed = %v, want 25", reg.Speed)
	}
}

func TestProviderExecutesAndReports(t *testing.T) {
	fb := newFakeBroker(t)
	startProvider(t, fb, Options{Slots: 1})
	if err := fb.conn.Send(assignSpin(1, 1000)); err != nil {
		t.Fatal(err)
	}
	res := fb.recvResult()
	if res.Status != core.StatusOK || res.Attempt != 1 {
		t.Fatalf("result = %+v", res)
	}
	if res.Return.I != stdtasks.RefSpin(1000) {
		t.Fatalf("return = %s", res.Return)
	}
	if res.FuelUsed == 0 || res.ExecNanos <= 0 {
		t.Fatalf("accounting missing: %+v", res)
	}
}

// TestProviderCachesProgram: a second frame carrying the same bytes runs
// the program decoded for the first, and the cache holds it once.
func TestProviderCachesProgram(t *testing.T) {
	fb := newFakeBroker(t)
	p := startProvider(t, fb, Options{Slots: 1})
	ab := assignSpin(1, 10)
	var first *tvm.Program
	for i := core.AttemptID(1); i <= 2; i++ {
		ab.Assigns[0].Attempt, ab.Assigns[0].Tasklet = i, core.TaskletID(i)
		if err := fb.conn.Send(ab); err != nil {
			t.Fatal(err)
		}
		if res := fb.recvResult(); res.Status != core.StatusOK {
			t.Fatalf("attempt %d: %+v", i, res)
		}
		p.mu.Lock()
		prog, ok := p.cache.get(ab.Programs[0].Data)
		n := p.cache.len()
		p.mu.Unlock()
		if first == nil {
			first = prog
		}
		if !ok || prog != first || n != 1 {
			t.Fatalf("after attempt %d: cached %v (first %p, now %p), %d entries; want the first decode, once",
				i, ok, first, prog, n)
		}
	}
}

// TestProviderRunsEveryRepeat: a provider keeps no results, so identical
// content assigned twice executes twice, with identical reports. Each
// report's execution time must cover a real run of the 200k-iteration spin
// (milliseconds on any host), which a replayed answer never does.
func TestProviderRunsEveryRepeat(t *testing.T) {
	fb := newFakeBroker(t)
	reg := &metrics.Registry{}
	startProvider(t, fb, Options{Slots: 1, Metrics: reg})
	var first *wire.AttemptResult
	for i := core.AttemptID(1); i <= 2; i++ {
		if err := fb.conn.Send(assignSpin(i, 200_000)); err != nil {
			t.Fatal(err)
		}
		res := fb.recvResult()
		if res.Status != core.StatusOK || res.Attempt != i {
			t.Fatalf("attempt %d: %+v", i, res)
		}
		if first == nil {
			first = &res
		} else if !res.Return.Equal(first.Return) || res.FuelUsed != first.FuelUsed {
			t.Fatalf("repeat = %+v, first = %+v", res, first)
		}
		if took := time.Duration(res.ExecNanos); took < 200*time.Microsecond {
			t.Fatalf("attempt %d reported %v of execution: answered without running", i, took)
		}
	}
	// Counted right after the result is queued.
	executed := reg.Counter("provider.attempts.executed")
	for start := time.Now(); executed.Value() != 2; time.Sleep(time.Millisecond) {
		if time.Since(start) > 5*time.Second {
			t.Fatalf("provider.attempts.executed = %d, want 2", executed.Value())
		}
	}
}

// TestProviderRejectsUnknownProgram: an attempt whose program is not in its
// frame's table is rejected, even for a program the provider has run: the ID
// names nothing on its own.
func TestProviderRejectsUnknownProgram(t *testing.T) {
	fb := newFakeBroker(t)
	startProvider(t, fb, Options{Slots: 1})
	for i := core.AttemptID(1); i <= 2; i++ {
		ab := assignSpin(i, 10)
		want := core.StatusOK
		if i == 2 {
			ab.Programs, want = nil, core.StatusRejected
		}
		if err := fb.conn.Send(ab); err != nil {
			t.Fatal(err)
		}
		if res := fb.recvResult(); res.Status != want {
			t.Fatalf("attempt %d: status = %s, want %s", i, res.Status, want)
		}
	}
}

// TestProviderRunsEachFramesOwnProgram: two assign frames name the same
// program ID with different bytes. The provider runs each frame's own
// program, whatever it ran under that ID before.
func TestProviderRunsEachFramesOwnProgram(t *testing.T) {
	fb := newFakeBroker(t)
	startProvider(t, fb, Options{Slots: 1})
	progs := make([][]byte, 2)
	for k := range progs {
		prog, err := tasklang.Compile(fmt.Sprintf("func main(n int) int { return n + %d; }", 10*(k+1)))
		if err != nil {
			t.Fatal(err)
		}
		if progs[k], err = prog.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	}
	// The shared ID is the first program's FNV-1a hash, so a provider that
	// trusted the hash would run the first program for every frame.
	id := core.HashProgram(progs[0])
	entry := func(attempt core.AttemptID) wire.Assign {
		return wire.Assign{
			Attempt: attempt, Tasklet: core.TaskletID(attempt), Program: id,
			Params: []tvm.Value{tvm.Int(1)}, Fuel: 1_000_000, Seed: 1,
		}
	}
	check := func(attempt core.AttemptID, k int) {
		t.Helper()
		res := fb.recvResult()
		if want := int64(1 + 10*(k+1)); res.Attempt != attempt || res.Status != core.StatusOK || res.Return.I != want {
			t.Fatalf("attempt %d: %s (%s) returned %s, want ok returning %d",
				res.Attempt, res.Status, res.FaultMsg, res.Return, want)
		}
	}
	for k, data := range progs {
		ab := &wire.AssignBatch{
			Programs: []wire.ProgramBlob{{ID: id, Data: data}},
			Assigns:  []wire.Assign{entry(core.AttemptID(k + 1))},
		}
		if err := fb.conn.Send(ab); err != nil {
			t.Fatal(err)
		}
		check(ab.Assigns[0].Attempt, k)
	}
}

// TestProviderRejectsOverCommit: a provider admits exactly
// Slots×(1+wire.QueuePerSlot) attempts — Slots running, QueuePerSlot queued
// behind each — runs at most Slots at once, and rejects the next. Two
// endless attempts hold both workers; 2×QueuePerSlot short ones queue
// behind them; the one after is rejected. The short ones must not finish before a worker
// frees: they run only after the first endless attempt is cancelled, one
// after the other in arrival order on the worker it leaves.
func TestProviderRejectsOverCommit(t *testing.T) {
	const slots = 2
	fb := newFakeBroker(t)
	reg := &metrics.Registry{}
	startProvider(t, fb, Options{Slots: slots, Metrics: reg})
	for i := core.AttemptID(1); i <= slots; i++ {
		if err := fb.conn.Send(longSpin(i)); err != nil {
			t.Fatal(err)
		}
	}
	last := core.AttemptID(slots * (1 + wire.QueuePerSlot)) // the last admitted
	for i := core.AttemptID(slots + 1); i <= last+1; i++ {
		if err := fb.conn.Send(assignSpin(i, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if res := fb.recvResult(); res.Attempt != last+1 || res.Status != core.StatusRejected {
		t.Fatalf("first result = %+v, want attempt %d rejected", res, last+1)
	}
	if err := fb.conn.Send(&wire.CancelAttempt{Attempt: 1}); err != nil {
		t.Fatal(err)
	}
	if res := fb.recvResult(); res.Attempt != 1 || res.FaultCode != tvm.FaultCancelled {
		t.Fatalf("result = %+v, want attempt 1 cancelled before any queued attempt ran", res)
	}
	for i := core.AttemptID(slots + 1); i <= last; i++ {
		if res := fb.recvResult(); res.Attempt != i || res.Status != core.StatusOK {
			t.Fatalf("result = %+v, want queued attempt %d done", res, i)
		}
	}
	if err := fb.conn.Send(&wire.CancelAttempt{Attempt: 2}); err != nil {
		t.Fatal(err)
	}
	if res := fb.recvResult(); res.Attempt != 2 || res.FaultCode != tvm.FaultCancelled {
		t.Fatalf("result = %+v, want attempt 2 cancelled", res)
	}
	if got := reg.Counter("provider.attempts.rejected").Value(); got != 1 {
		t.Fatalf("provider.attempts.rejected = %d, want 1", got)
	}
}

// TestProviderCancelsQueuedAttemptWithoutRunning: an attempt cancelled while
// it waits behind a busy worker reports FaultCancelled when the worker
// reaches it, without running — no execution time, and no step toward
// FailAfter, which only the next real execution trips.
func TestProviderCancelsQueuedAttemptWithoutRunning(t *testing.T) {
	fb := newFakeBroker(t)
	reg := &metrics.Registry{}
	p := startProvider(t, fb, Options{Slots: 1, FailAfter: 2, Metrics: reg})
	if err := fb.conn.Send(longSpin(1)); err != nil {
		t.Fatal(err)
	}
	if err := fb.conn.Send(assignSpin(2, 200_000)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let attempt 1 start
	for _, a := range []core.AttemptID{2, 1} {
		if err := fb.conn.Send(&wire.CancelAttempt{Attempt: a}); err != nil {
			t.Fatal(err)
		}
	}
	if res := fb.recvResult(); res.Attempt != 1 || res.FaultCode != tvm.FaultCancelled || res.ExecNanos <= 0 {
		t.Fatalf("result = %+v, want the running attempt 1 cancelled", res)
	}
	res := fb.recvResult()
	if res.Attempt != 2 || res.Status != core.StatusFault || res.FaultCode != tvm.FaultCancelled {
		t.Fatalf("result = %+v, want the queued attempt 2 cancelled", res)
	}
	if res.ExecNanos != 0 || res.FuelUsed != 0 {
		t.Fatalf("queued attempt reports %dns and %d fuel: it ran", res.ExecNanos, res.FuelUsed)
	}
	for start := time.Now(); p.Executed() != 1; time.Sleep(time.Millisecond) {
		if time.Since(start) > 5*time.Second {
			t.Fatalf("executed = %d, want 1", p.Executed())
		}
	}
	// Attempt 1 was the first execution; attempt 3 is the second and trips
	// FailAfter. Had the cancelled attempt 2 counted, the provider would
	// already be gone.
	if err := fb.conn.Send(assignSpin(3, 10)); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { p.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("provider did not fail after its second execution")
	}
	if p.Executed() != 2 {
		t.Fatalf("executed = %d, want 2", p.Executed())
	}
	if got := reg.Counter("provider.attempts.executed").Value(); got != 2 {
		t.Fatalf("provider.attempts.executed = %d, want 2", got)
	}
}

func TestProviderCancelAbortsRunningAttempt(t *testing.T) {
	fb := newFakeBroker(t)
	startProvider(t, fb, Options{Slots: 1})
	// A short attempt first: the cancelled one then runs on the slot worker's
	// re-armed VM, which must poll the new attempt's cancel flag.
	if err := fb.conn.Send(assignSpin(1, 10)); err != nil {
		t.Fatal(err)
	}
	if res := fb.recvResult(); res.Status != core.StatusOK {
		t.Fatalf("warm-up result = %+v", res)
	}
	long := assignSpin(2, 1<<40)
	long.Assigns[0].Fuel = 1 << 50
	if err := fb.conn.Send(long); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := fb.conn.Send(&wire.CancelAttempt{Attempt: 2}); err != nil {
		t.Fatal(err)
	}
	res := fb.recvResult()
	if res.Attempt != 2 || res.Status != core.StatusFault || res.FaultCode != tvm.FaultCancelled {
		t.Fatalf("cancelled result = %+v", res)
	}
	// The cancellation belonged to attempt 2 alone: the slot runs on.
	if err := fb.conn.Send(assignSpin(3, 11)); err != nil {
		t.Fatal(err)
	}
	if res := fb.recvResult(); res.Attempt != 3 || res.Status != core.StatusOK {
		t.Fatalf("result after a cancelled attempt = %+v", res)
	}
}

func TestProviderReportsProgramFault(t *testing.T) {
	fb := newFakeBroker(t)
	startProvider(t, fb, Options{Slots: 1})
	tiny := assignSpin(1, 1_000_000)
	tiny.Assigns[0].Fuel = 100 // guaranteed out-of-fuel
	if err := fb.conn.Send(tiny); err != nil {
		t.Fatal(err)
	}
	res := fb.recvResult()
	if res.Status != core.StatusFault || res.FaultCode != tvm.FaultOutOfFuel {
		t.Fatalf("fault result = %+v", res)
	}
}

func TestProviderFailAfterDisconnects(t *testing.T) {
	for _, slots := range []int{1, 2} {
		fb := newFakeBroker(t)
		p := startProvider(t, fb, Options{Slots: slots, FailAfter: 3})
		// Every result before the last must arrive; the last races the
		// injected crash (a crash is allowed to eat its own last result —
		// the broker treats it as lost either way), so only send it and wait
		// for the disconnect.
		for i := 1; i <= 3; i++ {
			if err := fb.conn.Send(assignSpin(core.AttemptID(i), int64(9+i))); err != nil {
				t.Fatal(err)
			}
			if i < 3 {
				fb.recvResult()
			}
		}
		done := make(chan struct{})
		go func() { p.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d slots: provider did not fail after 3 tasklets", slots)
		}
		if p.Executed() != 3 {
			t.Fatalf("%d slots: executed = %d, want exactly 3", slots, p.Executed())
		}
	}
}

// TestProviderRepeatsTriggerFailAfter pins the fault-injection semantics: a
// provider keeps no results, so a repeat of identical content is a real
// execution and advances the churn threshold like any other.
func TestProviderRepeatsTriggerFailAfter(t *testing.T) {
	fb := newFakeBroker(t)
	p := startProvider(t, fb, Options{Slots: 1, FailAfter: 2})

	if err := fb.conn.Send(assignSpin(1, 1000)); err != nil {
		t.Fatal(err)
	}
	if res := fb.recvResult(); res.Status != core.StatusOK {
		t.Fatalf("first execution: %+v", res)
	}
	// The identical repeat is the second execution: it crosses the threshold
	// and stops the provider.
	if err := fb.conn.Send(assignSpin(2, 1000)); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { p.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("provider did not stop after FailAfter identical executions")
	}
	if p.Executed() != 2 {
		t.Fatalf("executed = %d, want exactly 2", p.Executed())
	}
}

// assignNoop is an assign frame for one noop: nothing to execute, so the
// slot is the only cost.
func assignNoop(attempt core.AttemptID) *wire.AssignBatch {
	return assignOne("noop", 2, wire.Assign{Attempt: attempt, Tasklet: core.TaskletID(attempt), Fuel: 1000, Seed: 1})
}

// TestProviderFreesSlotBeforeReporting is the slot-release reject race: a
// broker that re-assigns a slot the instant it reads the slot's result must
// never be told "no free slot".
func TestProviderFreesSlotBeforeReporting(t *testing.T) {
	fb := newFakeBroker(t)
	startProvider(t, fb, Options{Slots: 1})
	const n = 10_000
	if err := fb.conn.Send(assignNoop(1)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		res := fb.recvResult()
		if res.Attempt != core.AttemptID(i) || res.Status != core.StatusOK {
			t.Fatalf("result %d of %d back-to-back noops = %+v", i, n, res)
		}
		if i < n {
			if err := fb.conn.Send(assignNoop(core.AttemptID(i + 1))); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSlotWorkerFreesSlotBeforeQueueingResult pins the ordering the test above
// relies on, without a race to win: with the outgoing queue unread the result
// cannot be queued, and the slot must be free all the same.
func TestSlotWorkerFreesSlotBeforeQueueingResult(t *testing.T) {
	p := &Provider{
		opts:      Options{Slots: 1, Throttle: 1},
		free:      make(chan *slotToken, 1),
		work:      make(chan attempt, 1),
		out:       make(chan wire.Message), // unbuffered and unread
		cancels:   map[core.AttemptID]*slotToken{},
		done:      make(chan struct{}),
		mExecuted: (&metrics.Registry{}).Counter("provider.attempts.executed"),
	}
	go p.slotWorker()
	defer close(p.done)
	p.work <- attempt{m: &assignNoop(1).Assigns[0], prog: stdtasks.MustProgram("noop"), cancel: newSlotToken()}
	select {
	case <-p.free:
	case <-time.After(5 * time.Second):
		t.Fatal("slot still held while its result waits to be queued")
	}
	if res := (<-p.out).(*wire.AttemptResult); res.Attempt != 1 || res.Status != core.StatusOK {
		t.Fatalf("result = %+v", res)
	}
}

// TestCancelEndsThrottleStretch: a throttled provider emulates a slow device
// by sleeping after the run, and a slow device would see the cancel flag
// mid-run. The stretch here would last minutes (any run time × 1e9); a cancel
// must end it at once — slot freed, FaultCancelled reported as a VM-level
// cancel would — and count as one execution, FailAfter's tally included.
func TestCancelEndsThrottleStretch(t *testing.T) {
	reg := &metrics.Registry{}
	p := &Provider{
		opts:      Options{Slots: 1, Throttle: 1e-9},
		free:      make(chan *slotToken, 1),
		work:      make(chan attempt, 1),
		out:       make(chan wire.Message, 1),
		cancels:   map[core.AttemptID]*slotToken{},
		done:      make(chan struct{}),
		mExecuted: reg.Counter("provider.attempts.executed"),
	}
	go p.slotWorker()
	defer close(p.done)
	tok := newSlotToken()
	p.work <- attempt{m: &assignNoop(1).Assigns[0], prog: stdtasks.MustProgram("noop"), cancel: tok}
	time.Sleep(20 * time.Millisecond) // let the run finish and the stretch begin
	cancelled := time.Now()
	tok.cancel()
	select {
	case <-p.free:
	case <-time.After(5 * time.Second):
		t.Fatal("slot still held by a cancelled attempt's throttle stretch")
	}
	res := (<-p.out).(*wire.AttemptResult)
	if res.Attempt != 1 || res.Status != core.StatusFault || res.FaultCode != tvm.FaultCancelled {
		t.Fatalf("result = %+v, want FaultCancelled", res)
	}
	if took := time.Since(cancelled); took > time.Second {
		t.Fatalf("cancel took %v to free the slot and report", took)
	}
	if tok.flag.Load() || len(tok.wake) != 0 {
		t.Fatal("the slot's token was released still armed: it would cancel the next attempt")
	}
	for p.Executed() != 1 { // counted right after the result is queued
		time.Sleep(time.Millisecond)
	}
	if got := reg.Counter("provider.attempts.executed").Value(); got != 1 || p.Executed() != 1 {
		t.Fatalf("executed = %d / %d, want 1: a cancelled attempt is still an execution", got, p.Executed())
	}
}

// TestProviderShortResultPassesLongSibling checks that a near-instant result
// is flushed while the other slot is still busy: the writer's one-turn wait
// for sibling results never becomes a wait for a running sibling.
func TestProviderShortResultPassesLongSibling(t *testing.T) {
	fb := newFakeBroker(t)
	startProvider(t, fb, Options{Slots: 2})
	long := assignSpin(1, 1<<40)
	long.Assigns[0].Fuel = 1 << 50
	if err := fb.conn.Send(long); err != nil {
		t.Fatal(err)
	}
	if err := fb.conn.Send(assignNoop(2)); err != nil {
		t.Fatal(err)
	}
	if res := fb.recvResult(); res.Attempt != 2 || res.Status != core.StatusOK {
		t.Fatalf("first result = %+v, want the noop's", res)
	}
	if err := fb.conn.Send(&wire.CancelAttempt{Attempt: 1}); err != nil {
		t.Fatal(err)
	}
	if res := fb.recvResult(); res.Attempt != 1 || res.FaultCode != tvm.FaultCancelled {
		t.Fatalf("long sibling = %+v, want it cancelled only now", res)
	}
}

// TestProviderCloseCancelsRunningVMs fills every slot with a run that would
// take hours and requires Close to come back promptly.
func TestProviderCloseCancelsRunningVMs(t *testing.T) {
	fb := newFakeBroker(t)
	p := startProvider(t, fb, Options{Slots: 2})
	for i := 1; i <= 2; i++ {
		long := assignSpin(core.AttemptID(i), 1<<40)
		long.Assigns[0].Fuel = 1 << 50
		if err := fb.conn.Send(long); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond) // let both start
	closed := make(chan struct{})
	go func() { p.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return while two VMs were spinning")
	}
}

// TestProviderHeartbeats: a heartbeat's FreeSlots counts idle workers. The
// queued places behind busy workers are not free slots, so the count never
// goes below zero however many attempts wait.
func TestProviderHeartbeats(t *testing.T) {
	fb := newFakeBroker(t)
	startProvider(t, fb, Options{Slots: 2, HeartbeatInterval: 20 * time.Millisecond})
	hb := fb.recvHeartbeat()
	if hb.FreeSlots != 2 {
		t.Fatalf("free slots = %d, want 2 while idle", hb.FreeSlots)
	}
	awaitFree := func(want int) {
		t.Helper()
		for start := time.Now(); ; {
			hb := fb.recvHeartbeat()
			if hb.FreeSlots == want {
				return
			}
			if hb.FreeSlots < 0 || time.Since(start) > 5*time.Second {
				t.Fatalf("free slots = %d, want %d", hb.FreeSlots, want)
			}
		}
	}
	if err := fb.conn.Send(longSpin(1)); err != nil {
		t.Fatal(err)
	}
	awaitFree(1)
	for i := core.AttemptID(2); i <= 3; i++ {
		if err := fb.conn.Send(longSpin(i)); err != nil {
			t.Fatal(err)
		}
	}
	awaitFree(0) // two running, one queued
}

func TestProviderValidatesOptions(t *testing.T) {
	if _, err := Connect(Options{}); err == nil {
		t.Fatal("missing broker address accepted")
	}
	if _, err := Connect(Options{BrokerAddr: "127.0.0.1:1"}); err == nil {
		t.Fatal("unreachable broker accepted")
	}
}

func TestProviderCloseIdempotent(t *testing.T) {
	fb := newFakeBroker(t)
	p := startProvider(t, fb, Options{Slots: 1})
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}
