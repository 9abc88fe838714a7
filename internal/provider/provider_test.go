package provider

import (
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/stdtasks"
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

// recvType reads messages until one of the wanted type arrives, skipping
// heartbeats.
func recvType[T wire.Message](fb *fakeBroker) T {
	fb.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			fb.t.Fatal("timed out waiting for message")
		}
		msg, err := fb.conn.Recv()
		if err != nil {
			fb.t.Fatalf("recv: %v", err)
		}
		if m, ok := msg.(T); ok {
			return m
		}
		if _, ok := msg.(*wire.Heartbeat); ok {
			continue
		}
	}
}

// recvResult returns the next attempt result, whether it arrived alone or
// folded into an AttemptResultBatch, skipping heartbeats.
func (fb *fakeBroker) recvResult() wire.AttemptResult {
	fb.t.Helper()
	fb.conn.ReadTimeout = 10 * time.Second
	for len(fb.results) == 0 {
		msg, err := fb.conn.Recv()
		if err != nil {
			fb.t.Fatalf("recv: %v", err)
		}
		switch m := msg.(type) {
		case *wire.AttemptResult:
			fb.results = append(fb.results, *m)
		case *wire.AttemptResultBatch:
			fb.results = append(fb.results, m.Results...)
		}
	}
	r := fb.results[0]
	fb.results = fb.results[1:]
	return r
}

// longSpin is an attempt that runs until it is cancelled.
func longSpin(attempt core.AttemptID, includeProgram bool) *wire.Assign {
	a := assignSpin(attempt, 1<<40, includeProgram)
	a.Fuel = 1 << 50
	return a
}

func assignSpin(attempt core.AttemptID, iters int64, includeProgram bool) *wire.Assign {
	data, err := stdtasks.Bytecode("spin")
	if err != nil {
		panic(err)
	}
	a := &wire.Assign{
		Attempt: attempt, Tasklet: core.TaskletID(attempt), Program: core.HashProgram(data),
		Params: []tvm.Value{tvm.Int(iters)}, Fuel: 10_000_000, Seed: 1,
	}
	if includeProgram {
		a.ProgramData = data
	}
	return a
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
	if reg.Slots != 3 || reg.Speed != 55 || reg.Class != core.ClassLaptop {
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
	if err := fb.conn.Send(assignSpin(1, 1000, true)); err != nil {
		t.Fatal(err)
	}
	res := recvType[*wire.AttemptResult](fb)
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

func TestProviderCachesProgram(t *testing.T) {
	fb := newFakeBroker(t)
	startProvider(t, fb, Options{Slots: 1})
	if err := fb.conn.Send(assignSpin(1, 10, true)); err != nil {
		t.Fatal(err)
	}
	recvType[*wire.AttemptResult](fb)
	// Second assign ships no bytecode; the provider must use its cache.
	if err := fb.conn.Send(assignSpin(2, 10, false)); err != nil {
		t.Fatal(err)
	}
	res := recvType[*wire.AttemptResult](fb)
	if res.Status != core.StatusOK {
		t.Fatalf("cached-program result = %+v", res)
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
		if err := fb.conn.Send(assignSpin(i, 200_000, i == 1)); err != nil {
			t.Fatal(err)
		}
		res := recvType[*wire.AttemptResult](fb)
		if res.Status != core.StatusOK || res.Attempt != i {
			t.Fatalf("attempt %d: %+v", i, res)
		}
		if first == nil {
			first = res
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

func TestProviderRejectsUnknownProgram(t *testing.T) {
	fb := newFakeBroker(t)
	startProvider(t, fb, Options{Slots: 1})
	if err := fb.conn.Send(assignSpin(1, 10, false)); err != nil {
		t.Fatal(err)
	}
	res := recvType[*wire.AttemptResult](fb)
	if res.Status != core.StatusRejected {
		t.Fatalf("status = %s, want rejected", res.Status)
	}
}

func TestProviderRejectsHashMismatch(t *testing.T) {
	fb := newFakeBroker(t)
	startProvider(t, fb, Options{Slots: 1})
	a := assignSpin(1, 10, true)
	a.Program = 12345 // wrong hash for the attached bytecode
	if err := fb.conn.Send(a); err != nil {
		t.Fatal(err)
	}
	res := recvType[*wire.AttemptResult](fb)
	if res.Status != core.StatusRejected {
		t.Fatalf("status = %s, want rejected on hash mismatch", res.Status)
	}
}

// TestProviderRejectsOverCommit: a provider admits 2×Slots attempts — Slots
// running, one queued behind each — runs at most Slots at once, and rejects
// the next. Two endless attempts hold both workers; two short ones queue
// behind them; the fifth is rejected. The short ones must not finish before
// a worker frees: they run only after the first endless attempt is cancelled,
// one after the other on the worker it leaves.
func TestProviderRejectsOverCommit(t *testing.T) {
	fb := newFakeBroker(t)
	reg := &metrics.Registry{}
	startProvider(t, fb, Options{Slots: 2, Metrics: reg})
	for i := core.AttemptID(1); i <= 2; i++ {
		if err := fb.conn.Send(longSpin(i, i == 1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := core.AttemptID(3); i <= 5; i++ {
		if err := fb.conn.Send(assignSpin(i, 10, false)); err != nil {
			t.Fatal(err)
		}
	}
	if res := fb.recvResult(); res.Attempt != 5 || res.Status != core.StatusRejected {
		t.Fatalf("first result = %+v, want attempt 5 rejected", res)
	}
	if err := fb.conn.Send(&wire.CancelAttempt{Attempt: 1}); err != nil {
		t.Fatal(err)
	}
	if res := fb.recvResult(); res.Attempt != 1 || res.FaultCode != tvm.FaultCancelled {
		t.Fatalf("result = %+v, want attempt 1 cancelled before any queued attempt ran", res)
	}
	for i := core.AttemptID(3); i <= 4; i++ {
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
	if err := fb.conn.Send(longSpin(1, true)); err != nil {
		t.Fatal(err)
	}
	if err := fb.conn.Send(assignSpin(2, 200_000, false)); err != nil {
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
	if err := fb.conn.Send(assignSpin(3, 10, false)); err != nil {
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
	if err := fb.conn.Send(assignSpin(1, 10, true)); err != nil {
		t.Fatal(err)
	}
	if res := recvType[*wire.AttemptResult](fb); res.Status != core.StatusOK {
		t.Fatalf("warm-up result = %+v", res)
	}
	long := assignSpin(2, 1<<40, false)
	long.Fuel = 1 << 50
	if err := fb.conn.Send(long); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := fb.conn.Send(&wire.CancelAttempt{Attempt: 2}); err != nil {
		t.Fatal(err)
	}
	res := recvType[*wire.AttemptResult](fb)
	if res.Attempt != 2 || res.Status != core.StatusFault || res.FaultCode != tvm.FaultCancelled {
		t.Fatalf("cancelled result = %+v", res)
	}
	// The cancellation belonged to attempt 2 alone: the slot runs on.
	if err := fb.conn.Send(assignSpin(3, 11, false)); err != nil {
		t.Fatal(err)
	}
	if res := recvType[*wire.AttemptResult](fb); res.Attempt != 3 || res.Status != core.StatusOK {
		t.Fatalf("result after a cancelled attempt = %+v", res)
	}
}

func TestProviderReportsProgramFault(t *testing.T) {
	fb := newFakeBroker(t)
	startProvider(t, fb, Options{Slots: 1})
	tiny := assignSpin(1, 1_000_000, true)
	tiny.Fuel = 100 // guaranteed out-of-fuel
	if err := fb.conn.Send(tiny); err != nil {
		t.Fatal(err)
	}
	res := recvType[*wire.AttemptResult](fb)
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
			if err := fb.conn.Send(assignSpin(core.AttemptID(i), int64(9+i), i == 1)); err != nil {
				t.Fatal(err)
			}
			if i < 3 {
				recvType[*wire.AttemptResult](fb)
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

	if err := fb.conn.Send(assignSpin(1, 1000, true)); err != nil {
		t.Fatal(err)
	}
	if res := recvType[*wire.AttemptResult](fb); res.Status != core.StatusOK {
		t.Fatalf("first execution: %+v", res)
	}
	// The identical repeat is the second execution: it crosses the threshold
	// and stops the provider.
	if err := fb.conn.Send(assignSpin(2, 1000, false)); err != nil {
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

// assignNoop is a noop: nothing to execute, so the slot is the only cost.
func assignNoop(attempt core.AttemptID, includeProgram bool) *wire.Assign {
	data, err := stdtasks.Bytecode("noop")
	if err != nil {
		panic(err)
	}
	a := &wire.Assign{
		Attempt: attempt, Tasklet: core.TaskletID(attempt), Program: core.HashProgram(data),
		Fuel: 1000, Seed: 1,
	}
	if includeProgram {
		a.ProgramData = data
	}
	return a
}

// TestProviderFreesSlotBeforeReporting is the slot-release reject race: a
// broker that re-assigns a slot the instant it reads the slot's result must
// never be told "no free slot".
func TestProviderFreesSlotBeforeReporting(t *testing.T) {
	fb := newFakeBroker(t)
	startProvider(t, fb, Options{Slots: 1})
	const n = 10_000
	if err := fb.conn.Send(assignNoop(1, true)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		res := recvType[*wire.AttemptResult](fb)
		if res.Attempt != core.AttemptID(i) || res.Status != core.StatusOK {
			t.Fatalf("result %d of %d back-to-back noops = %+v", i, n, res)
		}
		if i < n {
			if err := fb.conn.Send(assignNoop(core.AttemptID(i+1), false)); err != nil {
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
	p.work <- attempt{m: assignNoop(1, false), prog: stdtasks.MustProgram("noop"), cancel: newSlotToken()}
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
	p.work <- attempt{m: assignNoop(1, false), prog: stdtasks.MustProgram("noop"), cancel: tok}
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
	long := assignSpin(1, 1<<40, true)
	long.Fuel = 1 << 50
	if err := fb.conn.Send(long); err != nil {
		t.Fatal(err)
	}
	if err := fb.conn.Send(assignNoop(2, true)); err != nil {
		t.Fatal(err)
	}
	if res := recvType[*wire.AttemptResult](fb); res.Attempt != 2 || res.Status != core.StatusOK {
		t.Fatalf("first result = %+v, want the noop's", res)
	}
	if err := fb.conn.Send(&wire.CancelAttempt{Attempt: 1}); err != nil {
		t.Fatal(err)
	}
	if res := recvType[*wire.AttemptResult](fb); res.Attempt != 1 || res.FaultCode != tvm.FaultCancelled {
		t.Fatalf("long sibling = %+v, want it cancelled only now", res)
	}
}

// TestProviderCloseCancelsRunningVMs fills every slot with a run that would
// take hours and requires Close to come back promptly.
func TestProviderCloseCancelsRunningVMs(t *testing.T) {
	fb := newFakeBroker(t)
	p := startProvider(t, fb, Options{Slots: 2})
	for i := 1; i <= 2; i++ {
		long := assignSpin(core.AttemptID(i), 1<<40, i == 1)
		long.Fuel = 1 << 50
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
	hb := recvType[*wire.Heartbeat](fb)
	if hb.FreeSlots != 2 {
		t.Fatalf("free slots = %d, want 2 while idle", hb.FreeSlots)
	}
	awaitFree := func(want int) {
		t.Helper()
		for start := time.Now(); ; {
			hb := recvType[*wire.Heartbeat](fb)
			if hb.FreeSlots == want {
				return
			}
			if hb.FreeSlots < 0 || time.Since(start) > 5*time.Second {
				t.Fatalf("free slots = %d, want %d", hb.FreeSlots, want)
			}
		}
	}
	if err := fb.conn.Send(longSpin(1, true)); err != nil {
		t.Fatal(err)
	}
	awaitFree(1)
	for i := core.AttemptID(2); i <= 3; i++ {
		if err := fb.conn.Send(longSpin(i, false)); err != nil {
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
