// Package provider implements the Tasklet provider runtime: the daemon that
// donates a device's idle cycles to the middleware. A provider connects to
// the broker, measures and advertises its execution speed, then executes
// assigned tasklets in sandboxed TVMs and reports results. Execution is done
// by Slots persistent slot workers fed from one bounded queue; each worker
// keeps its VM and re-arms it for the next attempt of the same program, so
// the steady state starts no goroutine and allocates no VM per attempt.
// Every assigned attempt runs: a provider keeps decoded programs but no
// results, because result memoization belongs to the broker alone.
//
// A provider admits Slots×(1+wire.QueuePerSlot) attempts: QueuePerSlot
// queued behind each running slot, so a worker that finishes a near-instant
// attempt starts the next at once instead of idling for a broker round
// trip. It states its queued places in Register.Queue; the broker fills
// them only as deep as about wire.TinyExecNanos of this provider's recent
// attempts per slot, so only tiny attempts queue at all.
// A queued attempt cancelled before it starts reports FaultCancelled
// without running.
//
// Heterogeneity hooks: a Throttle factor slows execution to emulate weaker
// device classes on a fast test machine, and FailAfter makes the provider
// vanish mid-workload for churn experiments.
package provider

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/speedbench"
	"repro/internal/tvm"
	"repro/internal/wire"
)

// Options configures a provider.
type Options struct {
	// BrokerAddr is the broker's TCP address. Required.
	BrokerAddr string
	// Slots is the number of concurrent tasklet executions. Zero selects 1.
	Slots int
	// Class is the advertised device class (cosmetic in live mode; the
	// measured speed is what schedulers use).
	Class core.DeviceClass
	// Throttle in (0, 1] scales the advertised speed and stretches each
	// execution by sleeping (1/Throttle - 1) times the compute time,
	// emulating a slower device; a cancellation ends the sleep as it would
	// end the run. Zero selects 1 (no throttle).
	//
	// The emulation distorts in two measured ways (a per-attempt trace of
	// the benchmark's hetero_vote workload, 2-vCPU host, GOMAXPROCS 2):
	// the compute time is vm.Run's wall time, so host preemption during
	// the run is stretched too, by up to 49× at Throttle 0.02; and a sub-ms
	// sleep overshoots by a median of 180–530 µs per attempt, because the
	// runtime's netpoller waits in whole milliseconds. Together 0.2–0.5 %
	// of attempts carry more than 5 ms of excess (mean 12–30 ms), and those
	// set the slowest jobs' tails. The behaviour is kept as is: removing
	// the distortion would move hetero_vote for a reason that is no gain of
	// the system under test.
	Throttle float64
	// Speed overrides the measured benchmark score when positive (tests
	// and deterministic experiments set it; real deployments measure).
	Speed float64
	// HeartbeatInterval defaults to 1s.
	HeartbeatInterval time.Duration
	// Name identifies the provider in broker logs.
	Name string
	// Logger receives operational logs; nil discards them.
	Logger *log.Logger
	// FailAfter, when positive, makes the provider abruptly close its
	// connection after executing that many tasklets (churn injection).
	FailAfter int
	// Metrics receives the "provider.attempts.*" and "provider.batches.*"
	// counters when non-nil.
	Metrics *metrics.Registry
}

// defaultProgramCacheSize bounds the decoded-program cache. It only saves
// decodes: every assign frame carries its programs' bytes, so an eviction
// costs a decode, never an attempt. 64 decoded programs comfortably cover
// the working set of every workload in this repo while keeping a small
// provider's memory bounded.
const defaultProgramCacheSize = 64

// Provider is a running provider instance.
type Provider struct {
	opts Options
	logf func(string, ...any)

	conn *wire.Conn
	nc   net.Conn
	id   core.ProviderID

	// free holds one token per unclaimed place: Slots×(1+wire.QueuePerSlot)
	// places, Slots of them running and the rest queued. The token is the
	// attempt's cancel state, so claiming a place and arming its
	// cancellation allocate nothing.
	free     chan *slotToken
	work     chan attempt // claimed attempts awaiting a slot worker
	out      chan wire.Message
	executed atomic.Int64 // attempts finished; drives FailAfter
	closed   atomic.Bool

	mu      sync.Mutex
	cancels map[core.AttemptID]*slotToken
	cache   *programLRU

	wg   sync.WaitGroup
	done chan struct{}

	// Hot-path metric handles, resolved once at Connect so the per-attempt
	// path never takes the registry lock.
	mExecuted *metrics.Counter
	mRejected *metrics.Counter
	// mBatches is provider.batches.received: every assign frame, since
	// each is an assign_batch.
	mBatches *metrics.Counter
}

// Connect dials the broker, performs the handshake, measures (or adopts)
// the speed score, registers, and starts the execution loops.
func Connect(opts Options) (*Provider, error) {
	if opts.BrokerAddr == "" {
		return nil, errors.New("provider: broker address required")
	}
	if opts.Slots <= 0 {
		opts.Slots = 1
	}
	if opts.Throttle <= 0 || opts.Throttle > 1 {
		opts.Throttle = 1
	}
	if opts.HeartbeatInterval <= 0 {
		opts.HeartbeatInterval = time.Second
	}
	logf := func(string, ...any) {}
	if opts.Logger != nil {
		logf = opts.Logger.Printf
	}

	speed := opts.Speed
	if speed <= 0 {
		score, err := speedbench.Measure(speedbench.Options{MinDuration: 30 * time.Millisecond})
		if err != nil {
			return nil, fmt.Errorf("provider: speed benchmark: %w", err)
		}
		speed = score.MegaOpsPerSec
	}
	speed *= opts.Throttle

	nc, err := net.Dial("tcp", opts.BrokerAddr)
	if err != nil {
		return nil, fmt.Errorf("provider: dial broker: %w", err)
	}
	conn := wire.NewConn(nc)
	if err := conn.Send(&wire.Hello{Version: wire.ProtocolVersion, Role: wire.RoleProvider, Name: opts.Name}); err != nil {
		nc.Close()
		return nil, err
	}
	msg, err := conn.Recv()
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("provider: handshake: %w", err)
	}
	welcome, ok := msg.(*wire.Welcome)
	if !ok {
		nc.Close()
		return nil, fmt.Errorf("provider: handshake: unexpected %s", msg.Type())
	}

	queued := wire.QueuePerSlot * opts.Slots
	places := opts.Slots + queued
	p := &Provider{
		opts:    opts,
		logf:    logf,
		conn:    conn,
		nc:      nc,
		id:      core.ProviderID(welcome.ID),
		free:    make(chan *slotToken, places),
		work:    make(chan attempt, places), // one per claimed token: admit never blocks
		out:     make(chan wire.Message, 1024),
		cancels: map[core.AttemptID]*slotToken{},
		cache:   newProgramLRU(defaultProgramCacheSize),
		done:    make(chan struct{}),
	}
	reg := opts.Metrics
	if reg == nil {
		reg = &metrics.Registry{} // private sink; keeps handles non-nil
	}
	p.mExecuted = reg.Counter("provider.attempts.executed")
	p.mRejected = reg.Counter("provider.attempts.rejected")
	p.mBatches = reg.Counter("provider.batches.received")

	if err := conn.Send(&wire.Register{Slots: opts.Slots, Class: opts.Class, Speed: speed, Queue: queued}); err != nil {
		nc.Close()
		return nil, err
	}
	logf("provider %d: registered %d slots at %.1f Mops/s", p.id, opts.Slots, speed)

	p.wg.Add(3 + opts.Slots)
	for i := 0; i < places; i++ {
		p.free <- newSlotToken()
	}
	for i := 0; i < opts.Slots; i++ {
		go func() { defer p.wg.Done(); p.slotWorker() }()
	}
	go func() { defer p.wg.Done(); p.writerLoop() }()
	go func() { defer p.wg.Done(); p.heartbeatLoop() }()
	go func() { defer p.wg.Done(); p.readLoop() }()
	return p, nil
}

// ID returns the broker-assigned provider ID.
func (p *Provider) ID() core.ProviderID { return p.id }

// Executed reports how many tasklets this provider has finished.
func (p *Provider) Executed() int64 { return p.executed.Load() }

// Close disconnects and waits for in-flight executions to unwind.
func (p *Provider) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	close(p.done)
	// Cancel running VMs so slots drain quickly.
	p.mu.Lock()
	for _, c := range p.cancels {
		c.cancel()
	}
	p.mu.Unlock()
	p.nc.Close()
	p.wg.Wait()
	return nil
}

// Wait blocks until the provider's connection ends (broker gone or Close).
func (p *Provider) Wait() { p.wg.Wait() }

// writerLoop sends each flush window's run of results as one
// AttemptResultBatch frame.
func (p *Provider) writerLoop() {
	wire.WriterLoop(p.conn, p.out, wire.WriterOpts{Done: p.done, Closer: p.nc})
}

func (p *Provider) heartbeatLoop() {
	tick := time.NewTicker(p.opts.HeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			// Idle workers: the queued places are not free slots.
			p.send(&wire.Heartbeat{FreeSlots: max(0, len(p.free)-wire.QueuePerSlot*p.opts.Slots)})
		case <-p.done:
			return
		}
	}
}

// send enqueues an outgoing message unless the provider is shutting down.
func (p *Provider) send(m wire.Message) {
	select {
	case p.out <- m:
	case <-p.done:
	}
}

func (p *Provider) readLoop() {
	defer p.nc.Close()
	for {
		msg, err := p.conn.Recv()
		if err != nil {
			if !p.closed.Load() {
				p.logf("provider %d: connection lost: %v", p.id, err)
			}
			return
		}
		switch m := msg.(type) {
		case *wire.AssignBatch:
			p.onAssignBatch(m)
		case *wire.CancelAttempt:
			p.mu.Lock()
			if c := p.cancels[m.Attempt]; c != nil {
				c.cancel()
			}
			p.mu.Unlock()
		case *wire.ErrorMsg:
			p.logf("provider %d: broker error %d: %s", p.id, m.Code, m.Msg)
		case *wire.Bye:
			return
		default:
			p.logf("provider %d: unexpected %s", p.id, msg.Type())
		}
	}
}

// onAssignBatch admits the attempts of one AssignBatch frame: every program
// in its table is resolved under ONE mutex acquisition, then each entry goes
// through admission.
func (p *Provider) onAssignBatch(m *wire.AssignBatch) {
	p.mBatches.Inc()
	progs := p.resolveBatch(m)
	for i := range m.Assigns {
		a := &m.Assigns[i]
		prog := progs[a.Program]
		if prog == nil {
			p.reject(a, fmt.Sprintf("unknown program %d in batch", a.Program))
			continue
		}
		p.admit(a, prog)
	}
}

// resolveBatch maps every program in the batch's own table, holding the
// mutex once for the whole frame. Entries resolve from that table alone
// (through the decode cache), so a table larger than the cache cannot evict
// its own entries, and an entry whose program is not in the table, or whose
// bytes fail to decode, maps to nil and is rejected.
func (p *Provider) resolveBatch(m *wire.AssignBatch) map[core.ProgramID]*tvm.Program {
	p.mu.Lock()
	defer p.mu.Unlock()
	progs := make(map[core.ProgramID]*tvm.Program, len(m.Programs))
	for i := range m.Programs {
		blob := &m.Programs[i]
		prog, err := p.loadLocked(blob.Data)
		if err != nil {
			p.logf("provider %d: batch program %d: %v", p.id, blob.ID, err)
		}
		progs[blob.ID] = prog
	}
	return progs
}

// reject reports an attempt the provider will not run.
func (p *Provider) reject(m *wire.Assign, why string) {
	p.logf("provider %d: attempt %d rejected: %s", p.id, m.Attempt, why)
	p.mRejected.Inc()
	p.send(&wire.AttemptResult{
		Attempt: m.Attempt, Tasklet: m.Tasklet,
		Status: core.StatusRejected, FaultMsg: why,
	})
}

// slotToken is one admitted attempt's cancellation state: the flag a running
// VM polls, and a wake-up for the throttle stretch, which sleeps instead of
// polling.
type slotToken struct {
	flag atomic.Bool
	// wake holds at most one pending wake-up (hence the buffer of one), so a
	// cancel that lands before the stretch begins is not lost.
	wake chan struct{}
}

func newSlotToken() *slotToken { return &slotToken{wake: make(chan struct{}, 1)} }

// cancel aborts the attempt holding the token, running or queued. Callers
// hold p.mu and found the token in p.cancels, so it never hits a token that
// was already released.
func (s *slotToken) cancel() {
	s.flag.Store(true)
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// reset re-arms the token for its next attempt.
func (s *slotToken) reset() {
	s.flag.Store(false)
	select {
	case <-s.wake:
	default:
	}
}

// attempt is one admitted assignment on its way to a slot worker.
type attempt struct {
	m      *wire.Assign
	prog   *tvm.Program
	cancel *slotToken // the claimed token; returned to p.free when done
}

// admit takes one resolved assignment: token claim, then hand-off to the
// slot workers, where it runs at once on an idle worker or queues behind a
// busy one. The broker never places more than Slots×(1+wire.QueuePerSlot)
// attempts here, so an empty free list indicates state drift; such attempts
// are rejected rather than queued deeper, to keep accounting exact.
func (p *Provider) admit(m *wire.Assign, prog *tvm.Program) {
	var cancel *slotToken
	select {
	case cancel = <-p.free:
	default:
		p.reject(m, "no free slot")
		return
	}
	p.mu.Lock()
	p.cancels[m.Attempt] = cancel
	if p.closed.Load() {
		cancel.cancel() // admitted behind Close's sweep of running VMs
	}
	p.mu.Unlock()
	p.work <- attempt{m: m, prog: prog, cancel: cancel}
}

// slotWorker is one of the Slots persistent execution loops. It keeps the VM
// of the last program it ran and re-arms it when the next attempt runs the
// same program. The token is released before the result is queued, so the
// broker can never learn of a free place the provider has not freed yet.
func (p *Provider) slotWorker() {
	var vm *tvm.VM
	var loaded *tvm.Program
	// stretch times the throttle emulation's sleeps: one timer per slot, not
	// one per attempt.
	stretch := time.NewTimer(0)
	<-stretch.C
	defer stretch.Stop()
	for {
		var a attempt
		select {
		case a = <-p.work:
		case <-p.done:
			return
		}
		// An attempt cancelled while it queued reports FaultCancelled without
		// running; it is no execution, so FailAfter's tally does not move.
		ran := !a.cancel.flag.Load()
		var out *wire.AttemptResult
		if ran {
			cfg := tvm.DefaultConfig()
			if a.m.Fuel > 0 {
				cfg.Fuel = a.m.Fuel
			}
			cfg.Seed = a.m.Seed
			cfg.Cancel = &a.cancel.flag
			if loaded == a.prog {
				vm.Reset(cfg)
			} else {
				vm, loaded = tvm.New(a.prog, cfg), a.prog
			}
			out = p.execute(a, vm, stretch)
		} else {
			out = &wire.AttemptResult{
				Attempt: a.m.Attempt, Tasklet: a.m.Tasklet, Status: core.StatusFault,
				FaultCode: errCancelled.Code, FaultMsg: errCancelled.Msg,
			}
		}

		p.mu.Lock()
		delete(p.cancels, a.m.Attempt)
		p.mu.Unlock()
		a.cancel.reset()
		p.free <- a.cancel
		p.send(out)
		if ran {
			p.noteFinished()
		}
	}
}

// errCancelled is the fault of an attempt the host cancelled outside the VM:
// during the throttle stretch, or before it started. It reads like the VM's
// own cancel fault.
var errCancelled = &tvm.Fault{Code: tvm.FaultCancelled, Msg: "execution cancelled by host"}

// loadLocked returns the program data encodes from the decode cache or, on
// a miss, decodes it and caches the result. Callers hold p.mu.
func (p *Provider) loadLocked(data []byte) (*tvm.Program, error) {
	if prog, ok := p.cache.get(data); ok {
		return prog, nil
	}
	var prog tvm.Program
	if err := prog.UnmarshalBinary(data); err != nil {
		return nil, fmt.Errorf("bad bytecode: %w", err)
	}
	// Run the load-time optimization pass once at cache-insert time, while
	// the program is still private to this goroutine; every subsequent
	// execution shares the fused streams.
	prog.Optimize()
	p.cache.put(data, &prog)
	return &prog, nil
}

// execute runs one attempt on a VM armed for it and builds the report. The
// timed window is Run alone: Throttle multiplies it, so VM set-up stays out.
// stretch is the calling slot worker's idle timer.
func (p *Provider) execute(a attempt, vm *tvm.VM, stretch *time.Timer) *wire.AttemptResult {
	m := a.m
	start := time.Now()
	res, err := vm.Run(m.Params...)
	elapsed := time.Since(start)

	// Throttle emulation: stretch wall time as a slower device would. The
	// device would still be computing, so a cancel ends the stretch the way
	// it ends a run: the slot frees at once and the attempt reports
	// FaultCancelled.
	if p.opts.Throttle < 1 {
		extra := time.Duration(float64(elapsed) * (1/p.opts.Throttle - 1))
		stretch.Reset(extra)
		select {
		case <-stretch.C:
			elapsed += extra
		case <-a.cancel.wake:
			elapsed = time.Since(start)
			if err == nil {
				err = errCancelled
			}
		case <-p.done:
		}
		if !stretch.Stop() {
			select { // fired but unread: leave the channel empty for the next Reset
			case <-stretch.C:
			default:
			}
		}
	}

	out := &wire.AttemptResult{Attempt: m.Attempt, Tasklet: m.Tasklet, ExecNanos: int64(elapsed)}
	if err != nil {
		f, ok := tvm.AsFault(err)
		if !ok {
			f = &tvm.Fault{Code: tvm.FaultBadProgram, Msg: err.Error()}
		}
		out.Status = core.StatusFault
		out.FaultCode = f.Code
		out.FaultMsg = f.Msg
	} else {
		out.Status = core.StatusOK
		out.Return = res.Return
		out.Emitted = res.Emitted
		out.FuelUsed = res.FuelUsed
	}
	return out
}

// noteFinished counts a completed execution and fires the FailAfter churn
// injection when armed.
func (p *Provider) noteFinished() {
	p.mExecuted.Inc()
	n := p.executed.Add(1)
	if p.opts.FailAfter > 0 && int(n) >= p.opts.FailAfter && !p.closed.Swap(true) {
		p.logf("provider %d: injected failure after %d tasklets", p.id, n)
		close(p.done)
		p.nc.Close()
	}
}
