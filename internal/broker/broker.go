// Package broker implements the Tasklet broker: the mediator between
// resource consumers and providers, and the live driver of the scheduler
// core (internal/dispatch) that the simulator drives too. The core holds
// the transport-free half: lifecycle partitions, placement, provider
// accounting and provider loss. The broker keeps the transport: listener
// and connections, the provider registry with heartbeat-based failure
// detection, framing, job and consumer accounting, and the scheduler
// goroutine that runs the core's placement passes.
//
// Concurrency model: one reader and one writer goroutine per connection
// (the writer fed by a bounded queue, so a slow peer cannot stall the
// broker, and draining it in batches, so one flush covers a burst of
// frames), plus one scheduler goroutine. A provider's reader hands each
// burst of results to the core, which applies it stripe by stripe on that
// goroutine; deadlines and retry backoffs are runtime timers. The core asks
// for placement through schedule, which sets a dirty flag and wakes the
// scheduler goroutine, so a burst of events costs one pass. Heartbeats
// bypass every lock. The stripe count is min(GOMAXPROCS, maxPartitions);
// the differential tests pin that it changes where lifecycle state lives,
// never what a consumer sees.
//
// Lock order: b.mu (listener, provider registry) → the core's locks. jobMu
// and progMu are taken with no core lock held; the core calls deliver,
// which takes jobMu, only with its own locks released.
package broker

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/lifecycle"
	"repro/internal/memo"
	"repro/internal/metrics"
	"repro/internal/scheduler"
	"repro/internal/tvm"
	"repro/internal/wire"
)

// Options configures a Broker. The zero value is usable: work-stealing
// policy, 5-second heartbeat timeout, silent logger.
type Options struct {
	// Policy is the placement policy; the zero value is work_steal.
	Policy scheduler.Policy
	// HeartbeatTimeout is how long a provider may stay silent before it is
	// declared dead. Zero selects 5s.
	HeartbeatTimeout time.Duration
	// Logger receives operational logs; nil discards them.
	Logger *log.Logger
	// Metrics receives broker counters and histograms; nil allocates a
	// private registry (retrievable via Broker.Metrics).
	Metrics *metrics.Registry
	// MaxPendingPerConsumer bounds queued tasklets per consumer; zero
	// selects 1<<20.
	MaxPendingPerConsumer int

	// MemoEntries, MemoBytes, and MemoTTL configure the result memo, the
	// system's only result cache (content-addressed cache of QoC-finalized
	// results, plus coalescing of identical in-flight tasklets). Zero
	// selects the memo package defaults (memo.DefaultMaxEntries etc.); any
	// negative value disables memoization and coalescing entirely.
	MemoEntries int
	MemoBytes   int
	MemoTTL     time.Duration

	// MaxAttempts caps the total attempts one tasklet may consume across
	// lost-attempt re-issues; zero (or negative) means unlimited — bounded
	// only by the QoC retry budget. A tasklet whose attempt cap is exhausted
	// with nothing left in flight finalizes as StatusLost.
	MaxAttempts int
	// RetryBackoff delays the n-th re-issue of a lost tasklet by
	// RetryBackoff << min(n-1, 6); zero re-issues immediately.
	RetryBackoff time.Duration

	// partitions fixes the stripe count for tests in this package; zero
	// selects min(GOMAXPROCS, maxPartitions).
	partitions int
}

// sendQueueDepth bounds per-connection outgoing messages. A peer that
// cannot drain this many messages is broken or hostile and is dropped.
const sendQueueDepth = 4096

// maxStagedEvents bounds the submit events a consumer's staging scratch keeps
// between jobs (an Event is about 300 bytes): jobs of a few thousand tasklets
// reuse it, larger ones stage in slices freed after their feed.
const maxStagedEvents = 4096

// maxProgramMemo bounds the program table. Past it, a new program evicts an
// arbitrary entry, so memory stays constant however many distinct programs
// a long-lived broker sees.
const maxProgramMemo = 1024

// maxPartitions caps the stripe count on hosts with more cores: every
// placement pass and result burst walks all the stripes.
const maxPartitions = 64

// Broker is the central coordinator. Create with New, start with Serve.
//
// Locking: b.mu guards the listener and the provider registry; jobMu guards
// consumers/jobs and their accounting (the delivery path); progMu guards
// the program table; the core guards scheduling and lifecycle state
// with its own locks. No goroutine ever holds b.mu and jobMu at once.
type Broker struct {
	opts Options
	reg  *metrics.Registry
	logf func(format string, args ...any)

	mu        sync.Mutex
	ln        net.Listener
	providers map[core.ProviderID]*providerState

	closed atomic.Bool // flips once in Close; read without b.mu

	jobMu        sync.Mutex
	consumers    map[core.ConsumerID]*consumerState
	jobs         map[core.JobID]*jobState
	nextConsumer core.ConsumerID

	// programs is the one place that names programs. Keyed by the SHA-256
	// of the bytecode, an entry holds the program's ID (the next value of
	// nextProgram, never reused) and its entry arity, so a known program is
	// not decoded again. At most maxProgramMemo entries; an evicted program
	// that comes back gets a new ID.
	progMu      sync.RWMutex
	programs    map[[32]byte]programEntry
	nextProgram core.ProgramID

	core *dispatch.Core
	// memoOn gates content-key computation on submission.
	memoOn bool

	// schedDirty marks that scheduling state changed since the last
	// placement pass; schedWake pokes the scheduler goroutine. Events
	// between two passes collapse into one flag, so a burst costs one pass.
	schedDirty atomic.Bool
	schedWake  chan struct{}

	nextProvider core.ProviderID // under b.mu
	nextTasklet  atomic.Uint64

	stop chan struct{}
	wg   sync.WaitGroup

	// Hot-path metric handles, resolved once at construction so the
	// per-result path never takes the registry lock.
	mSendDropped   *metrics.Counter
	mCompleted     *metrics.Counter
	mFailed        *metrics.Counter
	mProvidersLost *metrics.Counter
	mSubmitted     *metrics.Counter
	mLatencyMS     *metrics.Histogram
}

// providerState is one provider session: the core's record of it and the
// connection the core's outbox writes to.
type providerState struct {
	b     *Broker
	prov  *dispatch.Provider
	out   chan wire.Message
	nc    net.Conn
	label string // "provider N", precomputed for hot-path logs

	// lastBeat is the UnixNano timestamp of the latest heartbeat, updated
	// without the broker mutex so heartbeats never queue behind scheduling.
	lastBeat atomic.Int64

	// dropWarned limits the send-queue-overflow log to once per connection.
	dropWarned atomic.Bool
}

// Assign sends the attempts a placement pass staged for the provider: one
// assign_batch frame per provider per pass, however many it holds.
func (p *providerState) Assign(ab *wire.AssignBatch) {
	p.b.enqueue(p.out, ab, p.nc, &p.dropWarned, p.label)
}

// Cancel sends a best-effort cancellation of one attempt.
func (p *providerState) Cancel(aid core.AttemptID) {
	p.b.enqueue(p.out, &wire.CancelAttempt{Attempt: aid}, p.nc, &p.dropWarned, p.label)
}

// programEntry is the program table's record of one program.
type programEntry struct {
	id    core.ProgramID
	arity int
}

type consumerState struct {
	id      core.ConsumerID
	out     chan wire.Message
	nc      net.Conn
	label   string // "consumer N", precomputed for hot-path logs
	jobs    map[core.JobID]bool
	pending int // queued tasklets across this consumer's jobs
	gone    bool
	// submitted counts the SubmitJob frames read so far, refused ones
	// included; the n-th is job id<<32 | n. Only the consumer's reader
	// touches it.
	submitted uint32
	// staged is acceptJob's per-partition submit-event scratch, reused by
	// every job and cleared once fed, so it holds no tasklet's Params. It is
	// dropped after a job that grew it past maxStagedEvents in all, so one
	// large job does not pin its size for the session. Only the consumer's
	// reader touches it.
	staged [][]lifecycle.Event

	dropWarned atomic.Bool
}

type jobState struct {
	id        core.JobID
	consumer  core.ConsumerID
	tasklets  []core.TaskletID
	total     int
	completed int
	failed    int
	cancelled bool
}

// liveDriver is the broker as the core sees it: wall-clock timers, the
// scheduler goroutine's wake-up, and final delivery to consumers.
type liveDriver struct{ b *Broker }

func (d liveDriver) AfterFunc(dur time.Duration, f func()) dispatch.Timer {
	return time.AfterFunc(dur, f)
}
func (d liveDriver) Schedule()                    { d.b.schedule() }
func (d liveDriver) Deliver(ef *lifecycle.Effect) { d.b.deliver(ef) }

// New creates a broker with the given options.
func New(opts Options) *Broker {
	if opts.HeartbeatTimeout <= 0 {
		opts.HeartbeatTimeout = 5 * time.Second
	}
	if opts.MaxPendingPerConsumer <= 0 {
		opts.MaxPendingPerConsumer = 1 << 20
	}
	if opts.partitions == 0 {
		opts.partitions = min(runtime.GOMAXPROCS(0), maxPartitions)
	}
	reg := opts.Metrics
	if reg == nil {
		reg = &metrics.Registry{}
	}
	logf := func(string, ...any) {}
	if opts.Logger != nil {
		logf = opts.Logger.Printf
	}
	b := &Broker{
		opts:      opts,
		reg:       reg,
		logf:      logf,
		providers: map[core.ProviderID]*providerState{},
		consumers: map[core.ConsumerID]*consumerState{},
		jobs:      map[core.JobID]*jobState{},
		programs:  map[[32]byte]programEntry{},
		schedWake: make(chan struct{}, 1),
		stop:      make(chan struct{}),
	}
	b.mSendDropped = reg.Counter("broker.send_dropped")
	b.mCompleted = reg.Counter("tasklets.completed")
	b.mFailed = reg.Counter("tasklets.failed")
	b.mProvidersLost = reg.Counter("providers.lost")
	b.mSubmitted = reg.Counter("tasklets.submitted")
	b.mLatencyMS = reg.Histogram("tasklet.latency_ms")

	cfg := dispatch.Config{
		Policy:       opts.Policy,
		Partitions:   opts.partitions,
		MaxAttempts:  opts.MaxAttempts,
		RetryBackoff: opts.RetryBackoff,
		Metrics:      reg,
	}
	if opts.MemoEntries >= 0 && opts.MemoBytes >= 0 && opts.MemoTTL >= 0 {
		cfg.Memo = memo.New(memo.Config{
			MaxEntries: opts.MemoEntries,
			MaxBytes:   opts.MemoBytes,
			TTL:        opts.MemoTTL,
			Metrics:    reg,
			Prefix:     "memo.",
		})
		b.memoOn = true
	}
	b.core = dispatch.New(cfg, liveDriver{b})
	return b
}

// Metrics returns the broker's metrics registry.
func (b *Broker) Metrics() *metrics.Registry { return b.reg }

// Listen binds addr (e.g. "127.0.0.1:0") and starts serving in background
// goroutines. It returns the bound address.
func (b *Broker) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("broker: listen %s: %w", addr, err)
	}
	b.mu.Lock()
	if b.closed.Load() {
		b.mu.Unlock()
		ln.Close()
		return "", errors.New("broker: already closed")
	}
	b.ln = ln
	b.mu.Unlock()

	b.wg.Add(3)
	go func() {
		defer b.wg.Done()
		b.acceptLoop(ln)
	}()
	go func() {
		defer b.wg.Done()
		b.reaperLoop()
	}()
	go func() {
		defer b.wg.Done()
		b.schedLoop()
	}()
	return ln.Addr().String(), nil
}

// Close stops the broker: closes the listener and all connections, and
// waits for the handler goroutines to drain.
func (b *Broker) Close() error {
	b.mu.Lock()
	if b.closed.Load() {
		b.mu.Unlock()
		return nil
	}
	b.closed.Store(true)
	b.core.Close()
	close(b.stop)
	ln := b.ln
	var conns []net.Conn
	for _, p := range b.providers {
		conns = append(conns, p.nc)
	}
	b.mu.Unlock()
	b.jobMu.Lock()
	for _, c := range b.consumers {
		conns = append(conns, c.nc)
	}
	b.jobMu.Unlock()

	if ln != nil {
		ln.Close()
	}
	for _, nc := range conns {
		nc.Close()
	}
	b.wg.Wait()
	return nil
}

func (b *Broker) acceptLoop(ln net.Listener) {
	for {
		nc, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			b.handleConn(nc)
		}()
	}
}

// reaperLoop expires providers that miss heartbeats.
func (b *Broker) reaperLoop() {
	interval := b.opts.HeartbeatTimeout / 2
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
		case <-b.stop:
			return
		}
		b.mu.Lock()
		if b.closed.Load() {
			b.mu.Unlock()
			return
		}
		cutoff := time.Now().Add(-b.opts.HeartbeatTimeout).UnixNano()
		var dead []*providerState
		for _, p := range b.providers {
			if p.lastBeat.Load() < cutoff {
				dead = append(dead, p)
			}
		}
		b.mu.Unlock()
		for _, p := range dead {
			b.logf("broker: provider %d missed heartbeats, removing", p.prov.ID())
			b.removeProvider(p)
			p.nc.Close()
		}
	}
}

// handleConn performs the handshake and dispatches to the role loop.
func (b *Broker) handleConn(nc net.Conn) {
	defer nc.Close()
	conn := wire.NewConn(nc)
	conn.ReadTimeout = 30 * time.Second

	msg, err := conn.Recv()
	if err != nil {
		return
	}
	hello, ok := msg.(*wire.Hello)
	if !ok {
		_ = conn.Send(&wire.ErrorMsg{Code: wire.ErrCodeProtocol, Msg: "expected hello"})
		return
	}
	if hello.Version != wire.ProtocolVersion {
		_ = conn.Send(&wire.ErrorMsg{Code: wire.ErrCodeVersion,
			Msg: fmt.Sprintf("protocol version %d unsupported", hello.Version)})
		return
	}

	switch hello.Role {
	case wire.RoleProvider:
		b.serveProvider(nc, conn, hello)
	case wire.RoleConsumer:
		b.serveConsumer(nc, conn, hello)
	default:
		_ = conn.Send(&wire.ErrorMsg{Code: wire.ErrCodeProtocol, Msg: "unknown role"})
	}
}

// schedLoop is the single scheduler goroutine: it runs one placement pass
// per wake-up. While a pass holds b.mu and the partition locks, arriving
// events settle into partition state, set the dirty flag, and are all
// covered by the next pass — so a burst of N results costs one or two walks
// of the placement queue, not N.
func (b *Broker) schedLoop() {
	for {
		select {
		case <-b.schedWake:
		case <-b.stop:
			return
		}
		for b.schedDirty.Swap(false) {
			if b.closed.Load() {
				return
			}
			b.core.Pass()
		}
	}
}

// schedule records that scheduling state changed and wakes the scheduler
// goroutine. Callers need no lock; the pass itself runs on the scheduler
// goroutine so event handlers return immediately.
func (b *Broker) schedule() {
	b.schedDirty.Store(true)
	select {
	case b.schedWake <- struct{}{}:
	default: // a wake-up is already pending; it will cover this event
	}
}

// enqueue appends to a bounded send queue. A peer that cannot drain
// sendQueueDepth messages is broken or hostile: the drop is counted in
// broker.send_dropped, logged once per connection, and the connection is
// closed so the reader tears the peer down.
func (b *Broker) enqueue(out chan wire.Message, m wire.Message, nc net.Conn, warned *atomic.Bool, label string) {
	select {
	case out <- m:
	default:
		b.mSendDropped.Inc()
		if !warned.Swap(true) {
			b.logf("broker: %s send queue full; dropping %s and closing the connection", label, m.Type())
		}
		nc.Close()
	}
}

// ---------- provider side ----------

func (b *Broker) serveProvider(nc net.Conn, conn *wire.Conn, hello *wire.Hello) {
	b.mu.Lock()
	if b.closed.Load() {
		b.mu.Unlock()
		return
	}
	b.nextProvider++
	id := b.nextProvider
	now := time.Now()
	p := &providerState{
		b:     b,
		out:   make(chan wire.Message, sendQueueDepth),
		nc:    nc,
		label: fmt.Sprintf("provider %d", id),
	}
	p.prov = dispatch.NewProvider(core.ProviderInfo{
		ID:            id,
		Addr:          conn.RemoteAddr(),
		Joined:        now,
		LastHeartbeat: now,
	}, p)
	p.lastBeat.Store(now.UnixNano())
	b.providers[id] = p
	b.mu.Unlock()

	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		wire.WriterLoop(conn, p.out, wire.WriterOpts{Closer: nc})
	}()

	b.enqueue(p.out, &wire.Welcome{ID: uint64(id)}, nc, &p.dropWarned, p.label)
	b.reg.Counter("providers.joined").Inc()
	b.logf("broker: provider %d connected from %s (%s)", id, conn.RemoteAddr(), hello.Name)

	conn.ReadTimeout = b.opts.HeartbeatTimeout * 2
	rs := b.core.NewResults(p.prov)
	registered := false
	for {
		msg, err := conn.Recv()
		if err != nil {
			break
		}
		switch m := msg.(type) {
		case *wire.Register:
			// A session registers once, with a finite speed: a second
			// register would reset the free slots under the attempts still
			// outstanding, and a NaN or infinite speed has no place in the
			// index's order. Either ends the session, and its attempts are
			// re-issued as for any lost provider.
			var refuse string
			switch {
			case registered:
				refuse = "provider already registered"
			case math.IsNaN(m.Speed) || math.IsInf(m.Speed, 0):
				refuse = fmt.Sprintf("speed %v is not finite", m.Speed)
			}
			if refuse != "" {
				b.logf("broker: provider %d refused: %s", id, refuse)
				_ = conn.Send(&wire.ErrorMsg{Code: wire.ErrCodeProtocol, Msg: refuse}) // the session ends either way
				goto done
			}
			registered = true
			p.lastBeat.Store(time.Now().UnixNano())
			b.core.Register(p.prov, m)
			b.logf("broker: provider %d registered: %d slots, %.1f Mops/s, class %s",
				id, m.Slots, m.Speed, m.Class)
		case *wire.Heartbeat:
			// Liveness only; no broker state changes, so heartbeats never
			// queue behind any lock.
			p.lastBeat.Store(time.Now().UnixNano())
		case *wire.AttemptResultBatch:
			// A flush window's results become at most one bulk
			// Engine.Apply per partition.
			for i := range m.Results {
				rs.Add(&m.Results[i])
			}
			rs.Apply()
		case *wire.Bye:
			goto done
		default:
			b.logf("broker: provider %d sent unexpected %s", id, msg.Type())
			goto done
		}
	}
done:
	// Once removeProvider returns, the core sends p nothing more.
	b.removeProvider(p)
	close(p.out)
	b.mProvidersLost.Inc()
	b.logf("broker: provider %d disconnected", id)
}

// removeProvider declares p dead and the core re-issues its attempts as
// lost. Idempotent; callers hold no locks.
func (b *Broker) removeProvider(p *providerState) {
	b.mu.Lock()
	delete(b.providers, p.prov.ID())
	b.mu.Unlock()
	b.core.RemoveProvider(p.prov)
}

// deliver pushes a final result to the consumer and updates job accounting.
// It is the core's Driver.Deliver: callers hold no locks, and the
// tasklet's deadline is already disarmed.
func (b *Broker) deliver(ef *lifecycle.Effect) {
	final := ef.Final

	b.jobMu.Lock()
	defer b.jobMu.Unlock()
	job := b.jobs[final.Job]
	if job == nil {
		return
	}
	if final.OK() {
		job.completed++
		b.mCompleted.Inc()
	} else {
		job.failed++
		b.mFailed.Inc()
	}
	b.mLatencyMS.ObserveDuration(time.Since(ef.Submitted))

	c := b.consumers[job.consumer]
	if c == nil || c.gone {
		return
	}
	c.pending--
	b.enqueue(c.out, &wire.ResultPush{
		Job:       final.Job,
		Tasklet:   final.Tasklet,
		Index:     final.Index,
		Status:    final.Status,
		Return:    final.Return,
		Emitted:   final.Emitted,
		FaultCode: final.FaultCode,
		FaultMsg:  final.FaultMsg,
		Provider:  final.Provider,
		Attempts:  ef.Attempts,
		ExecNanos: int64(final.Exec),
	}, c.nc, &c.dropWarned, c.label)
	if job.completed+job.failed == job.total {
		b.enqueue(c.out, &wire.JobDone{Job: job.id, Completed: job.completed, Failed: job.failed}, c.nc, &c.dropWarned, c.label)
		delete(b.jobs, job.id)
		delete(c.jobs, job.id)
		b.logf("broker: job %d done: %d completed, %d failed", job.id, job.completed, job.failed)
	}
}

// ---------- consumer side ----------

func (b *Broker) serveConsumer(nc net.Conn, conn *wire.Conn, hello *wire.Hello) {
	if b.closed.Load() {
		return
	}
	b.jobMu.Lock()
	b.nextConsumer++
	id := b.nextConsumer
	if id > math.MaxUint32 {
		// Job IDs are id<<32 | n: a wider consumer ID would collide.
		b.jobMu.Unlock()
		_ = conn.Send(&wire.ErrorMsg{Code: wire.ErrCodeOverloaded, Msg: "consumer IDs exhausted"})
		return
	}
	c := &consumerState{
		id:    id,
		out:   make(chan wire.Message, sendQueueDepth),
		nc:    nc,
		label: fmt.Sprintf("consumer %d", id),
		jobs:  map[core.JobID]bool{},
	}
	b.consumers[id] = c
	b.jobMu.Unlock()

	// Each writer burst's run of ResultPushes goes out as one
	// ResultPushBatch frame.
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		wire.WriterLoop(conn, c.out, wire.WriterOpts{Closer: nc})
	}()

	b.enqueue(c.out, &wire.Welcome{ID: uint64(id)}, nc, &c.dropWarned, c.label)
	b.logf("broker: consumer %d connected from %s (%s)", id, conn.RemoteAddr(), hello.Name)

	conn.ReadTimeout = 0 // consumers may idle while awaiting results
	for {
		msg, err := conn.Recv()
		if err != nil {
			break
		}
		switch m := msg.(type) {
		case *wire.SubmitJob:
			if c.submitted == math.MaxUint32 {
				b.logf("broker: consumer %d exhausted its job IDs", id)
				goto done
			}
			c.submitted++
			jid := core.JobID(uint64(id)<<32 | uint64(c.submitted))
			if err := b.acceptJob(c, jid, m); err != nil {
				em := &wire.ErrorMsg{Code: wire.ErrCodeBadJob, Msg: err.Error(), Job: jid}
				b.enqueue(c.out, em, nc, &c.dropWarned, c.label)
			}
		case *wire.CancelJob:
			b.cancelJob(c, m.Job)
		case *wire.QueryFleet:
			b.enqueue(c.out, b.fleetInfo(), nc, &c.dropWarned, c.label)
		case *wire.Bye:
			goto done
		default:
			b.logf("broker: consumer %d sent unexpected %s", id, msg.Type())
			goto done
		}
	}
done:
	b.removeConsumer(c)
	close(c.out)
	b.logf("broker: consumer %d disconnected", id)
}

// acceptJob validates and admits job id, submitting its tasklets to the
// partition lifecycle engines.
func (b *Broker) acceptJob(c *consumerState, id core.JobID, m *wire.SubmitJob) error {
	spec := core.JobSpec{
		Program: m.Program, Params: m.Params, QoC: m.QoC, Fuel: m.Fuel, Seed: m.Seed,
	}
	// Only a program missing from the table is decoded, and it is named
	// under the write lock after a re-check, so it never has two IDs. A
	// known one's rows are checked against its entry arity.
	sum := sha256.Sum256(m.Program)
	b.progMu.RLock()
	prog, ok := b.programs[sum]
	b.progMu.RUnlock()
	if !ok {
		if err := spec.Validate(); err != nil {
			return err
		}
		var tp tvm.Program
		_ = tp.UnmarshalBinary(m.Program) // cannot fail: Validate decoded it
		b.progMu.Lock()
		if prog, ok = b.programs[sum]; !ok {
			if len(b.programs) >= maxProgramMemo {
				for k := range b.programs {
					delete(b.programs, k)
					break
				}
			}
			b.nextProgram++
			prog = programEntry{id: b.nextProgram, arity: tp.EntryFunc().NumParams}
			b.programs[sum] = prog
		}
		b.progMu.Unlock()
	} else if err := spec.ValidateRows(prog.arity); err != nil {
		return err
	}
	fuel := m.Fuel
	if fuel == 0 {
		fuel = 100_000_000
	}

	n := len(m.Params)
	b.jobMu.Lock()
	if c.gone {
		b.jobMu.Unlock()
		return errors.New("broker: consumer disconnected")
	}
	if c.pending+n > b.opts.MaxPendingPerConsumer {
		b.jobMu.Unlock()
		return fmt.Errorf("broker: consumer queue limit %d exceeded", b.opts.MaxPendingPerConsumer)
	}

	job := &jobState{id: id, consumer: c.id, total: n, tasklets: make([]core.TaskletID, 0, n)}
	b.jobs[job.id] = job
	c.jobs[job.id] = true
	c.pending += n

	// Sequence numbers are reserved as one contiguous run, one atomic add
	// per job, then the whole job is grouped per partition: each group is
	// one bulk Apply under its partition's effect-scratch reset.
	// Cache hits deliver ResultPushes from the partition walk below; the
	// consumer registered the job before it sent SubmitJob, so no push can
	// beat registration.
	base := b.nextTasklet.Add(uint64(n)) - uint64(n)
	now := time.Now()
	if c.staged == nil {
		c.staged = make([][]lifecycle.Event, b.core.Partitions())
	}
	groups := c.staged
	keyed := b.memoOn && !m.QoC.NoCache
	for i, params := range m.Params {
		var key memo.Key
		var haveKey bool
		if keyed {
			key, haveKey = memo.KeyFor(uint64(prog.id), m.Seed, params)
		}
		ev, pi := b.core.SubmitEvent(core.Tasklet{
			Job: job.id, Index: i,
			Program: prog.id, ProgramData: m.Program, Params: params,
			QoC: m.QoC, Fuel: fuel, Seed: m.Seed, Submitted: now,
		}, base+uint64(i)+1, key, haveKey)
		job.tasklets = append(job.tasklets, ev.Tasklet.ID)
		groups[pi] = append(groups[pi], ev)
	}
	b.mSubmitted.Add(int64(n))
	b.jobMu.Unlock()

	b.core.Feed(groups)
	kept := 0
	for pi, evs := range groups {
		clear(evs)
		groups[pi] = evs[:0]
		kept += cap(evs)
	}
	if kept > maxStagedEvents {
		c.staged = nil
	}
	b.logf("broker: job %d accepted: %d tasklets, qoc %s", job.id, job.total, m.QoC.Mode)
	return nil
}

// cancelJob abandons a job's outstanding tasklets.
func (b *Broker) cancelJob(c *consumerState, id core.JobID) {
	b.jobMu.Lock()
	job := b.jobs[id]
	if job == nil || job.consumer != c.id || job.cancelled {
		b.jobMu.Unlock()
		return
	}
	job.cancelled = true
	tids := append([]core.TaskletID(nil), job.tasklets...)
	b.jobMu.Unlock()

	dropped := b.core.Cancel(tids)

	b.jobMu.Lock()
	// A racing final delivery may have completed the job and sent its
	// JobDone already; only account and reply if the job record survived.
	if b.jobs[id] == job {
		job.failed += dropped
		c.pending -= dropped
		if !c.gone {
			b.enqueue(c.out, &wire.JobDone{Job: job.id, Completed: job.completed, Failed: job.failed}, c.nc, &c.dropWarned, c.label)
		}
	}
	b.jobMu.Unlock()
	b.logf("broker: job %d cancelled", id)
}

// removeConsumer drops a consumer and abandons its outstanding work.
// Idempotent; callers hold no locks.
func (b *Broker) removeConsumer(c *consumerState) {
	b.jobMu.Lock()
	if c.gone {
		b.jobMu.Unlock()
		return
	}
	c.gone = true
	delete(b.consumers, c.id)
	var tids []core.TaskletID
	for jid := range c.jobs {
		job := b.jobs[jid]
		if job == nil {
			continue
		}
		tids = append(tids, job.tasklets...)
		delete(b.jobs, jid)
	}
	b.jobMu.Unlock()

	// Deliver effects from promoted waiters find their jobs deleted and
	// no-op; cancels of in-flight attempts still go out.
	b.core.Cancel(tids)
}

// fleetInfo builds the provider-directory reply for QueryFleet.
func (b *Broker) fleetInfo() *wire.FleetInfo {
	b.mu.Lock()
	defer b.mu.Unlock()
	info := &wire.FleetInfo{Pending: b.core.Pending()}
	for _, p := range b.providers {
		pi := b.core.Info(p.prov)
		info.Providers = append(info.Providers, wire.ProviderEntry{
			ID:          pi.ID,
			Class:       pi.Class,
			Slots:       pi.Slots,
			FreeSlots:   max(0, p.prov.Free()), // idle slots; queued attempts are not free
			Speed:       pi.Speed,
			Reliability: pi.Reliability,
			Executed:    p.prov.Finished(),
		})
	}
	sort.Slice(info.Providers, func(i, j int) bool {
		return info.Providers[i].ID < info.Providers[j].ID
	})
	return info
}

// Snapshot is a point-in-time view of broker state for tests and the CLI.
type Snapshot struct {
	Providers []core.ProviderInfo
	Pending   int
	InFlight  int
	Jobs      int
}

// Snapshot returns current broker state.
func (b *Broker) Snapshot() Snapshot {
	s := Snapshot{Pending: b.core.Pending(), InFlight: b.core.InFlight()}
	b.jobMu.Lock()
	s.Jobs = len(b.jobs)
	b.jobMu.Unlock()
	b.mu.Lock()
	for _, p := range b.providers {
		info := b.core.Info(p.prov)
		info.LastHeartbeat = time.Unix(0, p.lastBeat.Load())
		s.Providers = append(s.Providers, info)
	}
	b.mu.Unlock()
	return s
}

var _ io.Closer = (*Broker)(nil)
