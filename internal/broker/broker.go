// Package broker implements the Tasklet broker: the mediator between
// resource consumers and providers. It keeps the provider registry with
// heartbeat-based failure detection, routes bytecode and results, and places
// attempts with one scheduler.Index built from Options.Policy. The tasklet
// lifecycle itself — QoC attempt fan-out, memoization, coalescing, re-issue
// of lost attempts, finalization — lives in internal/lifecycle; the broker
// is the wire/wall-clock driver of that shared engine (the simulator drives
// the same engine in virtual time).
//
// Concurrency model: one reader goroutine per connection, one writer
// goroutine per connection (fed by a bounded queue so a slow peer cannot
// stall the broker), one scheduler goroutine, and per-tasklet state split
// into P lock-striped partitions (partition.go), the stripe encoded in the
// tasklet ID. A provider's reader goroutine buckets each decoded burst of
// results by partition and applies each bucket as one bulk engine Apply
// under that partition's mutex, so lifecycle execution, QoC fan-in, memo
// lookups and effect emission run on all cores; deadlines and retry
// backoffs are runtime timers (time.AfterFunc) whose callbacks take the
// same mutex. Placement stays single-writer: events set a dirty flag and
// wake the scheduler goroutine, which owns scheduler.Index exclusively and
// drains partition queues in index order, so a burst of events costs one
// placement pass instead of one per event. Placement gives a provider as
// many attempts as it has credits: its free slots, plus queued credits — as
// many attempts per slot as fit in wire.TinyExecNanos of expected work, by
// an exponentially weighted mean of its results' execution times, up to the
// queue the provider advertised.
// So near-instant work keeps every slot busy across the broker round trip,
// while work of TinyExecNanos or longer is never queued behind a busy
// provider as another idles.
// Heartbeats bypass every lock (atomic timestamp per provider). Writer
// goroutines drain their queue in batches so one socket flush covers a
// burst of Assigns or ResultPushes (see wire.Conn for the flush policy).
// The stripe count is min(GOMAXPROCS, maxPartitions); the differential
// tests pin that it changes where lifecycle state lives, never what a
// consumer sees.
package broker

import (
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

// writerBatchMax bounds how many queued messages a writer loop folds into
// one flush.
const writerBatchMax = 128

// maxStagedEvents bounds the submit events a consumer's staging scratch keeps
// between jobs (an Event is about 300 bytes): jobs of a few thousand tasklets
// reuse it, larger ones stage in slices freed after their feed.
const maxStagedEvents = 4096

// maxProgramMemo bounds the program-arity memo. Past it, a new program
// evicts an arbitrary entry, so memory stays constant however many distinct
// programs a long-lived broker sees.
const maxProgramMemo = 1024

// maxPartitions caps the stripe count on hosts with more cores: every
// placement pass and result burst walks all the stripes.
const maxPartitions = 64

// Broker is the central coordinator. Create with New, start with Serve.
//
// Locking: b.mu guards the listener, the provider registry structure and
// all scheduler state (index, staged batches, scratch); jobMu guards
// consumers/jobs and their accounting (the delivery path); progMu guards
// the program-arity memo; pmu is a read gate on the providers map for
// partition-side cancel sends; each partition has its own mutex
// (partition.go documents the full lock order). No goroutine ever holds
// b.mu and jobMu at once.
type Broker struct {
	opts Options
	reg  *metrics.Registry
	logf func(format string, args ...any)

	mu        sync.Mutex
	ln        net.Listener
	providers map[core.ProviderID]*providerState

	// closed flips once in Close; timer callbacks and other paths that run
	// without b.mu read it directly.
	closed atomic.Bool

	// pmu guards the providers map alongside b.mu: writers hold both, so a
	// reader may hold either. Partition effect application cancels attempts
	// under pmu.RLock, which lets provider removal barrier on pmu before
	// the send queue is closed.
	pmu sync.RWMutex

	jobMu        sync.Mutex
	consumers    map[core.ConsumerID]*consumerState
	jobs         map[core.JobID]*jobState
	nextConsumer core.ConsumerID

	// arity memoizes the entry-function parameter count of recently
	// submitted programs, so a job whose program is known skips decoding it.
	// It holds at most maxProgramMemo entries, and a miss costs only that
	// decode: attempts carry their bytes from the tasklet, never from here.
	progMu sync.RWMutex
	arity  map[core.ProgramID]int

	// parts holds the lock-striped lifecycle partitions; see partition.go.
	parts []*partition
	// memoOn gates content-key computation on submission (pure CPU saving;
	// the engines would ignore the key anyway when memoization is off).
	memoOn bool
	// pendingN tracks the total placement-queue depth across partitions.
	pendingN atomic.Int64

	// index is the incremental placement index mirroring provider
	// free/backlog state. The scheduler goroutine owns it exclusively
	// (everything touching it runs under b.mu); partitions publish slot
	// changes through the dirty-provider list instead.
	index *scheduler.Index

	// dirtyMu guards the dirty-provider list: providers whose slot
	// accounting moved since the last pass and need an index resync.
	dirtyMu    sync.Mutex
	dirtyProv  []*providerState
	dirtySpare []*providerState

	// exclScratch is the placement pass's exclusion-list scratch, reused
	// across picks so a pass over a deep queue performs no allocations.
	// Only touched under b.mu by the scheduler goroutine.
	exclScratch []core.ProviderID
	// stagedScratch lists the providers holding a staged AssignBatch this
	// pass; flushAssignBatchesLocked drains it.
	stagedScratch []*providerState

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
	mAttemptsOK    *metrics.Counter
	mAttemptsFlt   *metrics.Counter
	mAttemptsOth   *metrics.Counter
	mAttemptsLost  *metrics.Counter
	mLaunched      *metrics.Counter
	mCompleted     *metrics.Counter
	mFailed        *metrics.Counter
	mDeadlineExp   *metrics.Counter
	mProvidersLost *metrics.Counter
	mSubmitted     *metrics.Counter
	mExecMS        *metrics.Histogram
	mLatencyMS     *metrics.Histogram
	mSchedPassNS   *metrics.Histogram
	mPendingDep    *metrics.Gauge
	mPlaced        *metrics.Counter
}

type providerState struct {
	info  core.ProviderInfo
	out   chan wire.Message
	nc    net.Conn
	label string // "provider N", precomputed for hot-path logs

	// free/backlog/finished are atomics: the provider's reader settles them
	// under a partition lock as results arrive while the scheduler reads
	// them under b.mu. assigned and the reliability estimate inside info
	// stay scheduler-only. free is Slots minus outstanding attempts, so it
	// goes negative while attempts queue behind the slots.
	free     atomic.Int64
	backlog  atomic.Int64
	finished atomic.Int64 // attempts that returned any result
	assigned int          // under b.mu
	// execMean is an exponentially weighted mean of the ExecNanos in this
	// provider's results, written only by its reader. It starts at
	// wire.TinyExecNanos, so credits grants no queued attempt until results
	// have shown tiny ones.
	execMean atomic.Int64
	// queue is how many queued places the provider holds beyond its Slots
	// (Register.Queue). Under b.mu, like info.Slots.
	queue int

	gone atomic.Bool
	// dirty marks membership in the broker's dirty-provider list (one
	// index resync per pass however many results arrived).
	dirty atomic.Bool

	// staged accumulates this pass's assignments into one AssignBatch frame,
	// flushed at the end of every placement pass. Only touched under b.mu by
	// the scheduler goroutine.
	staged *wire.AssignBatch

	// lastBeat is the UnixNano timestamp of the latest heartbeat, updated
	// without the broker mutex so heartbeats never queue behind scheduling.
	lastBeat atomic.Int64

	// dropWarned limits the send-queue-overflow log to once per connection.
	dropWarned atomic.Bool
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
		arity:     map[core.ProgramID]int{},
		schedWake: make(chan struct{}, 1),
		stop:      make(chan struct{}),
	}
	b.mSendDropped = reg.Counter("broker.send_dropped")
	b.mAttemptsOK = reg.Counter("attempts.ok")
	b.mAttemptsFlt = reg.Counter("attempts.fault")
	b.mAttemptsOth = reg.Counter("attempts.other")
	b.mAttemptsLost = reg.Counter("attempts.lost")
	b.mLaunched = reg.Counter("attempts.launched")
	b.mCompleted = reg.Counter("tasklets.completed")
	b.mFailed = reg.Counter("tasklets.failed")
	b.mDeadlineExp = reg.Counter("tasklets.deadline_expired")
	b.mProvidersLost = reg.Counter("providers.lost")
	b.mSubmitted = reg.Counter("tasklets.submitted")
	b.mExecMS = reg.Histogram("attempt.exec_ms")
	b.mLatencyMS = reg.Histogram("tasklet.latency_ms")
	b.mSchedPassNS = reg.Histogram("broker.sched_pass_ns")
	b.mPendingDep = reg.Gauge("broker.pending_depth")
	b.mPlaced = reg.Counter("broker.placed_per_pass")
	b.index, _ = scheduler.NewIndexFor(opts.Policy) // the error is always nil

	var lopts lifecycle.Options
	lopts.MaxAttempts = opts.MaxAttempts
	lopts.RetryBackoff = opts.RetryBackoff
	if opts.MemoEntries >= 0 && opts.MemoBytes >= 0 && opts.MemoTTL >= 0 {
		// One cache shared by every partition engine (the cache carries its
		// own mutex), so repeats hit across partitions. Flight tables are
		// per partition: a flight's waiter fan-out dereferences the owning
		// engine's tasklet records. Identical content still meets in one
		// flight because submitEvent routes keyed tasklets by content key.
		lopts.Memo = memo.New(memo.Config{
			MaxEntries: opts.MemoEntries,
			MaxBytes:   opts.MemoBytes,
			TTL:        opts.MemoTTL,
			Metrics:    reg,
			Prefix:     "memo.",
		})
		b.memoOn = true
	}

	p := opts.partitions
	b.parts = make([]*partition, p)
	for i := range b.parts {
		po := lopts
		po.AttemptOffset = uint64(i)
		po.AttemptStride = uint64(p)
		if b.memoOn {
			po.Flights = memo.NewFlightTable(reg, "memo.")
		}
		b.parts[i] = &partition{
			idx:       i,
			life:      lifecycle.New(po),
			deadlines: map[core.TaskletID]*time.Timer{},
		}
	}
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
			if !p.gone.Load() && p.lastBeat.Load() < cutoff {
				dead = append(dead, p)
			}
		}
		b.mu.Unlock()
		for _, p := range dead {
			b.logf("broker: provider %d missed heartbeats, removing", p.info.ID)
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
			b.mu.Lock()
			b.schedulePassLocked()
			b.mu.Unlock()
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

// writerLoop drains a connection's outgoing queue through the shared
// wire.WriterLoop. fold, when non-nil, rewrites each drained burst before it
// is sent (batch-frame folding on consumer links).
func (b *Broker) writerLoop(conn *wire.Conn, out <-chan wire.Message, nc net.Conn, fold func([]wire.Message) []wire.Message) {
	wire.WriterLoop(conn, out, wire.WriterOpts{
		Max:    writerBatchMax,
		Fold:   fold,
		Closer: nc,
	})
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
		info: core.ProviderInfo{
			ID:            id,
			Addr:          conn.RemoteAddr(),
			Reliability:   1,
			Joined:        now,
			LastHeartbeat: now,
		},
		out:   make(chan wire.Message, sendQueueDepth),
		nc:    nc,
		label: fmt.Sprintf("provider %d", id),
	}
	p.lastBeat.Store(now.UnixNano())
	p.execMean.Store(wire.TinyExecNanos)
	b.pmu.Lock()
	b.providers[id] = p
	b.pmu.Unlock()
	b.mu.Unlock()

	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		b.writerLoop(conn, p.out, nc, nil)
	}()

	b.enqueue(p.out, &wire.Welcome{ID: uint64(id)}, nc, &p.dropWarned, p.label)
	b.reg.Counter("providers.joined").Inc()
	b.logf("broker: provider %d connected from %s (%s)", id, conn.RemoteAddr(), hello.Name)

	conn.ReadTimeout = b.opts.HeartbeatTimeout * 2
	rs := resultScratch{byPart: make([][]lifecycle.Event, len(b.parts))}
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
			b.mu.Lock()
			p.info.Slots = m.Slots
			p.info.Class = m.Class
			p.info.Speed = m.Speed
			p.queue = m.Queue
			p.free.Store(int64(m.Slots))
			b.index.Upsert(&p.info, p.credits(), int(p.backlog.Load()))
			b.mu.Unlock()
			b.schedule()
			b.logf("broker: provider %d registered: %d slots, %.1f Mops/s, class %s",
				id, m.Slots, m.Speed, m.Class)
		case *wire.Heartbeat:
			// Liveness only; no broker state changes, so heartbeats never
			// queue behind any lock.
			p.lastBeat.Store(time.Now().UnixNano())
		case *wire.AttemptResult:
			b.addResult(&rs, p, m)
			b.applyResults(p, &rs)
		case *wire.AttemptResultBatch:
			// A folded burst becomes at most one bulk Engine.Apply per
			// partition.
			for i := range m.Results {
				b.addResult(&rs, p, &m.Results[i])
			}
			b.applyResults(p, &rs)
		case *wire.Bye:
			goto done
		default:
			b.logf("broker: provider %d sent unexpected %s", id, msg.Type())
			goto done
		}
	}
done:
	b.removeProvider(p)
	// Barrier: a partition applying a CancelAttempt may hold a reference
	// from before the map delete; it enqueues under pmu.RLock, so one write
	// acquisition guarantees no send races the close below.
	b.pmu.Lock()
	b.pmu.Unlock() //lint:ignore SA2001 empty section is the barrier
	close(p.out)
	b.mProvidersLost.Inc()
	b.logf("broker: provider %d disconnected", id)
}

// removeProvider declares a provider dead: its in-flight attempts are fed
// back to every partition engine as lost. Idempotent; callers hold no
// locks.
func (b *Broker) removeProvider(p *providerState) {
	b.mu.Lock()
	if p.gone.Swap(true) {
		b.mu.Unlock()
		return
	}
	b.pmu.Lock()
	delete(b.providers, p.info.ID)
	b.pmu.Unlock()
	b.index.Remove(p.info.ID)
	b.mu.Unlock()

	lost := 0
	var out []lifecycle.Effect
	for _, part := range b.parts {
		part.mu.Lock()
		n, fx := part.life.ProviderLost(p.info.ID)
		lost += n
		out, _ = b.applyPartFxLocked(part, fx, out)
		part.mu.Unlock()
	}
	if lost > 0 {
		b.mAttemptsLost.Add(int64(lost))
	}
	b.applyOutFx(out)
	b.schedule()
}

// credits is how many more attempts placement may give p: its free slots,
// plus queued credits worth at most wire.TinyExecNanos of expected work per
// slot, Slots × ⌊TinyExecNanos / execMean⌋, capped by the queue p
// advertised. That is no queued credit once execMean reaches TinyExecNanos,
// one per slot from half of it, and deeper only for attempts of a few µs,
// whose cost is the broker round trip rather than the run. Never negative,
// so the index's fleet-wide total counts only capacity that can take work.
// Callers hold b.mu (info.Slots and queue are scheduler-owned).
func (p *providerState) credits() int {
	c := int(p.free.Load())
	if m := p.execMean.Load(); m < wire.TinyExecNanos && p.queue > 0 {
		c += min(p.queue, p.info.Slots*int(wire.TinyExecNanos/max(m, 1)))
	}
	return max(c, 0)
}

// noteExec folds one result's execution time into p.execMean with weight
// 1/8: one long result shrinks the queued credits at once, and it takes a
// run of tiny ones to deepen them again. Called only by p's reader.
func (p *providerState) noteExec(d time.Duration) {
	m := p.execMean.Load()
	p.execMean.Store(m + (int64(d)-m)/8)
}

// updateReliabilityLocked refreshes the completion-ratio estimate. Callers
// hold b.mu (info.Reliability is scheduler-owned).
func (b *Broker) updateReliabilityLocked(p *providerState) {
	if p.assigned > 0 {
		p.info.Reliability = float64(p.finished.Load()) / float64(p.assigned)
		if p.info.Reliability > 1 {
			p.info.Reliability = 1
		}
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

	// Each writer burst's run of ResultPushes is folded into one
	// ResultPushBatch frame.
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		b.writerLoop(conn, c.out, nc, wire.FoldBatchFrames)
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
	// Only a program missing from the arity memo is decoded. Rows of a
	// memoized one are checked against its entry arity, which is the arity
	// of the bytes providers run: the memo is keyed by their hash.
	progID := core.HashProgram(m.Program)
	b.progMu.RLock()
	params, ok := b.arity[progID]
	b.progMu.RUnlock()
	if ok {
		if err := spec.ValidateRows(params); err != nil {
			return err
		}
	} else {
		if err := spec.Validate(); err != nil {
			return err
		}
		var prog tvm.Program
		_ = prog.UnmarshalBinary(m.Program) // cannot fail: Validate decoded it
		b.progMu.Lock()
		if len(b.arity) >= maxProgramMemo {
			for id := range b.arity {
				delete(b.arity, id)
				break
			}
		}
		b.arity[progID] = prog.EntryFunc().NumParams
		b.progMu.Unlock()
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
		c.staged = make([][]lifecycle.Event, len(b.parts))
	}
	groups := c.staged
	for i, params := range m.Params {
		ev, pi := b.submitEvent(core.Tasklet{
			Job: job.id, Index: i,
			Program: progID, ProgramData: m.Program, Params: params,
			QoC: m.QoC, Fuel: fuel, Seed: m.Seed, Submitted: now,
		}, base+uint64(i)+1)
		job.tasklets = append(job.tasklets, ev.Tasklet.ID)
		groups[pi] = append(groups[pi], ev)
	}
	b.mSubmitted.Add(int64(n))
	b.jobMu.Unlock()

	kept := 0
	for pi, evs := range groups {
		b.feedPartition(b.parts[pi], evs)
		clear(evs)
		groups[pi] = evs[:0]
		kept += cap(evs)
	}
	if kept > maxStagedEvents {
		c.staged = nil
	}
	b.logf("broker: job %d accepted: %d tasklets, qoc %s", job.id, job.total, m.QoC.Mode)
	b.schedule()
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

	dropped := 0
	for _, tid := range tids {
		if b.cancelOne(tid) {
			dropped++
		}
	}
	b.purgePending()
	b.schedule() // a dropped leader may have promoted a waiter

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

	for _, tid := range tids {
		// Deliver effects from promoted waiters find their jobs deleted and
		// no-op; cancels of in-flight attempts still go out.
		b.cancelOne(tid)
	}
	b.purgePending()
	b.schedule() // a dropped leader may have promoted a waiter
}

// ---------- scheduling ----------

// schedulePassLocked drains the partition placement queues in index order —
// partition 0 first, every pass — assigning attempts to providers according
// to the policy. Entries whose tasklet vanished (job cancelled, already
// complete) are purged. Entries with no eligible provider stay queued. Event
// handlers never call this directly — they call schedule, which batches an
// event-burst into one pass run by schedLoop. The pass starts by folding
// partition-side slot settlements into the index (syncDirtyProvidersLocked),
// keeping the index single-writer; every pick is then a heap peek or an
// order-statistics query on it, zero allocations.
func (b *Broker) schedulePassLocked() {
	b.syncDirtyProvidersLocked()
	b.mPendingDep.Set(b.pendingN.Load())
	if b.pendingN.Load() == 0 || len(b.providers) == 0 {
		return
	}
	start := time.Now()
	placed := 0
	for _, part := range b.parts {
		part.mu.Lock()
		placed += b.drainPartitionLocked(part)
		part.mu.Unlock()
	}
	// Counted before the flush: a result of this pass's Assigns can reach
	// its consumer before the pass returns.
	if placed > 0 {
		b.mPlaced.Add(int64(placed))
		b.mLaunched.Add(int64(placed)) // one counter update per pass, not per attempt
	}
	b.mPendingDep.Set(b.pendingN.Load())
	b.flushAssignBatchesLocked()
	b.mSchedPassNS.Observe(float64(time.Since(start)))
}

// drainPartitionLocked walks one partition's queue through the placement
// index. Callers hold b.mu and part.mu.
func (b *Broker) drainPartitionLocked(part *partition) int {
	if len(part.pending) == 0 {
		return 0
	}
	placed := 0
	before := len(part.pending)
	remaining := part.pending[:0]
	for idx, tid := range part.pending {
		// Without free capacity nothing below can place; keep the rest of
		// the queue as-is instead of walking it (the queue can hold many
		// thousands of entries and schedule runs on every result).
		if b.index.FreeSlots() <= 0 {
			remaining = append(remaining, part.pending[idx:]...)
			break
		}
		t := part.life.Tasklet(tid)
		if t == nil {
			continue
		}
		b.exclScratch = part.life.AppendActiveProviders(tid, b.exclScratch[:0])
		pid, ok := b.index.Pick(t, b.exclScratch)
		if !ok {
			remaining = append(remaining, tid)
			continue
		}
		p := b.providers[pid]
		if p == nil || p.credits() <= 0 {
			remaining = append(remaining, tid)
			continue
		}
		if b.launchAttemptLocked(part, t, p) {
			placed++
		}
	}
	part.pending = remaining
	b.pendingN.Add(int64(len(remaining) - before))
	return placed
}

// launchAttemptLocked creates one attempt and stages it into the
// provider's per-pass AssignBatch, flushed by flushAssignBatchesLocked at the
// end of the placement pass. Callers hold b.mu and the partition lock of t's
// partition.
func (b *Broker) launchAttemptLocked(part *partition, t *core.Tasklet, p *providerState) bool {
	aid, ok := part.life.Launched(t.ID, p.info.ID)
	if !ok {
		return false // defensive; callers checked liveness under the same lock
	}
	p.free.Add(-1)
	p.backlog.Add(1)
	p.assigned++
	b.updateReliabilityLocked(p)
	b.index.Assign(p.info.ID) // after the reliability update so rank refreshes

	if p.staged == nil {
		p.staged = &wire.AssignBatch{}
		b.stagedScratch = append(b.stagedScratch, p)
	}
	if !batchHasProgram(p.staged, t.Program) {
		// Every frame carries the bytes of every program its entries use,
		// once each, so the provider needs nothing from an earlier frame.
		p.staged.Programs = append(p.staged.Programs, wire.ProgramBlob{ID: t.Program, Data: t.ProgramData})
	}
	p.staged.Assigns = append(p.staged.Assigns, wire.Assign{
		Attempt: aid,
		Tasklet: t.ID,
		Program: t.Program,
		Params:  t.Params,
		Fuel:    t.Fuel,
		Seed:    t.Seed,
	})
	return true
}

// batchHasProgram reports whether the staged batch's program table already
// carries id. Tables hold the pass's distinct programs — almost always one
// entry — so a linear scan, newest first, wins over any map.
func batchHasProgram(ab *wire.AssignBatch, id core.ProgramID) bool {
	for i := len(ab.Programs) - 1; i >= 0; i-- {
		if ab.Programs[i].ID == id {
			return true
		}
	}
	return false
}

// flushAssignBatchesLocked ships every staged AssignBatch accumulated by
// the current placement pass: one frame per provider per pass. A batch that
// holds a single assignment goes out as a plain Assign frame carrying its
// program's bytes.
func (b *Broker) flushAssignBatchesLocked() {
	for _, p := range b.stagedScratch {
		ab := p.staged
		p.staged = nil
		if ab == nil || len(ab.Assigns) == 0 {
			continue
		}
		if len(ab.Assigns) == 1 {
			a := ab.Assigns[0]
			a.ProgramData = ab.Programs[0].Data
			b.enqueue(p.out, &a, p.nc, &p.dropWarned, p.label)
			continue
		}
		b.enqueue(p.out, ab, p.nc, &p.dropWarned, p.label)
	}
	b.stagedScratch = b.stagedScratch[:0]
}

// fleetInfo builds the provider-directory reply for QueryFleet.
func (b *Broker) fleetInfo() *wire.FleetInfo {
	b.mu.Lock()
	defer b.mu.Unlock()
	info := &wire.FleetInfo{Pending: int(b.pendingN.Load())}
	for _, p := range b.providers {
		info.Providers = append(info.Providers, wire.ProviderEntry{
			ID:          p.info.ID,
			Class:       p.info.Class,
			Slots:       p.info.Slots,
			FreeSlots:   max(0, int(p.free.Load())), // idle slots; queued attempts are not free
			Speed:       p.info.Speed,
			Reliability: p.info.Reliability,
			Executed:    p.finished.Load(),
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
	s := Snapshot{Pending: int(b.pendingN.Load())}
	for _, part := range b.parts {
		part.mu.Lock()
		s.InFlight += part.life.InFlight()
		part.mu.Unlock()
	}
	b.jobMu.Lock()
	s.Jobs = len(b.jobs)
	b.jobMu.Unlock()
	b.mu.Lock()
	for _, p := range b.providers {
		info := p.info
		info.LastHeartbeat = time.Unix(0, p.lastBeat.Load())
		s.Providers = append(s.Providers, info)
	}
	b.mu.Unlock()
	return s
}

var _ io.Closer = (*Broker)(nil)
