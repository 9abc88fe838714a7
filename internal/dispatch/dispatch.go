// Package dispatch is the scheduler core: the transport-free half of the
// Tasklet broker, driven both by the live broker (internal/broker) and by
// the simulator (internal/sim), so a simulated fleet is placed, accounted
// and re-issued by the same code as a live one. It owns the lock-striped
// partitions of lifecycle state (partition.go), the placement pass (Pass)
// over one scheduler.Index, the provider accounting placement ranks by
// (free slots, backlog, queued credits from a mean of execution times, a
// completion-ratio reliability) and provider loss (RemoveProvider).
//
// The core reaches its caller through a Driver (timers, placement wake-ups,
// finals) and, per provider, a Link (assign batches, cancels).
//
// Concurrency: placement is single-writer, under c.mu. Submissions, result
// bursts, timers and cancellations run on their callers' goroutines under
// one partition's mutex each; they settle provider slots in atomics and
// mark the provider dirty, and the next pass folds dirty providers into the
// index. Lock order: c.mu → part.mu → dirtyMu; pmu, the read gate on the
// providers map for cancels, is taken with no partition lock held. Effects
// that leave a partition (cancel, deliver) are copied out under part.mu and
// applied after release, so Link.Cancel runs under pmu's read lock only and
// Schedule and Deliver under no core lock; Link.Assign runs under c.mu at
// the end of a pass.
package dispatch

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/memo"
	"repro/internal/metrics"
	"repro/internal/scheduler"
	"repro/internal/wire"
)

// Timer is an armed one-shot callback: a *time.Timer live, a virtual-clock
// event in the simulator.
type Timer interface{ Stop() bool }

// Driver is what the core needs from the program that runs it.
type Driver interface {
	// AfterFunc calls f once d has passed.
	AfterFunc(d time.Duration, f func()) Timer
	// Schedule asks for a placement pass (Core.Pass) soon; a burst of calls
	// may share one pass.
	Schedule()
	// Deliver takes one tasklet's final result.
	Deliver(ef *lifecycle.Effect)
}

// Link is how the core reaches one provider.
type Link interface {
	// Assign ships the attempts one pass placed on the provider, with the
	// bytes of every program they run. The link owns ab from then on.
	Assign(ab *wire.AssignBatch)
	// Cancel revokes one attempt, best effort: its result, whatever it is,
	// still settles its slot.
	Cancel(aid core.AttemptID)
}

// Config configures a Core. MaxAttempts and RetryBackoff are
// lifecycle.Options' fields of the same names.
type Config struct {
	Policy       scheduler.Policy // the zero value is work_steal
	Partitions   int              // stripe count; below 1 selects one
	Memo         *memo.Cache      // shared by every stripe; nil disables memoization and coalescing
	MaxAttempts  int
	RetryBackoff time.Duration
	Metrics      *metrics.Registry // nil allocates a private registry
}

// Core is the scheduler core. Create with New.
type Core struct {
	drv Driver

	// mu guards the placement side: index, providers, each provider's
	// staged batch, Slots, queue, assigned and reliability, and the pass
	// scratch. providers' writers hold pmu too, so cancels read under pmu.
	mu        sync.Mutex
	index     *scheduler.Index
	providers map[core.ProviderID]*Provider
	pmu       sync.RWMutex

	parts    []*partition
	pendingN atomic.Int64 // placement-queue depth across partitions

	// dirtyMu guards the providers whose slot accounting moved since the
	// last pass; dirtySpare is the other half of the double buffer.
	dirtyMu    sync.Mutex
	dirtyProv  []*Provider
	dirtySpare []*Provider

	exclScratch   []core.ProviderID // the pass's exclusion list
	stagedScratch []*Provider       // providers holding a staged batch this pass

	closed atomic.Bool // timer callbacks are no-ops once set

	// Metric handles, resolved once: the result path takes no registry lock.
	mAttemptsOK, mAttemptsFlt, mAttemptsOth, mAttemptsWst, mAttemptsLost *metrics.Counter
	mLaunched, mDeadlineExp, mPlaced                                     *metrics.Counter
	mExecMS, mSchedPassNS                                                *metrics.Histogram
	mPendingDep                                                          *metrics.Gauge
}

// New builds a core that drives drv.
func New(cfg Config, drv Driver) *Core {
	reg := cfg.Metrics
	if reg == nil {
		reg = &metrics.Registry{}
	}
	c := &Core{
		drv:           drv,
		providers:     map[core.ProviderID]*Provider{},
		mAttemptsOK:   reg.Counter("attempts.ok"),
		mAttemptsFlt:  reg.Counter("attempts.fault"),
		mAttemptsOth:  reg.Counter("attempts.other"),
		mAttemptsWst:  reg.Counter("attempts.wasted"),
		mAttemptsLost: reg.Counter("attempts.lost"),
		mLaunched:     reg.Counter("attempts.launched"),
		mDeadlineExp:  reg.Counter("tasklets.deadline_expired"),
		mPlaced:       reg.Counter("broker.placed_per_pass"),
		mExecMS:       reg.Histogram("attempt.exec_ms"),
		mSchedPassNS:  reg.Histogram("broker.sched_pass_ns"),
		mPendingDep:   reg.Gauge("broker.pending_depth"),
	}
	c.index, _ = scheduler.NewIndexFor(cfg.Policy) // the error is always nil

	p := max(cfg.Partitions, 1)
	c.parts = make([]*partition, p)
	for i := range c.parts {
		opts := lifecycle.Options{
			Memo:          cfg.Memo,
			MaxAttempts:   cfg.MaxAttempts,
			RetryBackoff:  cfg.RetryBackoff,
			AttemptOffset: uint64(i),
			AttemptStride: uint64(p),
		}
		if cfg.Memo != nil {
			// Flight tables are per stripe (a flight's fan-out reads its
			// engine's records); identical content still meets in one,
			// because SubmitEvent routes keyed tasklets by content key.
			opts.Flights = memo.NewFlightTable(reg, "memo.")
		}
		c.parts[i] = &partition{idx: i, life: lifecycle.New(opts), deadlines: map[core.TaskletID]Timer{}}
	}
	return c
}

// Close turns every later timer callback into a no-op.
func (c *Core) Close() { c.closed.Store(true) }

// ---------- providers ----------

// Provider is the core's record of one provider. Create with NewProvider.
type Provider struct {
	info core.ProviderInfo // under c.mu, the ID excepted: it never changes
	link Link

	// free/backlog/finished are settled by result bursts under a partition
	// lock while the pass reads them under c.mu. free is Slots minus the
	// outstanding attempts: negative while attempts queue behind the slots.
	free, backlog, finished atomic.Int64
	assigned                int // under c.mu
	// execMean is a weighted mean of p's result execution times, starting
	// at wire.TinyExecNanos: no queued credit before results show tiny ones.
	execMean atomic.Int64
	queue    int // queued places beyond Slots (wire.Register.Queue); under c.mu

	gone  atomic.Bool
	dirty atomic.Bool // listed for the next pass's index resync

	staged *wire.AssignBatch // this pass's assignments; under c.mu
}

// NewProvider builds the record of a provider reached through link; info
// carries its ID and what the driver knows at connect time.
func NewProvider(info core.ProviderInfo, link Link) *Provider {
	p := &Provider{info: info, link: link}
	p.info.Reliability = 1
	p.execMean.Store(wire.TinyExecNanos)
	return p
}

func (p *Provider) ID() core.ProviderID     { return p.info.ID }
func (p *Provider) Free() int               { return int(p.free.Load()) }    // may be negative
func (p *Provider) Backlog() int            { return int(p.backlog.Load()) } // attempts outstanding
func (p *Provider) Finished() int64         { return p.finished.Load() }     // attempts that returned a result
func (p *Provider) ExecMean() time.Duration { return time.Duration(p.execMean.Load()) }

// credits is how many more attempts placement may give p: its free slots,
// plus Slots × ⌊TinyExecNanos / execMean⌋ queued ones up to the queue p
// advertised — none once execMean reaches TinyExecNanos, deep only for
// attempts of a few µs, whose cost is the round trip rather than the run.
// Never negative, so the index counts only capacity that can take work.
// Callers hold c.mu.
func (p *Provider) credits() int {
	c := int(p.free.Load())
	if m := p.execMean.Load(); m < wire.TinyExecNanos && p.queue > 0 {
		c += min(p.queue, p.info.Slots*int(wire.TinyExecNanos/max(m, 1)))
	}
	return max(c, 0)
}

// noteExec folds one result's execution time into p.execMean with weight
// 1/8: one long result shrinks the queued credits at once, and it takes a
// run of tiny ones to deepen them again. Rejected and cancelled results,
// which ran for part of their time or none, are not folded in.
func (p *Provider) noteExec(d time.Duration) {
	m := p.execMean.Load()
	p.execMean.Store(m + (int64(d)-m)/8)
}

// updateReliabilityLocked refreshes the completion-ratio estimate. Callers
// hold c.mu.
func (p *Provider) updateReliabilityLocked() {
	if p.assigned > 0 {
		p.info.Reliability = min(float64(p.finished.Load())/float64(p.assigned), 1)
	}
}

// Register opens p to placement with the capacity its register frame
// states, every slot free. A provider RemoveProvider removed comes back with
// its history (the simulator's recovered devices).
func (c *Core) Register(p *Provider, m *wire.Register) {
	c.mu.Lock()
	p.info.Slots = m.Slots
	p.info.Class = m.Class
	p.info.Speed = m.Speed
	p.queue = m.Queue
	p.free.Store(int64(m.Slots))
	p.backlog.Store(0)
	p.gone.Store(false)
	c.pmu.Lock()
	c.providers[p.info.ID] = p
	c.pmu.Unlock()
	c.index.Upsert(&p.info, p.credits(), 0)
	c.mu.Unlock()
	c.drv.Schedule()
}

// RemoveProvider declares p dead: it leaves placement, and every attempt it
// held is fed to its engine as lost, oldest first. It returns the lost
// attempts whose outcome still mattered; a second call returns nil. Once a
// call returns, the core never calls p's link again.
func (c *Core) RemoveProvider(p *Provider) []core.AttemptID {
	c.mu.Lock()
	if p.gone.Swap(true) {
		c.mu.Unlock()
		return nil
	}
	c.pmu.Lock()
	delete(c.providers, p.info.ID)
	c.pmu.Unlock()
	c.index.Remove(p.info.ID)
	c.mu.Unlock()

	var lost []core.AttemptID
	var out []lifecycle.Effect
	for _, part := range c.parts {
		part.mu.Lock()
		ids, fx := part.life.ProviderLost(p.info.ID)
		lost = append(lost, ids...)
		out, _ = c.applyPartFxLocked(part, fx, out)
		part.mu.Unlock()
	}
	c.mAttemptsLost.Add(int64(len(lost)))
	c.applyOutFx(out)
	c.drv.Schedule()
	return lost
}

// Info returns p's registration as placement sees it.
func (c *Core) Info(p *Provider) core.ProviderInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	return p.info
}

// Credits returns how many more attempts placement may give p.
func (c *Core) Credits(p *Provider) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return p.credits()
}

// FreeCredits returns the placement index's total credits across the fleet:
// idle slots plus open queued places.
func (c *Core) FreeCredits() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.index.FreeSlots()
}

// ---------- placement ----------

// Pass is one placement pass. It folds partition-side slot settlements into
// the index, then drains the partition queues in order — partition 0 first,
// every pass — dropping entries whose tasklet is gone and keeping those no
// provider can take. It ends by shipping each provider's staged batch
// through its link.
func (c *Core) Pass() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.syncDirtyProvidersLocked()
	c.mPendingDep.Set(c.pendingN.Load())
	if c.pendingN.Load() == 0 || len(c.providers) == 0 {
		return
	}
	start := time.Now()
	placed := 0
	for _, part := range c.parts {
		part.mu.Lock()
		placed += c.drainPartitionLocked(part)
		part.mu.Unlock()
	}
	// Counted before the flush: a result of this pass's assigns can reach
	// its consumer before the pass returns.
	if placed > 0 {
		c.mPlaced.Add(int64(placed))
		c.mLaunched.Add(int64(placed)) // one counter update per pass, not per attempt
	}
	c.mPendingDep.Set(c.pendingN.Load())
	for _, p := range c.stagedScratch {
		ab := p.staged
		p.staged = nil
		p.link.Assign(ab)
	}
	c.stagedScratch = c.stagedScratch[:0]
	c.mSchedPassNS.Observe(float64(time.Since(start)))
}

// drainPartitionLocked walks one partition's queue through the placement
// index. Callers hold c.mu and part.mu.
func (c *Core) drainPartitionLocked(part *partition) int {
	if len(part.pending) == 0 {
		return 0
	}
	placed := 0
	before := len(part.pending)
	remaining := part.pending[:0]
	for idx, tid := range part.pending {
		// Without free capacity nothing below can place; keep the rest of
		// the queue as-is instead of walking it (the queue can hold many
		// thousands of entries and a pass runs on every result burst).
		if c.index.FreeSlots() <= 0 {
			remaining = append(remaining, part.pending[idx:]...)
			break
		}
		t := part.life.Tasklet(tid)
		if t == nil {
			continue
		}
		c.exclScratch = part.life.AppendActiveProviders(tid, c.exclScratch[:0])
		pid, ok := c.index.Pick(t, c.exclScratch)
		if !ok {
			remaining = append(remaining, tid)
			continue
		}
		p := c.providers[pid]
		if p == nil || p.credits() <= 0 {
			remaining = append(remaining, tid)
			continue
		}
		if c.launchAttemptLocked(part, t, p) {
			placed++
		}
	}
	part.pending = remaining
	c.pendingN.Add(int64(len(remaining) - before))
	return placed
}

// launchAttemptLocked creates one attempt and stages it into the provider's
// batch for this pass. Callers hold c.mu and part.mu.
func (c *Core) launchAttemptLocked(part *partition, t *core.Tasklet, p *Provider) bool {
	aid, ok := part.life.Launched(t.ID, p.info.ID)
	if !ok {
		return false // defensive: the caller saw t live under the same lock
	}
	p.free.Add(-1)
	p.backlog.Add(1)
	p.assigned++
	p.updateReliabilityLocked()
	c.index.Assign(p.info.ID) // after the reliability update so rank refreshes

	if p.staged == nil {
		p.staged = &wire.AssignBatch{}
		c.stagedScratch = append(c.stagedScratch, p)
	}
	if !batchHasProgram(p.staged, t.Program) {
		// Every batch carries the bytes of every program its entries use,
		// once each, so the provider needs nothing from an earlier one.
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

// markProviderDirty queues p for an index resync at the next pass start.
// The CAS collapses a burst of results into one dirty-list entry.
func (c *Core) markProviderDirty(p *Provider) {
	if p.dirty.CompareAndSwap(false, true) {
		c.dirtyMu.Lock()
		c.dirtyProv = append(c.dirtyProv, p)
		c.dirtyMu.Unlock()
	}
}

// syncDirtyProvidersLocked refreshes each dirty provider's reliability and
// upserts its absolute capacity into the index. Callers hold c.mu.
func (c *Core) syncDirtyProvidersLocked() {
	c.dirtyMu.Lock()
	dirty := c.dirtyProv
	c.dirtyProv = c.dirtySpare[:0]
	c.dirtySpare = dirty
	c.dirtyMu.Unlock()
	for _, p := range dirty {
		p.dirty.Store(false)
		if p.gone.Load() {
			continue
		}
		p.updateReliabilityLocked()
		c.index.Upsert(&p.info, p.credits(), int(p.backlog.Load()))
	}
}
