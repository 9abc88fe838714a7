package broker

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/memo"
	"repro/internal/wire"
)

// This file implements the partitioned broker core. Per-tasklet state is
// split into P lock-striped partitions, the stripe encoded in the tasklet
// ID (submitEvent): each partition owns a lifecycle.Engine, its own mutex,
// its slice of the placement queue, and the runtime timers of its QoC
// deadlines. A provider's reader goroutine buckets each decoded burst of
// results by partition and applies every bucket as one bulk Engine.Apply
// under that partition's mutex; deadline and backoff timers
// (time.AfterFunc) take the same mutex when they fire. The scheduler
// goroutine keeps exclusive ownership of scheduler.Index and drains
// partition queues in index order under b.mu, so placement stays
// single-writer while lifecycle execution, QoC fan-in, memo lookups and
// effect emission run on all cores.
//
// Lock order (outer → inner): b.mu → part.mu → dirtyMu.
// jobMu, exMu, progMu and pmu are taken with no partition lock held; a
// partition-lock holder never takes any of them — effects that need them
// (CancelAttempt, Deliver) are copied out under part.mu and applied after
// release. exMu → part.mu is allowed (migrate-request scan); the reverse
// never happens.

// partition is one lock stripe of the broker's per-tasklet state.
type partition struct {
	idx int

	mu sync.Mutex
	// life is this partition's slice of the shared lifecycle semantics: it
	// owns the tasklet/attempt records whose IDs hash here. Attempt IDs are
	// striped (offset idx, stride P) so they stay globally unique.
	life *lifecycle.Engine
	// pending is this partition's slice of the placement queue, FIFO.
	pending []core.TaskletID
	// deadlines holds the armed QoC deadline timer of each live tasklet
	// here that has one; it is stopped and forgotten when the tasklet is
	// delivered or cancelled.
	deadlines map[core.TaskletID]*time.Timer
}

// mix64 is the splitmix64 finalizer; it spreads sequence numbers and content
// hashes uniformly across partitions.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// part returns the partition owning tid; submitEvent encoded it in the ID.
func (b *Broker) part(tid core.TaskletID) *partition {
	return b.parts[uint64(tid)%uint64(len(b.parts))]
}

// submitEvent builds the Submit event for t, the seq-th tasklet this broker
// has admitted, and names its partition. The partition is chosen before the
// ID and encoded in it — tid = seq·P + pi, the way attempt IDs are striped —
// so part() recovers it with one modulo. A memo-keyed tasklet goes where its
// content key hashes, so identical content meets in one flight table however
// many stripes there are; an unkeyed one goes where mix64(seq) falls, which
// spreads sequential submissions uniformly. With P = 1 the ID is seq itself.
func (b *Broker) submitEvent(t core.Tasklet, seq uint64) (lifecycle.Event, int) {
	ev := lifecycle.Event{Kind: lifecycle.EventSubmit}
	h := seq
	if b.memoOn && !t.QoC.NoCache {
		if ev.Key, ev.HaveKey = memo.KeyFor(uint64(t.Program), t.Seed, t.Params); ev.HaveKey {
			h = ev.Key.Hash()
		}
	}
	p := uint64(len(b.parts))
	pi := mix64(h) % p
	t.ID = core.TaskletID(seq*p + pi)
	ev.Tasklet = t
	return ev, int(pi)
}

// resultScratch is one provider reader's routing state, reused across
// frames: decoded results bucketed by partition, and the effects copied out
// of a partition for applyOutFx. Only that reader goroutine touches it.
type resultScratch struct {
	byPart [][]lifecycle.Event
	out    []lifecycle.Effect
}

// addResult buckets one result reported by p under its tasklet's partition.
func (b *Broker) addResult(rs *resultScratch, p *providerState, m *wire.AttemptResult) {
	pi := b.part(m.Tasklet).idx
	rs.byPart[pi] = append(rs.byPart[pi], lifecycle.Event{
		Kind: lifecycle.EventResult,
		Result: core.Result{
			Tasklet:   m.Tasklet,
			Attempt:   m.Attempt,
			Provider:  p.info.ID,
			Status:    m.Status,
			Return:    m.Return,
			Emitted:   m.Emitted,
			FaultCode: m.FaultCode,
			FaultMsg:  m.FaultMsg,
			FuelUsed:  m.FuelUsed,
			Exec:      time.Duration(m.ExecNanos),
		},
	})
}

// applyResults applies each non-empty bucket of rs as one bulk Engine.Apply
// under its partition's lock, settles p's slot accounting for every result
// that consumed an attempt, and wakes the scheduler once for the burst.
// Out-of-partition effects are applied after part.mu is released. Callers
// hold no locks.
func (b *Broker) applyResults(p *providerState, rs *resultScratch) {
	wake := false
	for pi, evs := range rs.byPart {
		if len(evs) == 0 {
			continue
		}
		part := b.parts[pi]
		part.mu.Lock()
		fx := part.life.Apply(evs)
		for k := range evs {
			disp := evs[k].Disp
			if disp == lifecycle.ResultStale {
				continue // unknown attempt or wrong provider; no slot was consumed
			}
			r := &evs[k].Result
			if r.Status != core.StatusRejected {
				p.noteExec(r.Exec) // before the dirty mark, so the resync sees it
			}
			p.free.Add(1)
			p.backlog.Add(-1)
			p.finished.Add(1)
			b.markProviderDirty(p)
			wake = true
			if disp != lifecycle.ResultConsumed {
				continue
			}
			switch r.Status {
			case core.StatusOK:
				b.mAttemptsOK.Inc()
			case core.StatusFault:
				b.mAttemptsFlt.Inc()
			default:
				b.mAttemptsOth.Inc()
			}
			b.mExecMS.Observe(float64(r.Exec) / 1e6)
		}
		var launched bool
		rs.out, launched = b.applyPartFxLocked(part, fx, rs.out[:0])
		part.mu.Unlock()
		b.applyOutFx(rs.out)
		wake = wake || launched
		rs.byPart[pi] = evs[:0]
	}
	if wake {
		b.schedule()
	}
}

// expireDeadline is a deadline timer's callback: it finalizes tid as a
// deadline fault if the tasklet is still live. A timer that lost the race
// with delivery or cancellation finds the tasklet gone and does nothing.
func (b *Broker) expireDeadline(part *partition, tid core.TaskletID) {
	if b.closed.Load() {
		return
	}
	part.mu.Lock()
	expired, fx := part.life.Deadline(tid)
	var out []lifecycle.Effect
	if expired {
		b.mDeadlineExp.Inc()
		out, _ = b.applyPartFxLocked(part, fx, nil)
	}
	part.mu.Unlock()
	if expired {
		b.applyOutFx(out)
		// A deadlined leader's dissolved flight re-queues its waiters.
		b.schedule()
	}
}

// launchReady is a backoff timer's callback: the delayed re-issue of tid
// becomes eligible for placement if the tasklet is still live.
func (b *Broker) launchReady(part *partition, tid core.TaskletID) {
	if b.closed.Load() {
		return
	}
	part.mu.Lock()
	live := part.life.Live(tid)
	if live {
		b.appendPendingLocked(part, tid)
	}
	part.mu.Unlock()
	if live {
		b.schedule()
	}
}

// stopDeadlineLocked disarms and forgets tid's deadline timer, if any.
// Callers hold part.mu.
func (part *partition) stopDeadlineLocked(tid core.TaskletID) {
	if tm, ok := part.deadlines[tid]; ok {
		tm.Stop()
		delete(part.deadlines, tid)
	}
}

// appendPendingLocked queues tid for placement. Callers hold part.mu.
func (b *Broker) appendPendingLocked(part *partition, tid core.TaskletID) {
	part.pending = append(part.pending, tid)
	b.pendingN.Add(1)
}

// applyPartFxLocked executes the partition-local half of an effect slice —
// pending-queue appends and timer arming — and copies the effects that need
// broker-wide state (CancelAttempt, Deliver) into out for applyOutFx.
// Callers hold part.mu; launched reports whether placement work was queued.
func (b *Broker) applyPartFxLocked(part *partition, fx []lifecycle.Effect, out []lifecycle.Effect) ([]lifecycle.Effect, bool) {
	launched := false
	for i := range fx {
		ef := &fx[i]
		switch ef.Kind {
		case lifecycle.EffectLaunch:
			if ef.Delay > 0 {
				// Backoff re-issue: queued once the delay has passed. Not
				// cancellable; launchReady re-checks liveness.
				tid := ef.Tasklet
				time.AfterFunc(ef.Delay, func() { b.launchReady(part, tid) })
			} else {
				b.appendPendingLocked(part, ef.Tasklet)
				launched = true
			}
		case lifecycle.EffectSetDeadline:
			tid := ef.Tasklet
			part.deadlines[tid] = time.AfterFunc(ef.Delay, func() { b.expireDeadline(part, tid) })
		case lifecycle.EffectCancelAttempt:
			out = append(out, *ef)
		case lifecycle.EffectDeliver:
			// The tasklet is finalized; disarm its deadline while we still
			// hold its partition.
			part.stopDeadlineLocked(ef.Tasklet)
			out = append(out, *ef)
		case lifecycle.EffectMemoStore, lifecycle.EffectCoalesced:
			// Informational; the memo package maintains its own counters.
		}
	}
	return out, launched
}

// applyOutFx executes effects copied out of a partition: attempt cancels
// (provider lookup under pmu) and final delivery. Callers must hold no
// locks.
func (b *Broker) applyOutFx(out []lifecycle.Effect) {
	for i := range out {
		ef := &out[i]
		switch ef.Kind {
		case lifecycle.EffectCancelAttempt:
			b.pmu.RLock()
			if p := b.providers[ef.Provider]; p != nil {
				b.enqueue(p.out, &wire.CancelAttempt{Attempt: ef.Attempt}, p.nc, &p.dropWarned, p.label)
			}
			b.pmu.RUnlock()
		case lifecycle.EffectDeliver:
			b.deliver(ef)
		}
	}
}

// feedPartition applies a batch of lifecycle events (submissions, adopted
// migrations) to one partition and fully executes the effects. Callers must
// hold no locks and call b.schedule() afterwards.
func (b *Broker) feedPartition(part *partition, evs []lifecycle.Event) {
	if len(evs) == 0 {
		return
	}
	part.mu.Lock()
	fx := part.life.Apply(evs)
	out, _ := b.applyPartFxLocked(part, fx, nil)
	part.mu.Unlock()
	b.applyOutFx(out)
}

// cancelOne cancels tid in its partition, reporting whether a live tasklet
// was dropped. Promoted-waiter launches and attempt cancels are fully
// applied. Callers must hold no locks and call b.schedule() afterwards.
func (b *Broker) cancelOne(tid core.TaskletID) bool {
	part := b.part(tid)
	part.mu.Lock()
	dropped, fx := part.life.Cancel(tid)
	var out []lifecycle.Effect
	if dropped {
		part.stopDeadlineLocked(tid)
		out, _ = b.applyPartFxLocked(part, fx, nil)
	}
	part.mu.Unlock()
	b.applyOutFx(out)
	return dropped
}

// purgePartitionLocked removes queue entries whose tasklet no longer
// exists. Callers hold part.mu.
func (b *Broker) purgePartitionLocked(part *partition) {
	live := part.pending[:0]
	for _, tid := range part.pending {
		if part.life.Live(tid) {
			live = append(live, tid)
		}
	}
	b.pendingN.Add(int64(len(live) - len(part.pending)))
	part.pending = live
}

// purgePending purges every partition's queue.
func (b *Broker) purgePending() {
	for _, part := range b.parts {
		part.mu.Lock()
		b.purgePartitionLocked(part)
		part.mu.Unlock()
	}
}

// markProviderDirty queues p for an index resync at the next pass start.
// The CAS collapses a burst of results into one dirty-list entry.
func (b *Broker) markProviderDirty(p *providerState) {
	if p.dirty.CompareAndSwap(false, true) {
		b.dirtyMu.Lock()
		b.dirtyProv = append(b.dirtyProv, p)
		b.dirtyMu.Unlock()
	}
}

// syncDirtyProvidersLocked folds partition-side slot settlements into the
// scheduler's view: reliability refresh plus one absolute index Upsert per
// dirty provider. Runs at the start of every placement pass under b.mu —
// the index has a single writer, the scheduler.
func (b *Broker) syncDirtyProvidersLocked() {
	b.dirtyMu.Lock()
	dirty := b.dirtyProv
	b.dirtyProv = b.dirtySpare[:0]
	b.dirtySpare = dirty
	b.dirtyMu.Unlock()
	for _, p := range dirty {
		p.dirty.Store(false)
		if p.gone.Load() {
			continue
		}
		b.updateReliabilityLocked(p)
		b.index.Upsert(&p.info, p.credits(), int(p.backlog.Load()))
	}
}

// deliver pushes a final result to the consumer and updates job accounting.
// Callers must hold no locks; the tasklet's deadline is already disarmed
// (applyPartFxLocked does it under the partition lock).
func (b *Broker) deliver(ef *lifecycle.Effect) {
	b.finalizedN.Add(1)
	if b.opts.ShardID != 0 {
		b.exMu.Lock()
		if rec, ok := b.adopted[ef.Tasklet]; ok {
			// An adopted tasklet's final goes home as a MigrateResult: the
			// origin shard owns the consumer connection and the job
			// accounting.
			delete(b.adopted, ef.Tasklet)
			b.returnAdoptedExLocked(rec, ef)
			b.exMu.Unlock()
			return
		}
		b.exMu.Unlock()
	}
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
