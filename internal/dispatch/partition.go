package dispatch

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/memo"
	"repro/internal/tvm"
	"repro/internal/wire"
)

// partition is one lock stripe of the per-tasklet state; the stripe is
// encoded in the tasklet ID (SubmitEvent). Its engine owns the tasklet and
// attempt records whose IDs hash here (attempt IDs are striped, offset idx
// and stride P, so they stay unique). Timers take its mutex when they fire.
type partition struct {
	idx       int
	mu        sync.Mutex
	life      *lifecycle.Engine
	pending   []core.TaskletID         // this stripe's placement queue, FIFO
	deadlines map[core.TaskletID]Timer // armed QoC deadlines, forgotten at delivery or cancel
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

// part returns the partition owning tid; SubmitEvent encoded it in the ID.
func (c *Core) part(tid core.TaskletID) *partition {
	return c.parts[uint64(tid)%uint64(len(c.parts))]
}

// Partitions returns the stripe count.
func (c *Core) Partitions() int { return len(c.parts) }

// SubmitEvent builds the Submit event for t, the seq-th tasklet the driver
// has admitted (key is its memo content key when haveKey is set), and names
// its partition, encoded in the ID as tid = seq·P + pi. A keyed tasklet goes
// where its key hashes, so identical content meets in one flight table; an
// unkeyed one where mix64(seq) falls. With P = 1 the ID is seq itself.
func (c *Core) SubmitEvent(t core.Tasklet, seq uint64, key memo.Key, haveKey bool) (lifecycle.Event, int) {
	h := seq
	if haveKey {
		h = key.Hash()
	}
	p := uint64(len(c.parts))
	pi := mix64(h) % p
	t.ID = core.TaskletID(seq*p + pi)
	return lifecycle.Event{Kind: lifecycle.EventSubmit, Tasklet: t, Key: key, HaveKey: haveKey}, int(pi)
}

// Feed applies submissions grouped by the partition SubmitEvent named, one
// bulk Engine.Apply per partition, and asks for one placement pass. Callers
// hold no core lock.
func (c *Core) Feed(groups [][]lifecycle.Event) {
	for pi, evs := range groups {
		if len(evs) == 0 {
			continue
		}
		part := c.parts[pi]
		part.mu.Lock()
		fx := part.life.Apply(evs)
		out, _ := c.applyPartFxLocked(part, fx, nil)
		part.mu.Unlock()
		c.applyOutFx(out)
	}
	c.drv.Schedule()
}

// Results is one provider's result scratch, reused across bursts: results
// bucketed by partition, and the effects copied out of a partition. One
// goroutine at a time may use it (a live provider's reader).
type Results struct {
	c      *Core
	p      *Provider
	byPart [][]lifecycle.Event
	out    []lifecycle.Effect
}

// NewResults returns the result scratch of provider p.
func (c *Core) NewResults(p *Provider) *Results {
	return &Results{c: c, p: p, byPart: make([][]lifecycle.Event, len(c.parts))}
}

// Add buckets one result the provider reported under its tasklet's
// partition.
func (rs *Results) Add(m *wire.AttemptResult) {
	pi := rs.c.part(m.Tasklet).idx
	rs.byPart[pi] = append(rs.byPart[pi], lifecycle.Event{
		Kind: lifecycle.EventResult,
		Result: core.Result{
			Tasklet:   m.Tasklet,
			Attempt:   m.Attempt,
			Provider:  rs.p.info.ID,
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

// Apply applies each bucket as one bulk Engine.Apply under its partition's
// lock, settles the provider's slots for every result that held one, and
// asks for one placement pass for the burst. Callers hold no core lock.
func (rs *Results) Apply() {
	c, p := rs.c, rs.p
	wake := false
	for pi, evs := range rs.byPart {
		if len(evs) == 0 {
			continue
		}
		part := c.parts[pi]
		part.mu.Lock()
		fx := part.life.Apply(evs)
		for k := range evs {
			disp := evs[k].Disp
			if disp == lifecycle.ResultStale {
				continue // unknown attempt or wrong provider; no slot was consumed
			}
			r := &evs[k].Result
			if r.Status != core.StatusRejected && r.FaultCode != tvm.FaultCancelled {
				p.noteExec(r.Exec) // before the dirty mark, so the resync sees it
			}
			p.free.Add(1)
			p.backlog.Add(-1)
			p.finished.Add(1)
			c.markProviderDirty(p)
			wake = true
			if disp != lifecycle.ResultConsumed {
				c.mAttemptsWst.Inc()
				continue
			}
			switch r.Status {
			case core.StatusOK:
				c.mAttemptsOK.Inc()
			case core.StatusFault:
				c.mAttemptsFlt.Inc()
			default:
				c.mAttemptsOth.Inc()
			}
			c.mExecMS.Observe(float64(r.Exec) / 1e6)
		}
		var launched bool
		rs.out, launched = c.applyPartFxLocked(part, fx, rs.out[:0])
		part.mu.Unlock()
		c.applyOutFx(rs.out)
		wake = wake || launched
		rs.byPart[pi] = evs[:0]
	}
	if wake {
		c.drv.Schedule()
	}
}

// expireDeadline is a deadline timer's callback: it finalizes tid as a
// deadline fault if the tasklet is still live.
func (c *Core) expireDeadline(part *partition, tid core.TaskletID) {
	if c.closed.Load() {
		return
	}
	part.mu.Lock()
	expired, fx := part.life.Deadline(tid)
	var out []lifecycle.Effect
	if expired {
		c.mDeadlineExp.Inc()
		out, _ = c.applyPartFxLocked(part, fx, nil)
	}
	part.mu.Unlock()
	if expired {
		c.applyOutFx(out)
		// A deadlined leader's dissolved flight re-queues its waiters.
		c.drv.Schedule()
	}
}

// launchReady is a backoff timer's callback: the delayed re-issue of tid
// becomes eligible for placement if the tasklet is still live.
func (c *Core) launchReady(part *partition, tid core.TaskletID) {
	if c.closed.Load() {
		return
	}
	part.mu.Lock()
	live := part.life.Live(tid)
	if live {
		c.appendPendingLocked(part, tid)
	}
	part.mu.Unlock()
	if live {
		c.drv.Schedule()
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
func (c *Core) appendPendingLocked(part *partition, tid core.TaskletID) {
	part.pending = append(part.pending, tid)
	c.pendingN.Add(1)
}

// applyPartFxLocked executes the partition-local half of an effect slice —
// queue appends and timers — and copies cancels and deliveries into out for
// applyOutFx. Callers hold part.mu; launched reports queued placement work.
func (c *Core) applyPartFxLocked(part *partition, fx []lifecycle.Effect, out []lifecycle.Effect) ([]lifecycle.Effect, bool) {
	launched := false
	for i := range fx {
		ef := &fx[i]
		switch ef.Kind {
		case lifecycle.EffectLaunch:
			if ef.Delay > 0 {
				// Backoff re-issue: queued once the delay has passed. Not
				// cancellable; launchReady re-checks liveness.
				tid := ef.Tasklet
				c.drv.AfterFunc(ef.Delay, func() { c.launchReady(part, tid) })
			} else {
				c.appendPendingLocked(part, ef.Tasklet)
				launched = true
			}
		case lifecycle.EffectSetDeadline:
			tid := ef.Tasklet
			part.deadlines[tid] = c.drv.AfterFunc(ef.Delay, func() { c.expireDeadline(part, tid) })
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

// applyOutFx executes the cancels and deliveries copied out of a
// partition. Callers hold no core lock.
func (c *Core) applyOutFx(out []lifecycle.Effect) {
	for i := range out {
		ef := &out[i]
		switch ef.Kind {
		case lifecycle.EffectCancelAttempt:
			c.pmu.RLock()
			if p := c.providers[ef.Provider]; p != nil {
				p.link.Cancel(ef.Attempt)
			}
			c.pmu.RUnlock()
		case lifecycle.EffectDeliver:
			c.drv.Deliver(ef)
		}
	}
}

// Cancel abandons tids without delivering their finals (job cancelled,
// consumer gone): in-flight attempts are cancelled, a led flight passes to
// its first waiter, and the placement queues forget the dropped tasklets.
// It returns how many live tasklets were dropped.
func (c *Core) Cancel(tids []core.TaskletID) int {
	dropped := 0
	var out []lifecycle.Effect
	for _, tid := range tids {
		part := c.part(tid)
		part.mu.Lock()
		ok, fx := part.life.Cancel(tid)
		if ok {
			dropped++
			part.stopDeadlineLocked(tid)
			out, _ = c.applyPartFxLocked(part, fx, out[:0])
		}
		part.mu.Unlock()
		c.applyOutFx(out)
		out = out[:0]
	}
	for _, part := range c.parts {
		part.mu.Lock()
		live := part.pending[:0]
		for _, tid := range part.pending {
			if part.life.Live(tid) {
				live = append(live, tid)
			}
		}
		c.pendingN.Add(int64(len(live) - len(part.pending)))
		part.pending = live
		part.mu.Unlock()
	}
	c.drv.Schedule() // a dropped leader may have promoted a waiter
	return dropped
}

// ---------- accessors ----------

// Pending returns the placement-queue depth across partitions.
func (c *Core) Pending() int { return int(c.pendingN.Load()) }

// sum adds f over the partitions, each under its lock.
func (c *Core) sum(f func(part *partition) int) int {
	n := 0
	for _, part := range c.parts {
		part.mu.Lock()
		n += f(part)
		part.mu.Unlock()
	}
	return n
}

// InFlight returns the attempt records, abandoned ones not yet answered
// included.
func (c *Core) InFlight() int { return c.sum(func(p *partition) int { return p.life.InFlight() }) }

// Live returns the tasklets still pending a final.
func (c *Core) Live() int { return c.sum(func(p *partition) int { return p.life.Pending() }) }

// ArmedDeadlines returns the deadline timers still armed.
func (c *Core) ArmedDeadlines() int { return c.sum(func(p *partition) int { return len(p.deadlines) }) }

// LiveAttemptsOn returns the attempts on pid whose outcome still matters to
// a pending tasklet: the ones a loss of pid would report lost.
func (c *Core) LiveAttemptsOn(pid core.ProviderID) int {
	return c.sum(func(part *partition) int {
		n := 0
		part.life.VisitAttempts(func(_ core.AttemptID, tid core.TaskletID, p core.ProviderID, abandoned bool) {
			if p == pid && !abandoned && part.life.Live(tid) {
				n++
			}
		})
		return n
	})
}
