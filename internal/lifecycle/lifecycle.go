// Package lifecycle implements the transport-agnostic tasklet lifecycle
// engine: the single deterministic state machine that owns the path
// submission → memo lookup → flight coalescing → QoC attempt fan-out →
// attempt result/lost handling → decision application → deadline expiry →
// finalization → memo store.
//
// The engine is pure event-in/effects-out: callers feed events (Apply's
// submissions and results, ProviderLost, Deadline, Cancel, Launched) and
// execute the returned Effects (queue a placement, cancel an attempt,
// deliver a final, arm a deadline timer). It holds no clock, no RNG, no
// sockets and no goroutines: the scheduler core (internal/dispatch) drives
// it, under a partition lock, for both the live broker and the simulator.
//
// On top of the QoC tracker's per-tasklet retry budget the engine enforces
// an optional global per-tasklet attempt cap (Options.MaxAttempts) with
// exponential re-issue backoff (Options.RetryBackoff); a tasklet that
// exhausts its cap with nothing left in flight finalizes as StatusLost.
package lifecycle

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/qoc"
	"repro/internal/tvm"
)

// Options parameterizes an Engine.
type Options struct {
	// Memo is the content-addressed result cache consulted at submission and
	// written on cacheable finals. Nil disables memoization (and, together
	// with a nil Flights, coalescing). The caller owns the cache — it injects
	// the clock (wall or virtual) and the metrics registry.
	Memo *memo.Cache
	// Flights coalesces identical in-flight tasklets. Nil disables
	// coalescing. All FlightTable methods are nil-safe.
	Flights *memo.FlightTable

	// MaxAttempts caps the total attempts (launched + asked for) a single
	// tasklet may consume across re-issues; 0 or negative means unlimited
	// (the legacy behavior, bounded only by the QoC retry budget). A tasklet
	// whose re-issue is swallowed by the cap with nothing outstanding
	// finalizes as StatusLost ("attempt cap exhausted").
	MaxAttempts int
	// RetryBackoff delays lost-attempt re-issues: the n-th re-issue of a
	// tasklet waits RetryBackoff << min(n-1, 6). Zero re-issues immediately
	// (the legacy behavior). The initial QoC fan-out and promoted flight
	// waiters are never delayed.
	RetryBackoff time.Duration

	// AttemptOffset and AttemptStride partition the attempt-ID space for
	// drivers that run several engines side by side (the partitioned
	// broker): engine i of P passes Offset=i, Stride=P and allocates IDs
	// i+P, i+2P, ... — disjoint across engines, never zero. The zero values
	// select the legacy single-engine sequence 1, 2, 3, ...
	AttemptOffset uint64
	AttemptStride uint64
}

// Disposition classifies what Apply did with an attempt outcome.
type Disposition uint8

const (
	// ResultStale means the attempt is unknown or reported by the wrong
	// provider (duplicate or forged report): the driver must not touch its
	// slot accounting.
	ResultStale Disposition = iota
	// ResultWasted means the attempt was real but its outcome no longer
	// matters (abandoned by a cancellation, or its tasklet already
	// finalized): free the slot, count it wasted, expect no effects.
	ResultWasted
	// ResultConsumed means the outcome fed the tasklet's QoC tracker; the
	// accompanying effects reflect the resulting decision.
	ResultConsumed
)

// flightRole is a tasklet's position in its coalescing flight, if any.
type flightRole uint8

const (
	flightNone   flightRole = iota // not coalesced (memo off, NoCache, unique)
	flightLeader                   // drives the real attempt fan-out
	flightWaiter                   // receives a copy of the leader's final
)

// taskletState is the engine's per-tasklet record. States are pooled: a
// finalized tasklet's record is reset and reused by a later submission, so
// the steady-state submit→launch→result cycle allocates nothing.
type taskletState struct {
	t       core.Tasklet
	tracker qoc.Tracker
	coKey   memo.FlightKey
	role    flightRole
	// reissues counts post-fan-out launches, driving the backoff schedule.
	reissues int
}

// attemptEntry is the engine's per-attempt record (value type: the attempt
// map never allocates per entry).
type attemptEntry struct {
	tasklet   core.TaskletID
	provider  core.ProviderID
	abandoned bool // result will be ignored; slot freed when it arrives
}

// Engine is the lifecycle state machine. It is not safe for concurrent use;
// the broker serializes calls under its mutex, the simulator is single
// -threaded by construction.
type Engine struct {
	opts Options

	tasklets map[core.TaskletID]*taskletState
	attempts map[core.AttemptID]attemptEntry

	// nextAttempt allocates attempt IDs in launch order, advancing by
	// strideAttempt each launch. With the default offset 0 / stride 1 this
	// is the same single counter the broker and simulator used before the
	// extraction, so attempt IDs are bit-identical to the legacy
	// implementations.
	nextAttempt   core.AttemptID
	strideAttempt core.AttemptID

	// fx is the effect scratch returned by event methods; valid until the
	// next call.
	fx []Effect
	// freeStates pools finalized taskletState records for reuse, at most
	// statePoolCap of them.
	freeStates []*taskletState
	// lostScratch stages ProviderLost's doomed attempt IDs (feeding a loss
	// can cancel other attempts, so collection and mutation are split).
	lostScratch []core.AttemptID
}

// New builds an engine.
func New(opts Options) *Engine {
	stride := core.AttemptID(opts.AttemptStride)
	if stride == 0 {
		stride = 1
	}
	return &Engine{
		opts:          opts,
		tasklets:      map[core.TaskletID]*taskletState{},
		attempts:      map[core.AttemptID]attemptEntry{},
		nextAttempt:   core.AttemptID(opts.AttemptOffset),
		strideAttempt: stride,
	}
}

// ---------- events ----------

// submit admits one tasklet (an EventSubmit). key is its memo content key
// when haveKey is true (the drivers compute it: program hash + seed + params
// for the broker, the synthetic content key for the simulator). It appends,
// in order: a Deliver for an immediate cache hit, or SetDeadline (when the
// QoC carries one) followed by either Coalesced (joined a flight as waiter)
// or the initial fan-out's Launch effects.
func (e *Engine) submit(t core.Tasklet, key memo.Key, haveKey bool) {
	ts := e.newState(t)
	e.tasklets[t.ID] = ts
	goal := ts.tracker.Goal()

	memoOn := (e.opts.Memo != nil || e.opts.Flights != nil) && haveKey && !goal.NoCache
	if memoOn {
		if ent := e.opts.Memo.Get(key, goal.VoteStrength(), t.Fuel); ent != nil {
			// Finalized identical work already cached: deliver without
			// touching a provider (Attempts = 0).
			ret, em := ent.CachedResult()
			e.deliver(ts, core.Result{
				Tasklet: t.ID, Job: t.Job, Index: t.Index,
				Status: core.StatusOK, Return: ret, Emitted: em,
				FuelUsed: ent.FuelUsed, Exec: ent.Exec,
			}, 0, true)
			return
		}
	}

	if goal.Deadline > 0 {
		e.emit(Effect{Kind: EffectSetDeadline, Tasklet: t.ID, Delay: goal.Deadline})
	}

	if memoOn {
		ts.coKey = memo.FlightKey{
			Content:  key,
			Mode:     uint8(goal.Mode),
			Replicas: goal.Replicas,
			Fuel:     t.Fuel,
		}
		if e.opts.Flights.Join(ts.coKey, uint64(t.ID)) {
			ts.role = flightLeader
		} else {
			// Coalesced behind an identical in-flight tasklet: no attempts
			// of its own; the leader's final fans out to it. The deadline
			// still applies independently.
			ts.role = flightWaiter
			e.emit(Effect{Kind: EffectCoalesced, Tasklet: t.ID})
			return
		}
	}

	e.applyDecision(ts, ts.tracker.Start())
}

// Launched records that the driver placed one attempt for tid on provider
// pid, and returns the allocated attempt ID. ok is false when the tasklet is
// no longer live (defensive; drivers check Live before placing).
func (e *Engine) Launched(tid core.TaskletID, pid core.ProviderID) (core.AttemptID, bool) {
	ts := e.tasklets[tid]
	if ts == nil {
		return 0, false
	}
	e.nextAttempt += e.strideAttempt
	aid := e.nextAttempt
	e.attempts[aid] = attemptEntry{tasklet: tid, provider: pid}
	ts.tracker.OnLaunched(aid, pid)
	return aid, true
}

// result feeds one attempt outcome (an EventResult). The disposition tells
// the driver how to account it (see Disposition); it appends effects only
// when the outcome is consumed.
func (e *Engine) result(res core.Result) Disposition {
	a, ok := e.attempts[res.Attempt]
	if !ok || a.provider != res.Provider {
		return ResultStale
	}
	delete(e.attempts, res.Attempt)
	if a.abandoned {
		return ResultWasted
	}
	ts := e.tasklets[a.tasklet]
	if ts == nil {
		return ResultWasted
	}
	e.applyDecision(ts, ts.tracker.OnResult(res))
	return ResultConsumed
}

// ProviderLost declares every attempt on pid lost and feeds the losses to
// their trackers oldest first (attempt ID order, not the map's), so the
// re-issues queue in launch order. It returns the attempts whose loss
// mattered (not abandoned, tasklet pending), valid until the next engine
// call, and the re-issue/finalization effects.
func (e *Engine) ProviderLost(pid core.ProviderID) ([]core.AttemptID, []Effect) {
	e.fx = e.fx[:0]
	e.lostScratch = e.lostScratch[:0]
	for aid, a := range e.attempts {
		if a.provider == pid {
			e.lostScratch = append(e.lostScratch, aid)
		}
	}
	slices.Sort(e.lostScratch)
	lost := e.lostScratch[:0] // compacted in place: entry k is read before it is written
	for _, aid := range e.lostScratch {
		// Re-read: feeding an earlier loss may have abandoned this attempt
		// (a tracker completing cancels its redundant siblings).
		a := e.attempts[aid]
		delete(e.attempts, aid)
		if a.abandoned {
			continue
		}
		ts := e.tasklets[a.tasklet]
		if ts == nil {
			continue
		}
		lost = append(lost, aid)
		e.applyDecision(ts, ts.tracker.OnResult(core.Result{
			Attempt: aid, Status: core.StatusLost, Provider: pid,
		}))
	}
	return lost, e.fx
}

// Deadline expires tid's wall-clock budget: outstanding attempts are
// abandoned (cancel effects) and the tasklet finalizes as a fault. expired
// is false when the tasklet already finished (stale timer).
func (e *Engine) Deadline(tid core.TaskletID) (expired bool, fx []Effect) {
	ts := e.tasklets[tid]
	if ts == nil {
		return false, nil
	}
	e.fx = e.fx[:0]
	e.abandonAttempts(tid)
	e.finalize(ts, core.Result{
		Tasklet: ts.t.ID, Job: ts.t.Job, Index: ts.t.Index,
		Status: core.StatusFault, FaultMsg: "deadline exceeded",
	}, ts.tracker.Attempts())
	return true, e.fx
}

// Cancel abandons tid without delivering a final (job cancelled, consumer
// disconnected): attempts are cancelled, a led flight is handed to its first
// waiter (which starts real scheduling — watch for Launch effects), a
// waiter's slot in its flight is vacated. dropped is false when the tasklet
// is already gone.
func (e *Engine) Cancel(tid core.TaskletID) (dropped bool, fx []Effect) {
	ts := e.tasklets[tid]
	if ts == nil {
		return false, nil
	}
	e.fx = e.fx[:0]
	e.abandonAttempts(tid)
	switch ts.role {
	case flightWaiter:
		e.opts.Flights.DropWaiter(ts.coKey, uint64(tid))
	case flightLeader:
		if nl, ok := e.opts.Flights.DropLeader(ts.coKey); ok {
			if nts := e.tasklets[core.TaskletID(nl)]; nts != nil {
				nts.role = flightLeader
				e.applyDecision(nts, nts.tracker.Start())
			}
		}
	}
	ts.role = flightNone
	delete(e.tasklets, tid)
	e.recycle(ts)
	return true, e.fx
}

// ---------- accessors ----------

// Live reports whether tid is still pending a final.
func (e *Engine) Live(tid core.TaskletID) bool {
	return e.tasklets[tid] != nil
}

// Tasklet returns the stored tasklet for placement (nil when finished). The
// pointer is valid until the tasklet finalizes; drivers use it transiently
// within one placement pick.
func (e *Engine) Tasklet(tid core.TaskletID) *core.Tasklet {
	ts := e.tasklets[tid]
	if ts == nil {
		return nil
	}
	return &ts.t
}

// AppendActiveProviders appends the providers currently running tid's
// attempts to buf (the placement exclusion list) and returns the extended
// slice.
func (e *Engine) AppendActiveProviders(tid core.TaskletID, buf []core.ProviderID) []core.ProviderID {
	ts := e.tasklets[tid]
	if ts == nil {
		return buf
	}
	return ts.tracker.AppendActiveProviders(buf)
}

// InFlight returns the number of attempt records (including abandoned ones
// whose results have not yet arrived), mirroring the broker's old
// len(attempts) snapshot.
func (e *Engine) InFlight() int { return len(e.attempts) }

// Pending returns the number of tasklets awaiting a final.
func (e *Engine) Pending() int { return len(e.tasklets) }

// VisitAttempts calls fn for every attempt record. The engine must not be
// mutated during the walk; used by benchmarks and tests.
func (e *Engine) VisitAttempts(fn func(id core.AttemptID, tasklet core.TaskletID, provider core.ProviderID, abandoned bool)) {
	for aid, a := range e.attempts {
		fn(aid, a.tasklet, a.provider, a.abandoned)
	}
}

// ---------- internals ----------

func (e *Engine) emit(ef Effect) { e.fx = append(e.fx, ef) }

// newState takes a pooled record or allocates one, and initializes it for t.
func (e *Engine) newState(t core.Tasklet) *taskletState {
	var ts *taskletState
	if n := len(e.freeStates); n > 0 {
		ts = e.freeStates[n-1]
		e.freeStates = e.freeStates[:n-1]
	} else {
		ts = &taskletState{}
	}
	ts.t = t
	ts.tracker.Reset(&ts.t)
	ts.coKey = memo.FlightKey{}
	ts.role = flightNone
	ts.reissues = 0
	return ts
}

// statePoolCap bounds the state pool. A record is allocated only when the
// pool is empty, so the pool never holds more records than were once live at
// the same time: a steady load of up to statePoolCap live tasklets reuses
// every record it allocated, and a larger burst leaves at most statePoolCap
// records (a few MB) behind instead of pinning its peak.
const statePoolCap = 4096

// recycle pools ts, first dropping everything it references — the tasklet's
// Params and the tracker's results — so a pooled record keeps nothing alive.
func (e *Engine) recycle(ts *taskletState) {
	if len(e.freeStates) >= statePoolCap {
		return
	}
	ts.t = core.Tasklet{}
	ts.tracker.Reset(&ts.t)
	e.freeStates = append(e.freeStates, ts)
}

// abandonAttempts marks every live attempt of tid abandoned and emits cancel
// effects in attempt ID order, not the attempt map's.
func (e *Engine) abandonAttempts(tid core.TaskletID) {
	from := len(e.fx)
	for aid, a := range e.attempts {
		if a.tasklet == tid && !a.abandoned {
			a.abandoned = true
			e.attempts[aid] = a
			e.emit(Effect{Kind: EffectCancelAttempt, Tasklet: tid, Attempt: aid, Provider: a.provider})
		}
	}
	slices.SortFunc(e.fx[from:], func(a, b Effect) int { return cmp.Compare(a.Attempt, b.Attempt) })
}

// cancelAttempt abandons one attempt (QoC decision cancel).
func (e *Engine) cancelAttempt(aid core.AttemptID) {
	a, ok := e.attempts[aid]
	if !ok || a.abandoned {
		return
	}
	a.abandoned = true
	e.attempts[aid] = a
	e.emit(Effect{Kind: EffectCancelAttempt, Tasklet: a.tasklet, Attempt: aid, Provider: a.provider})
}

// applyDecision turns a QoC decision into effects: launches (capped by
// MaxAttempts, delayed by the backoff schedule), cancellations, and — when
// the decision is final, or the cap starves a re-issue with nothing left in
// flight — finalization.
func (e *Engine) applyDecision(ts *taskletState, d qoc.Decision) {
	tr := &ts.tracker
	// prior is what the tasklet had consumed before this decision: attempts
	// placed plus launches asked for and still waiting for a slot (the
	// tracker's count, which already includes d.Launch).
	prior := tr.Attempts() + tr.Asked() - d.Launch
	launch := d.Launch
	if launch > 0 && e.opts.MaxAttempts > 0 {
		if budget := max(e.opts.MaxAttempts-prior, 0); launch > budget {
			// Hand the swallowed launches back, or the tracker would wait
			// for attempts nobody will place.
			tr.Refuse(launch - budget)
			launch = budget
		}
	}
	// Re-issues (anything after the initial fan-out) back off; the first
	// fan-out and promoted flight waiters launch immediately.
	reissue := prior > 0
	for i := 0; i < launch; i++ {
		var delay time.Duration
		if reissue && e.opts.RetryBackoff > 0 {
			shift := ts.reissues
			if shift > 6 {
				shift = 6
			}
			delay = e.opts.RetryBackoff << shift
			ts.reissues++
		}
		e.emit(Effect{Kind: EffectLaunch, Tasklet: ts.t.ID, Delay: delay})
	}
	for _, aid := range d.Cancel {
		e.cancelAttempt(aid)
	}
	if d.Done {
		e.finalize(ts, d.Final, tr.Attempts())
		return
	}
	if launch < d.Launch && tr.Outstanding() == 0 {
		// The attempt cap swallowed every wanted launch and nothing is in
		// flight or waiting for a slot: the tasklet can never finish.
		// Finalize as lost, like a retry-budget exhaustion.
		e.finalize(ts, core.Result{
			Tasklet: ts.t.ID, Job: ts.t.Job, Index: ts.t.Index,
			Status: core.StatusLost, FaultMsg: "attempt cap exhausted",
		}, tr.Attempts())
	}
}

// finalize delivers ts's final result and settles its coalescing flight: a
// leader's successful final enters the memo cache and fans out to every
// waiter; a leader's failed final dissolves the flight so each waiter
// schedules independently (failures describe this run — losses, deadlines —
// and must not be shared or memoized). Waiters that finalize on their own
// (deadline) just leave the flight.
func (e *Engine) finalize(ts *taskletState, final core.Result, attempts int) {
	role, fk := ts.role, ts.coKey
	ts.role = flightNone
	cacheable := ts.tracker.FinalCacheable() && final.Status == core.StatusOK
	strength := ts.tracker.Goal().VoteStrength()
	e.deliver(ts, final, attempts, false)

	switch role {
	case flightWaiter:
		e.opts.Flights.DropWaiter(fk, uint64(final.Tasklet))
	case flightLeader:
		if final.Status == core.StatusOK {
			if cacheable {
				e.opts.Memo.Put(fk.Content, final.Return, final.Emitted,
					final.FuelUsed, final.Exec, strength)
				e.emit(Effect{Kind: EffectMemoStore, Tasklet: final.Tasklet})
			}
			for _, w := range e.opts.Flights.Complete(fk) {
				wts := e.tasklets[core.TaskletID(w)]
				if wts == nil {
					continue
				}
				wts.role = flightNone
				// Like a cache hit, a coalesced waiter consumed no attempts
				// of its own — the leader's fan-out is reported on the
				// leader's result only.
				e.deliver(wts, core.Result{
					Tasklet: wts.t.ID, Job: wts.t.Job, Index: wts.t.Index,
					Provider: final.Provider, Status: core.StatusOK,
					Return: final.Return.Clone(), Emitted: cloneEmitted(final.Emitted),
					FuelUsed: final.FuelUsed, Exec: final.Exec,
				}, 0, false)
			}
		} else {
			for _, w := range e.opts.Flights.Complete(fk) {
				wts := e.tasklets[core.TaskletID(w)]
				if wts == nil {
					continue
				}
				wts.role = flightNone
				e.applyDecision(wts, wts.tracker.Start())
			}
		}
	}
}

// cloneEmitted deep-copies an emitted-value stream for waiter fan-out.
func cloneEmitted(emitted []tvm.Value) []tvm.Value {
	if len(emitted) == 0 {
		return nil
	}
	em := make([]tvm.Value, len(emitted))
	for i, v := range emitted {
		em[i] = v.Clone()
	}
	return em
}

// deliver removes ts and emits its Deliver effect.
func (e *Engine) deliver(ts *taskletState, final core.Result, attempts int, fromCache bool) {
	delete(e.tasklets, ts.t.ID)
	e.emit(Effect{
		Kind: EffectDeliver, Tasklet: ts.t.ID,
		Final: final, Attempts: attempts, FromCache: fromCache,
		Submitted: ts.t.Submitted,
	})
	e.recycle(ts)
}
