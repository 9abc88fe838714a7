package lifecycle

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/qoc"
	"repro/internal/tvm"
)

// fuzzWorld drives one Engine through an arbitrary event interleaving and
// checks the lifecycle invariants after every step:
//
//   - a tasklet is delivered exactly once, and never after being cancelled;
//   - attempt IDs are unique and monotonic;
//   - every CancelAttempt effect names an attempt the driver launched and
//     has not yet resolved;
//   - when every tasklet is finalized or cancelled and every outstanding
//     attempt has reported, the engine holds no records (nothing leaks);
//   - a tasklet that schedules for itself (not a flight waiter) always has
//     something that can still report, and its tracker's outstanding count is
//     exactly the driver's: attempts in flight plus launches not yet placed —
//     it never waits on an attempt nobody will launch;
//   - a voting tasklet never has more outstanding than its majority (it
//     launches the deficit, not the replica set), and no tasklet is placed
//     more often than Replicas+MaxRetries or the engine's MaxAttempts allow.
type fuzzWorld struct {
	t   *testing.T
	e   *Engine
	now time.Duration

	nextTasklet core.TaskletID
	lastAttempt core.AttemptID

	// live tracks driver-side attempt state: which tasklet, which provider.
	live map[core.AttemptID]core.ProviderID

	// launchable holds tasklets with unrealized Launch effects, in order.
	launchable []core.TaskletID

	maxAttempts int
	placed      map[core.TaskletID]int // Launched calls per tasklet

	submitted int
	delivered map[core.TaskletID]bool
	cancelled map[core.TaskletID]bool
}

func (w *fuzzWorld) apply(fx []Effect) {
	for _, ef := range fx {
		switch ef.Kind {
		case EffectLaunch:
			// The tasklet may finalize later in this same batch (e.g. a
			// provider loss re-issues one attempt, then a second loss
			// exhausts the tracker); drivers purge such entries lazily, so
			// liveness is checked at realization time, not here.
			w.launchable = append(w.launchable, ef.Tasklet)
		case EffectCancelAttempt:
			if _, ok := w.live[ef.Attempt]; !ok {
				w.t.Fatalf("cancel effect for unknown attempt %d", ef.Attempt)
			}
		case EffectDeliver:
			tid := ef.Tasklet
			if w.delivered[tid] {
				w.t.Fatalf("tasklet %d delivered twice", tid)
			}
			if w.cancelled[tid] {
				w.t.Fatalf("tasklet %d delivered after cancellation", tid)
			}
			if ef.Final.Tasklet != tid {
				w.t.Fatalf("deliver for %d carries final of %d", tid, ef.Final.Tasklet)
			}
			w.delivered[tid] = true
		case EffectSetDeadline, EffectMemoStore, EffectCoalesced:
		default:
			w.t.Fatalf("unknown effect kind %v", ef.Kind)
		}
	}
}

// place realizes one launch of tid on pid.
func (w *fuzzWorld) place(tid core.TaskletID, pid core.ProviderID) {
	aid, ok := w.e.Launched(tid, pid)
	if !ok {
		w.t.Fatalf("Launched refused live tasklet %d", tid)
	}
	if aid <= w.lastAttempt {
		w.t.Fatalf("attempt ID %d not monotonic (last %d)", aid, w.lastAttempt)
	}
	w.lastAttempt = aid
	w.live[aid] = pid
	w.placed[tid]++
}

// checkOutstanding asserts the per-tasklet accounting invariants.
func (w *fuzzWorld) checkOutstanding() {
	unplaced := map[core.TaskletID]int{}
	for _, tid := range w.launchable {
		unplaced[tid]++
	}
	inFlight := map[core.TaskletID]int{}
	w.e.VisitAttempts(func(_ core.AttemptID, tid core.TaskletID, _ core.ProviderID, abandoned bool) {
		if !abandoned {
			inFlight[tid]++
		}
	})
	for tid, ts := range w.e.tasklets {
		goal := ts.tracker.Goal()
		retries := goal.MaxRetries
		if retries == 0 {
			retries = qoc.DefaultRetries
		}
		if n := w.placed[tid]; n > goal.Replicas+retries || n > w.maxAttempts {
			w.t.Fatalf("tasklet %d placed %d times (goal %+v, cap %d)", tid, n, goal, w.maxAttempts)
		}
		if ts.role == flightWaiter {
			continue
		}
		out := ts.tracker.Outstanding()
		if out == 0 || out != inFlight[tid]+unplaced[tid] {
			w.t.Fatalf("tasklet %d: tracker outstanding %d, driver has %d in flight + %d unplaced",
				tid, out, inFlight[tid], unplaced[tid])
		}
		if goal.Mode == core.QoCVoting && out > core.Majority(goal.Replicas) {
			w.t.Fatalf("voting tasklet %d: %d outstanding exceeds the majority of %d", tid, out, goal.Replicas)
		}
	}
}

// canonReturn is the deterministic "correct" value for a content key, so
// identical keys produce identical results (the purity contract memoization
// relies on).
func canonReturn(key uint64, tid core.TaskletID) tvm.Value {
	if key != 0 {
		return tvm.Int(int64(key) * 31)
	}
	return tvm.Int(int64(tid))
}

func FuzzLifecycle(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 16, 1, 2, 3})
	f.Add([]byte{0, 0, 0, 1, 1, 1, 2, 18, 2, 34, 2, 50, 6, 1})
	f.Add([]byte{0, 9, 1, 3, 66, 4, 0, 5, 0, 0, 25, 1, 6, 2, 2, 7})
	f.Add([]byte{0, 27, 0, 27, 0, 27, 1, 1, 1, 2, 3, 5, 3, 21, 2, 37})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Once with a roomy cap and once with a cap below every voting
		// majority, where each voting decision is truncated by the engine.
		fuzzLifecycle(t, data, 6)
		fuzzLifecycle(t, data, 1)
	})
}

func fuzzLifecycle(t *testing.T, data []byte, maxAttempts int) {
	w := &fuzzWorld{
		t: t,
		e: New(Options{
			Memo:        memo.New(memo.Config{}),
			Flights:     memo.NewFlightTable(nil, ""),
			MaxAttempts: maxAttempts,
		}),
		live:        map[core.AttemptID]core.ProviderID{},
		maxAttempts: maxAttempts,
		placed:      map[core.TaskletID]int{},
		delivered:   map[core.TaskletID]bool{},
		cancelled:   map[core.TaskletID]bool{},
	}

	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	// pick returns the i-th (mod n) key of a map walked in insertion-
	// independent but deterministic order: smallest key plus offset scan.
	pickAttempt := func(sel byte) (core.AttemptID, core.ProviderID, bool) {
		if len(w.live) == 0 {
			return 0, 0, false
		}
		// Deterministic selection: walk IDs upward from 1 (attempt IDs
		// are small and dense in these runs).
		n := int(sel) % len(w.live)
		for aid := core.AttemptID(1); aid <= w.lastAttempt; aid++ {
			if pid, ok := w.live[aid]; ok {
				if n == 0 {
					return aid, pid, true
				}
				n--
			}
		}
		return 0, 0, false
	}

	for len(data) > 0 {
		op := next()
		switch op % 7 {
		case 0: // submit
			sel := next()
			w.nextTasklet++
			tid := w.nextTasklet
			qoc := core.QoC{}
			switch sel % 4 {
			case 1:
				qoc = core.QoC{Mode: core.QoCRedundant, Replicas: 2}
			case 2:
				qoc = core.QoC{Mode: core.QoCVoting, Replicas: 3 + 2*int(sel>>5&1)}
			case 3:
				qoc = core.QoC{Deadline: time.Second, MaxRetries: 1}
			}
			if sel&64 != 0 {
				qoc.NoCache = true
			}
			var key memo.Key
			var haveKey bool
			if content := uint64(sel % 5); content != 0 {
				key, haveKey = memo.KeyFor(content, 1, nil)
			}
			w.submitted++
			w.apply(w.e.Submit(core.Tasklet{
				ID: tid, Job: 1, Index: int(tid) - 1, QoC: qoc, Fuel: 1000,
			}, key, haveKey))

		case 1: // realize one pending launch
			pid := core.ProviderID(next()%4 + 1)
			for len(w.launchable) > 0 {
				tid := w.launchable[0]
				w.launchable = w.launchable[1:]
				if !w.e.Live(tid) {
					continue // finalized while queued; drivers purge these
				}
				w.place(tid, pid)
				break
			}

		case 2: // attempt succeeds
			aid, pid, ok := pickAttempt(next())
			if !ok {
				continue
			}
			tl := w.e.Tasklet(taskletOf(w.e, aid))
			var key uint64
			if tl != nil {
				// Reconstruct the content key class from the tasklet's
				// index selector; exactness does not matter for the
				// invariants, only determinism per tasklet.
				key = uint64(tl.ID) % 5
			}
			delete(w.live, aid)
			_, fx := w.e.Result(core.Result{
				Attempt: aid, Provider: pid, Status: core.StatusOK,
				Return: canonReturn(key, taskletOf(w.e, aid)), FuelUsed: 500,
			})
			w.apply(fx)

		case 3: // attempt lost or faulted
			aid, pid, ok := pickAttempt(next())
			if !ok {
				continue
			}
			status := core.StatusLost
			if next()&1 == 1 {
				status = core.StatusFault
			}
			delete(w.live, aid)
			_, fx := w.e.Result(core.Result{Attempt: aid, Provider: pid, Status: status})
			w.apply(fx)

		case 4: // deadline fires for some tasklet
			sel := core.TaskletID(next())
			if sel == 0 || sel > w.nextTasklet {
				continue
			}
			expired, fx := w.e.Deadline(sel)
			if expired {
				w.apply(fx)
			} else if w.e.Live(sel) {
				t.Fatalf("deadline of live tasklet %d did not expire", sel)
			}

		case 5: // cancel some tasklet
			sel := core.TaskletID(next())
			if sel == 0 || sel > w.nextTasklet {
				continue
			}
			dropped, fx := w.e.Cancel(sel)
			if dropped {
				w.cancelled[sel] = true
				w.apply(fx)
			}

		case 6: // provider dies
			pid := core.ProviderID(next()%4 + 1)
			_, fx := w.e.ProviderLost(pid)
			for aid, p := range w.live {
				if p == pid {
					delete(w.live, aid)
				}
			}
			w.apply(fx)
		}
		w.checkOutstanding()
	}

	// Drain: resolve every remaining attempt, realizing any re-issues as
	// immediate losses too, then cancel whatever is still unfinished.
	for round := 0; round < 64; round++ {
		if len(w.live) == 0 && len(w.launchable) == 0 {
			break
		}
		for aid, pid := range w.live {
			delete(w.live, aid)
			_, fx := w.e.Result(core.Result{Attempt: aid, Provider: pid, Status: core.StatusLost})
			w.apply(fx)
		}
		for len(w.launchable) > 0 {
			tid := w.launchable[0]
			w.launchable = w.launchable[1:]
			if !w.e.Live(tid) {
				continue
			}
			w.place(tid, 1)
		}
		w.checkOutstanding()
	}
	for tid := core.TaskletID(1); tid <= w.nextTasklet; tid++ {
		if dropped, fx := w.e.Cancel(tid); dropped {
			w.cancelled[tid] = true
			w.apply(fx)
		}
	}

	// Terminal invariants: every tasklet reached exactly one outcome,
	// and the engine retains nothing.
	for tid := core.TaskletID(1); tid <= w.nextTasklet; tid++ {
		if w.delivered[tid] == w.cancelled[tid] {
			t.Fatalf("tasklet %d: delivered=%v cancelled=%v, want exactly one",
				tid, w.delivered[tid], w.cancelled[tid])
		}
	}
	if n := w.e.Pending(); n != 0 {
		t.Fatalf("%d tasklets leaked in the engine", n)
	}
	if n := w.e.InFlight(); n != len(w.live) {
		t.Fatalf("engine tracks %d attempts, driver %d", n, len(w.live))
	}
}

// taskletOf looks up which tasklet an attempt belongs to via VisitAttempts
// (test-only helper; the driver normally knows from its own records).
func taskletOf(e *Engine, aid core.AttemptID) core.TaskletID {
	var tid core.TaskletID
	e.VisitAttempts(func(id core.AttemptID, t core.TaskletID, _ core.ProviderID, _ bool) {
		if id == aid {
			tid = t
		}
	})
	return tid
}
