package lifecycle

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/tvm"
)

func newMemoEngine(maxAttempts int, backoff time.Duration) *Engine {
	return New(Options{
		Memo:         memo.New(memo.Config{}),
		Flights:      memo.NewFlightTable(nil, ""),
		MaxAttempts:  maxAttempts,
		RetryBackoff: backoff,
	})
}

// countKind tallies effects of one kind.
func countKind(fx []Effect, k EffectKind) int {
	n := 0
	for _, ef := range fx {
		if ef.Kind == k {
			n++
		}
	}
	return n
}

// firstKind returns the first effect of kind k.
func firstKind(t *testing.T, fx []Effect, k EffectKind) Effect {
	t.Helper()
	for _, ef := range fx {
		if ef.Kind == k {
			return ef
		}
	}
	t.Fatalf("no %v effect in %d effects", k, len(fx))
	return Effect{}
}

// launchOne applies the first pending launch for tid on provider pid and
// returns the attempt ID.
func launchOne(t *testing.T, e *Engine, tid core.TaskletID, pid core.ProviderID) core.AttemptID {
	t.Helper()
	aid, ok := e.Launched(tid, pid)
	if !ok {
		t.Fatalf("Launched(%d, %d) on dead tasklet", tid, pid)
	}
	return aid
}

func TestBestEffortHappyPath(t *testing.T) {
	e := New(Options{})
	fx := e.Submit(core.Tasklet{ID: 1, Job: 1, Index: 0, Fuel: 100}, "", false)
	if countKind(fx, EffectLaunch) != 1 {
		t.Fatalf("submit effects = %v, want one launch", fx)
	}
	aid := launchOne(t, e, 1, 7)
	disp, fx := e.Result(core.Result{Attempt: aid, Tasklet: 1, Provider: 7,
		Status: core.StatusOK, Return: tvm.Int(42)})
	if disp != ResultConsumed {
		t.Fatalf("disposition = %v, want consumed", disp)
	}
	d := firstKind(t, fx, EffectDeliver)
	if d.Final.Status != core.StatusOK || d.Final.Return.I != 42 || d.Attempts != 1 {
		t.Fatalf("deliver = %+v", d)
	}
	if e.Pending() != 0 || e.InFlight() != 0 {
		t.Fatalf("engine not drained: pending=%d inflight=%d", e.Pending(), e.InFlight())
	}
}

func TestStaleAndWastedDispositions(t *testing.T) {
	e := New(Options{})
	e.Submit(core.Tasklet{ID: 1, Fuel: 100}, "", false)
	aid := launchOne(t, e, 1, 3)

	// Unknown attempt and wrong provider are stale.
	if disp, _ := e.Result(core.Result{Attempt: 999, Provider: 3}); disp != ResultStale {
		t.Fatalf("unknown attempt disposition = %v", disp)
	}
	if disp, _ := e.Result(core.Result{Attempt: aid, Provider: 4}); disp != ResultStale {
		t.Fatalf("wrong-provider disposition = %v", disp)
	}

	// An attempt surviving its tasklet's deadline is wasted.
	expired, fx := e.Deadline(1)
	if !expired {
		t.Fatal("deadline did not expire a live tasklet")
	}
	if countKind(fx, EffectCancelAttempt) != 1 {
		t.Fatalf("deadline effects = %v, want one cancel", fx)
	}
	d := firstKind(t, fx, EffectDeliver)
	if d.Final.Status != core.StatusFault || d.Final.FaultMsg != "deadline exceeded" {
		t.Fatalf("deadline final = %+v", d.Final)
	}
	if disp, _ := e.Result(core.Result{Attempt: aid, Provider: 3, Status: core.StatusOK}); disp != ResultWasted {
		t.Fatalf("abandoned-attempt disposition = %v", disp)
	}
	if e.InFlight() != 0 {
		t.Fatalf("attempt leaked: inflight=%d", e.InFlight())
	}
}

// Voting launches only the majority that can decide the tasklet, so an
// agreeing majority leaves no redundant replica behind: nothing to cancel,
// and the attempts reported are the two that ran.
func TestVotingMajorityCancelsRedundant(t *testing.T) {
	e := New(Options{})
	fx := e.Submit(core.Tasklet{ID: 1, QoC: core.QoC{Mode: core.QoCVoting, Replicas: 3}, Fuel: 100}, "", false)
	if countKind(fx, EffectLaunch) != 2 {
		t.Fatalf("voting fan-out = %v, want 2 launches (the majority of 3)", fx)
	}
	a1 := launchOne(t, e, 1, 1)
	a2 := launchOne(t, e, 1, 2)

	if disp, fx := e.Result(core.Result{Attempt: a1, Provider: 1, Status: core.StatusOK, Return: tvm.Int(5)}); disp != ResultConsumed || len(fx) != 0 {
		t.Fatalf("first vote: disp=%v fx=%v", disp, fx)
	}
	_, fx = e.Result(core.Result{Attempt: a2, Provider: 2, Status: core.StatusOK, Return: tvm.Int(5)})
	if countKind(fx, EffectCancelAttempt) != 0 {
		t.Fatalf("majority effects = %v, want no cancel (no third replica was launched)", fx)
	}
	d := firstKind(t, fx, EffectDeliver)
	if d.Final.Return.I != 5 || d.Attempts != 2 {
		t.Fatalf("voting deliver = %+v", d)
	}
	if e.InFlight() != 0 || e.Pending() != 0 {
		t.Fatalf("leak: inflight=%d pending=%d", e.InFlight(), e.Pending())
	}
}

// A disagreement launches the rest of the replica set, one deficit at a
// time, and the tie-breaker decides.
func TestVotingDisagreementLaunchesTheDeficit(t *testing.T) {
	e := New(Options{})
	e.Submit(core.Tasklet{ID: 1, QoC: core.QoC{Mode: core.QoCVoting, Replicas: 3}, Fuel: 100}, "", false)
	a1 := launchOne(t, e, 1, 1)
	a2 := launchOne(t, e, 1, 2)
	e.Result(core.Result{Attempt: a1, Provider: 1, Status: core.StatusOK, Return: tvm.Int(5)})
	_, fx := e.Result(core.Result{Attempt: a2, Provider: 2, Status: core.StatusOK, Return: tvm.Int(9)})
	if countKind(fx, EffectLaunch) != 1 || len(fx) != 1 {
		t.Fatalf("disagreement effects = %v, want exactly one launch", fx)
	}
	if excl := e.AppendActiveProviders(1, nil); len(excl) != 2 {
		t.Fatalf("exclusion list = %v, want the two providers that voted", excl)
	}
	a3 := launchOne(t, e, 1, 3)
	_, fx = e.Result(core.Result{Attempt: a3, Provider: 3, Status: core.StatusOK, Return: tvm.Int(5)})
	if d := firstKind(t, fx, EffectDeliver); d.Final.Return.I != 5 || d.Attempts != 3 {
		t.Fatalf("voting deliver = %+v", d)
	}
}

func TestMemoHitDeliversWithoutLaunch(t *testing.T) {
	e := newMemoEngine(0, 0)
	key, ok := memo.KeyFor(11, 1, nil)
	if !ok {
		t.Fatal("KeyFor failed")
	}

	fx := e.Submit(core.Tasklet{ID: 1, Fuel: 100}, key, true)
	launchOne(t, e, 1, 1)
	aid := e.nextAttempt
	_, fx = e.Result(core.Result{Attempt: aid, Provider: 1, Status: core.StatusOK,
		Return: tvm.Int(7), FuelUsed: 50})
	if countKind(fx, EffectMemoStore) != 1 {
		t.Fatalf("leader final effects = %v, want a memo store", fx)
	}

	fx = e.Submit(core.Tasklet{ID: 2, Fuel: 100}, key, true)
	if countKind(fx, EffectLaunch) != 0 {
		t.Fatalf("cache hit launched: %v", fx)
	}
	d := firstKind(t, fx, EffectDeliver)
	if !d.FromCache || d.Attempts != 0 || d.Final.Return.I != 7 {
		t.Fatalf("cache-hit deliver = %+v", d)
	}
}

func TestCoalescedWaiterSharesLeaderFinal(t *testing.T) {
	e := newMemoEngine(0, 0)
	key, _ := memo.KeyFor(12, 1, nil)

	fx := e.Submit(core.Tasklet{ID: 1, Job: 1, Index: 0, Fuel: 100}, key, true)
	if countKind(fx, EffectLaunch) != 1 {
		t.Fatalf("leader submit = %v", fx)
	}
	fx = e.Submit(core.Tasklet{ID: 2, Job: 1, Index: 1, Fuel: 100}, key, true)
	if countKind(fx, EffectCoalesced) != 1 || countKind(fx, EffectLaunch) != 0 {
		t.Fatalf("waiter submit = %v, want coalesced and no launch", fx)
	}

	aid := launchOne(t, e, 1, 4)
	_, fx = e.Result(core.Result{Attempt: aid, Provider: 4, Status: core.StatusOK, Return: tvm.Int(9)})
	if countKind(fx, EffectDeliver) != 2 {
		t.Fatalf("leader final fan-out = %v, want 2 delivers", fx)
	}
	for _, ef := range fx {
		if ef.Kind != EffectDeliver {
			continue
		}
		if ef.Final.Return.I != 9 || ef.Final.Status != core.StatusOK {
			t.Fatalf("fan-out final = %+v", ef.Final)
		}
		if ef.Tasklet == 2 && ef.Attempts != 0 {
			t.Fatalf("waiter reported %d attempts, want 0", ef.Attempts)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("tasklets leaked: %d", e.Pending())
	}
}

func TestLeaderFailureDissolvesFlight(t *testing.T) {
	e := newMemoEngine(0, 0)
	key, _ := memo.KeyFor(13, 1, nil)
	e.Submit(core.Tasklet{ID: 1, QoC: core.QoC{Deadline: time.Second}, Fuel: 100}, key, true)
	e.Submit(core.Tasklet{ID: 2, Fuel: 100}, key, true)
	launchOne(t, e, 1, 1)

	// The leader's deadline expires: its fault must NOT be shared with the
	// waiter; the waiter re-enters scheduling with its own fan-out.
	expired, fx := e.Deadline(1)
	if !expired {
		t.Fatal("deadline ignored")
	}
	if countKind(fx, EffectDeliver) != 1 {
		t.Fatalf("dissolve delivered the failure to the waiter: %v", fx)
	}
	if countKind(fx, EffectLaunch) != 1 {
		t.Fatalf("dissolve effects = %v, want waiter re-launch", fx)
	}
	if !e.Live(2) || e.Live(1) {
		t.Fatalf("liveness after dissolve: leader=%v waiter=%v", e.Live(1), e.Live(2))
	}
}

func TestCancelPromotesWaiter(t *testing.T) {
	e := newMemoEngine(0, 0)
	key, _ := memo.KeyFor(14, 1, nil)
	e.Submit(core.Tasklet{ID: 1, Fuel: 100}, key, true)
	e.Submit(core.Tasklet{ID: 2, Fuel: 100}, key, true)
	launchOne(t, e, 1, 1)

	dropped, fx := e.Cancel(1)
	if !dropped {
		t.Fatal("cancel of live leader reported not dropped")
	}
	if countKind(fx, EffectDeliver) != 0 {
		t.Fatalf("cancel delivered a final: %v", fx)
	}
	if countKind(fx, EffectCancelAttempt) != 1 || countKind(fx, EffectLaunch) != 1 {
		t.Fatalf("cancel effects = %v, want attempt cancel + promoted-waiter launch", fx)
	}
	// The promoted waiter now runs to completion on its own.
	aid := launchOne(t, e, 2, 5)
	_, fx = e.Result(core.Result{Attempt: aid, Provider: 5, Status: core.StatusOK, Return: tvm.Int(3)})
	if firstKind(t, fx, EffectDeliver).Tasklet != 2 {
		t.Fatalf("promoted waiter final = %v", fx)
	}
}

func TestProviderLostReissuesAndCounts(t *testing.T) {
	e := New(Options{})
	e.Submit(core.Tasklet{ID: 1, Fuel: 100}, "", false)
	e.Submit(core.Tasklet{ID: 2, Fuel: 100}, "", false)
	launchOne(t, e, 1, 9)
	launchOne(t, e, 2, 9)

	lost, fx := e.ProviderLost(9)
	if len(lost) != 2 {
		t.Fatalf("lost = %v, want 2 attempts", lost)
	}
	if countKind(fx, EffectLaunch) != 2 {
		t.Fatalf("provider-lost effects = %v, want 2 re-issues", fx)
	}
	if e.InFlight() != 0 {
		t.Fatalf("attempts leaked after provider loss: %d", e.InFlight())
	}
}

func TestRetryBudgetExhaustionFinalizesLost(t *testing.T) {
	e := New(Options{})
	e.Submit(core.Tasklet{ID: 1, QoC: core.QoC{MaxRetries: 1}, Fuel: 100}, "", false)
	aid := launchOne(t, e, 1, 1)
	// First loss spends the only retry; second loss exhausts the budget.
	_, fx := e.Result(core.Result{Attempt: aid, Provider: 1, Status: core.StatusLost})
	if countKind(fx, EffectLaunch) != 1 {
		t.Fatalf("first loss = %v, want re-issue", fx)
	}
	aid = launchOne(t, e, 1, 2)
	_, fx = e.Result(core.Result{Attempt: aid, Provider: 2, Status: core.StatusLost})
	d := firstKind(t, fx, EffectDeliver)
	if d.Final.Status != core.StatusLost {
		t.Fatalf("exhaustion final = %+v", d.Final)
	}
}

func TestMaxAttemptsCapFinalizesLost(t *testing.T) {
	e := New(Options{MaxAttempts: 1})
	e.Submit(core.Tasklet{ID: 1, Fuel: 100}, "", false)
	aid := launchOne(t, e, 1, 1)
	// The QoC tracker wants a re-issue (default retry budget 3), but the
	// global cap of one attempt swallows it: the tasklet finalizes lost.
	_, fx := e.Result(core.Result{Attempt: aid, Provider: 1, Status: core.StatusLost})
	if countKind(fx, EffectLaunch) != 0 {
		t.Fatalf("cap allowed a re-issue: %v", fx)
	}
	d := firstKind(t, fx, EffectDeliver)
	if d.Final.Status != core.StatusLost || d.Final.FaultMsg != "attempt cap exhausted" {
		t.Fatalf("cap final = %+v", d.Final)
	}
	if e.Pending() != 0 {
		t.Fatal("tasklet leaked after cap exhaustion")
	}
}

func TestMaxAttemptsCapsInitialFanOut(t *testing.T) {
	e := New(Options{MaxAttempts: 2})
	fx := e.Submit(core.Tasklet{ID: 1, QoC: core.QoC{Mode: core.QoCVoting, Replicas: 5}, Fuel: 100}, "", false)
	if countKind(fx, EffectLaunch) != 2 {
		t.Fatalf("capped fan-out = %v, want 2 of the majority's 3 launches", fx)
	}
}

// runCappedVote submits one voting-r tasklet to an engine capped at
// maxAttempts and answers its attempts, in launch order, with the script's
// values ('L' = lost). It fails the test if the tasklet is ever pending with
// nothing placed and nothing to place — waiting on an attempt nobody will
// launch — and returns the final and the launch count.
func runCappedVote(t *testing.T, r, maxAttempts int, script string) (Effect, int) {
	t.Helper()
	e := New(Options{MaxAttempts: maxAttempts})
	fx := e.Submit(core.Tasklet{ID: 1, QoC: core.QoC{Mode: core.QoCVoting, Replicas: r}, Fuel: 100}, "", false)
	launched, queued := 0, 0
	var live []core.AttemptID
	for {
		queued += countKind(fx, EffectLaunch)
		if countKind(fx, EffectDeliver) == 1 {
			if e.Pending() != 0 || e.InFlight() != 0 {
				t.Fatalf("r=%d cap=%d %q: leak after final: pending=%d inflight=%d", r, maxAttempts, script, e.Pending(), e.InFlight())
			}
			return firstKind(t, fx, EffectDeliver), launched
		}
		for ; queued > 0; queued-- {
			launched++
			live = append(live, launchOne(t, e, 1, core.ProviderID(launched)))
		}
		if launched > maxAttempts {
			t.Fatalf("r=%d cap=%d %q: launched %d", r, maxAttempts, script, launched)
		}
		if len(live) == 0 {
			t.Fatalf("r=%d cap=%d %q: pending with nothing in flight and nothing asked for", r, maxAttempts, script)
		}
		aid := live[0]
		live = live[1:]
		res := core.Result{Attempt: aid, Provider: core.ProviderID(aid), Status: core.StatusOK}
		if c := script[(int(aid)-1)%len(script)]; c == 'L' {
			res.Status = core.StatusLost
		} else {
			res.Return = tvm.Int(int64(c))
		}
		_, fx = e.Result(res)
	}
}

// The phantom ask: r = 5 capped at 3 attempts votes X, Y, X. The tracker
// asks for the third X, the cap refuses it — and unless the engine hands the
// refused launch back, the tracker counts best 2 + 1 asked ≥ 3 and waits
// forever on an attempt nobody will place.
func TestVotingCapRefusedLaunchIsHandedBack(t *testing.T) {
	d, launched := runCappedVote(t, 5, 3, "XYX")
	if d.Final.Status != core.StatusLost || d.Final.FaultMsg != "attempt cap exhausted" || launched != 3 || d.Attempts != 3 {
		t.Fatalf("final = %+v after %d launches, want attempt cap exhausted after 3", d, launched)
	}
}

func TestVotingUnderAttemptCapAlwaysFinalizes(t *testing.T) {
	for _, r := range []int{3, 5} {
		need := core.Majority(r)
		for _, maxAttempts := range []int{2, 3, 4} {
			for _, script := range []string{"X", "XY", "XYX", "XYZ", "LX", "XLY", "L", "abcdefgh"} {
				d, launched := runCappedVote(t, r, maxAttempts, script)
				if d.Final.Status == core.StatusOK && launched < need {
					t.Fatalf("r=%d cap=%d %q: accepted after %d attempts, majority is %d", r, maxAttempts, script, launched, need)
				}
				if script == "X" && (d.Final.Status == core.StatusOK) != (maxAttempts >= need) {
					t.Fatalf("r=%d cap=%d unanimous: final %+v, want OK iff the cap admits a majority of %d", r, maxAttempts, d.Final, need)
				}
				if script == "X" && d.Final.Status == core.StatusOK && launched != need {
					t.Fatalf("r=%d cap=%d unanimous: %d launches, want %d", r, maxAttempts, launched, need)
				}
			}
		}
	}
}

func TestRetryBackoffSchedule(t *testing.T) {
	e := New(Options{RetryBackoff: 10 * time.Millisecond})
	fx := e.Submit(core.Tasklet{ID: 1, Fuel: 100}, "", false)
	if d := firstKind(t, fx, EffectLaunch).Delay; d != 0 {
		t.Fatalf("initial fan-out delayed by %v", d)
	}
	for i, want := range []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond} {
		aid := launchOne(t, e, 1, core.ProviderID(i+1))
		_, fx = e.Result(core.Result{Attempt: aid, Provider: core.ProviderID(i + 1), Status: core.StatusLost})
		if d := firstKind(t, fx, EffectLaunch).Delay; d != want {
			t.Fatalf("re-issue %d delay = %v, want %v", i+1, d, want)
		}
	}
}

func TestAttemptIDsMonotonic(t *testing.T) {
	e := New(Options{})
	var last core.AttemptID
	for i := 1; i <= 10; i++ {
		tid := core.TaskletID(i)
		e.Submit(core.Tasklet{ID: tid, Fuel: 100}, "", false)
		aid := launchOne(t, e, tid, 1)
		if aid <= last {
			t.Fatalf("attempt ID %d not monotonic after %d", aid, last)
		}
		last = aid
		e.Result(core.Result{Attempt: aid, Provider: 1, Status: core.StatusOK})
	}
}

// TestEngineReusesStatesAcrossLargeJobs: the state pool keeps every record
// the engine's live high-water mark needed, so once one 2 048-tasklet job has
// run, the next identical job's submit→launch→result cycle allocates
// nothing — past the 64th tasklet too.
func TestEngineReusesStatesAcrossLargeJobs(t *testing.T) {
	const n = 2048
	e := New(Options{})
	evs := make([]Event, n)
	next := core.TaskletID(1)
	cycle := func() {
		base := next
		for i := range evs {
			evs[i] = Event{Kind: EventSubmit, Tasklet: core.Tasklet{ID: next, Job: 1, Index: i, Fuel: 100}}
			next++
		}
		e.Apply(evs)
		for i := range evs {
			tid := base + core.TaskletID(i)
			aid, ok := e.Launched(tid, 1)
			if !ok {
				t.Fatalf("launch of %d refused", tid)
			}
			evs[i] = Event{Kind: EventResult, Result: core.Result{
				Attempt: aid, Tasklet: tid, Provider: 1, Status: core.StatusOK, Return: tvm.Int(1),
			}}
		}
		if fx := e.Apply(evs); len(fx) != n {
			t.Fatalf("%d effects for %d results", len(fx), n)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(5, cycle); allocs != 0 {
		t.Fatalf("a warm %d-tasklet cycle allocates %.0f times", n, allocs)
	}
}

// TestPooledStatesHoldNothing: a finalized record goes back to the pool with
// its tasklet's Params and the tracker's results dropped, and a burst larger
// than statePoolCap leaves at most statePoolCap records pooled.
func TestPooledStatesHoldNothing(t *testing.T) {
	const n = statePoolCap + 100
	e := New(Options{})
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{Kind: EventSubmit, Tasklet: core.Tasklet{
			ID: core.TaskletID(i + 1), Job: 1, Index: i, Fuel: 100,
			Params: []tvm.Value{tvm.Str("payload")},
		}}
	}
	e.Apply(evs)
	for i := range evs {
		tid := core.TaskletID(i + 1)
		aid, ok := e.Launched(tid, 1)
		if !ok {
			t.Fatalf("launch of %d refused", tid)
		}
		evs[i] = Event{Kind: EventResult, Result: core.Result{
			Attempt: aid, Tasklet: tid, Provider: 1, Status: core.StatusOK, Return: tvm.Str("result"),
		}}
	}
	if fx := e.Apply(evs); len(fx) != n {
		t.Fatalf("%d effects for %d results", len(fx), n)
	}
	if e.Pending() != 0 {
		t.Fatalf("%d tasklets pending after every result", e.Pending())
	}
	if len(e.freeStates) != statePoolCap {
		t.Fatalf("pool holds %d records after a %d-tasklet burst, want %d", len(e.freeStates), n, statePoolCap)
	}
	for _, ts := range e.freeStates {
		if !reflect.DeepEqual(ts.t, core.Tasklet{}) {
			t.Fatalf("pooled record keeps tasklet %+v", ts.t)
		}
		if ts.tracker.Done() || !reflect.DeepEqual(ts.tracker.Final(), core.Result{}) {
			t.Fatalf("pooled record keeps final %+v", ts.tracker.Final())
		}
	}
}
