package qoc

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/tvm"
)

func newTasklet(q core.QoC) *core.Tasklet {
	return &core.Tasklet{ID: 1, Job: 2, Index: 3, QoC: q}
}

// launch simulates the caller placing `n` attempts on providers p0, p0+1...
func launch(tr *Tracker, firstAttempt core.AttemptID, n int, firstProvider core.ProviderID) []core.AttemptID {
	ids := make([]core.AttemptID, n)
	for i := 0; i < n; i++ {
		id := firstAttempt + core.AttemptID(i)
		tr.OnLaunched(id, firstProvider+core.ProviderID(i))
		ids[i] = id
	}
	return ids
}

func okResult(a core.AttemptID, val int64) core.Result {
	return core.Result{Attempt: a, Status: core.StatusOK, Return: tvm.Int(val)}
}

func lostResult(a core.AttemptID) core.Result {
	return core.Result{Attempt: a, Status: core.StatusLost}
}

func faultResult(a core.AttemptID, code tvm.FaultCode) core.Result {
	return core.Result{Attempt: a, Status: core.StatusFault, FaultCode: code, FaultMsg: "boom"}
}

func TestBestEffortHappyPath(t *testing.T) {
	tr := NewTracker(newTasklet(core.QoC{}))
	d := tr.Start()
	if d.Launch != 1 {
		t.Fatalf("initial launch = %d, want 1", d.Launch)
	}
	ids := launch(tr, 1, 1, 10)
	d = tr.OnResult(okResult(ids[0], 42))
	if !d.Done || d.Final.Status != core.StatusOK || d.Final.Return.I != 42 {
		t.Fatalf("decision = %+v", d)
	}
	// Final result carries the tasklet identity, not the attempt's zero
	// fields.
	if d.Final.Tasklet != 1 || d.Final.Job != 2 || d.Final.Index != 3 {
		t.Fatalf("identity not stamped: %+v", d.Final)
	}
	if !tr.Done() {
		t.Fatal("tracker not done")
	}
}

func TestBestEffortDeterministicFaultIsFinal(t *testing.T) {
	tr := NewTracker(newTasklet(core.QoC{}))
	tr.Start()
	ids := launch(tr, 1, 1, 10)
	d := tr.OnResult(faultResult(ids[0], tvm.FaultDivByZero))
	if !d.Done || d.Final.Status != core.StatusFault {
		t.Fatalf("deterministic fault should complete immediately: %+v", d)
	}
	if d.Launch != 0 {
		t.Fatal("must not retry a deterministic fault")
	}
}

func TestBestEffortRetriesLostAttempts(t *testing.T) {
	tr := NewTracker(newTasklet(core.QoC{}))
	tr.Start()
	next := core.AttemptID(1)
	for retry := 0; retry < DefaultRetries; retry++ {
		launch(tr, next, 1, core.ProviderID(10+retry))
		d := tr.OnResult(lostResult(next))
		if d.Done {
			t.Fatalf("done after %d losses, want retry", retry+1)
		}
		if d.Launch != 1 {
			t.Fatalf("loss %d: launch = %d, want 1", retry, d.Launch)
		}
		next++
	}
	// Budget exhausted: the next loss is final.
	launch(tr, next, 1, 99)
	d := tr.OnResult(lostResult(next))
	if !d.Done || d.Final.Status != core.StatusLost {
		t.Fatalf("decision = %+v, want final lost", d)
	}
}

func TestBestEffortCancelledFaultRetries(t *testing.T) {
	// FaultCancelled is an environment fault, not a program fault.
	tr := NewTracker(newTasklet(core.QoC{}))
	tr.Start()
	ids := launch(tr, 1, 1, 10)
	d := tr.OnResult(faultResult(ids[0], tvm.FaultCancelled))
	if d.Done || d.Launch != 1 {
		t.Fatalf("cancelled attempt should re-issue: %+v", d)
	}
}

func TestRedundantFirstResultWinsAndCancelsRest(t *testing.T) {
	tr := NewTracker(newTasklet(core.QoC{Mode: core.QoCRedundant, Replicas: 3}))
	d := tr.Start()
	if d.Launch != 3 {
		t.Fatalf("launch = %d, want 3", d.Launch)
	}
	ids := launch(tr, 1, 3, 10)
	d = tr.OnResult(okResult(ids[1], 7))
	if !d.Done || d.Final.Return.I != 7 {
		t.Fatalf("decision = %+v", d)
	}
	if len(d.Cancel) != 2 {
		t.Fatalf("cancel = %v, want the 2 outstanding attempts", d.Cancel)
	}
}

func TestRedundantSurvivesPartialLoss(t *testing.T) {
	tr := NewTracker(newTasklet(core.QoC{Mode: core.QoCRedundant, Replicas: 2}))
	tr.Start()
	ids := launch(tr, 1, 2, 10)
	d := tr.OnResult(lostResult(ids[0]))
	if d.Done {
		t.Fatal("done too early")
	}
	if d.Launch != 1 {
		t.Fatalf("lost replica should re-issue, launch = %d", d.Launch)
	}
	d = tr.OnResult(okResult(ids[1], 5))
	if !d.Done || d.Final.Return.I != 5 {
		t.Fatalf("decision = %+v", d)
	}
}

func TestRedundantAllFaultReportsFault(t *testing.T) {
	tr := NewTracker(newTasklet(core.QoC{Mode: core.QoCRedundant, Replicas: 2, MaxRetries: 1}))
	tr.Start()
	ids := launch(tr, 1, 2, 10)
	d := tr.OnResult(faultResult(ids[0], tvm.FaultOutOfFuel))
	if d.Done {
		t.Fatal("first fault should not finish a redundant tasklet")
	}
	d = tr.OnResult(faultResult(ids[1], tvm.FaultOutOfFuel))
	// One retry remains: it should be spent.
	if d.Done || d.Launch != 1 {
		t.Fatalf("expected retry, got %+v", d)
	}
	launch(tr, 3, 1, 30)
	d = tr.OnResult(faultResult(3, tvm.FaultOutOfFuel))
	if !d.Done || d.Final.Status != core.StatusFault || d.Final.FaultCode != tvm.FaultOutOfFuel {
		t.Fatalf("decision = %+v", d)
	}
}

func TestVotingMajorityCompletes(t *testing.T) {
	tr := NewTracker(newTasklet(core.QoC{Mode: core.QoCVoting, Replicas: 3}))
	d := tr.Start()
	if d.Launch != 2 {
		t.Fatalf("launch = %d, want the majority of 3", d.Launch)
	}
	ids := launch(tr, 1, 2, 10)
	d = tr.OnResult(okResult(ids[0], 9))
	if d.Done || d.Launch != 0 {
		t.Fatalf("one vote neither completes a 3-replica voting tasklet nor needs a launch: %+v", d)
	}
	d = tr.OnResult(okResult(ids[1], 9))
	if !d.Done || d.Final.Return.I != 9 {
		t.Fatalf("2/3 agreement should complete: %+v", d)
	}
	if len(d.Cancel) != 0 || tr.Attempts() != 2 {
		t.Fatalf("the third replica was never launched: cancel %v, attempts %d", d.Cancel, tr.Attempts())
	}
}

func TestVotingDisagreementSpawnsExtraAttempt(t *testing.T) {
	tr := NewTracker(newTasklet(core.QoC{Mode: core.QoCVoting, Replicas: 3, MaxRetries: 2}))
	tr.Start()
	ids := launch(tr, 1, 3, 10)
	tr.OnResult(okResult(ids[0], 1))
	tr.OnResult(okResult(ids[1], 2)) // disagreement
	d := tr.OnResult(okResult(ids[2], 3))
	if d.Done || d.Launch != 1 {
		t.Fatalf("3-way disagreement should retry: %+v", d)
	}
	launch(tr, 4, 1, 40)
	d = tr.OnResult(okResult(4, 2))
	if !d.Done || d.Final.Return.I != 2 {
		t.Fatalf("tie-breaking vote should complete with 2: %+v", d)
	}
}

func TestVotingNeverAgreesFails(t *testing.T) {
	tr := NewTracker(newTasklet(core.QoC{Mode: core.QoCVoting, Replicas: 3, MaxRetries: 1}))
	tr.Start()
	launch(tr, 1, 2, 10)
	tr.OnResult(okResult(1, 1))
	// Replicas 3 + MaxRetries 1: the third replica, then the one retry.
	for a := core.AttemptID(2); a <= 3; a++ {
		d := tr.OnResult(okResult(a, int64(a)))
		if d.Done || d.Launch != 1 {
			t.Fatalf("disagreement %d should ask for one tie-breaker, got %+v", a, d)
		}
		launch(tr, a+1, 1, core.ProviderID(10+a))
	}
	d := tr.OnResult(okResult(4, 4))
	if !d.Done || d.Final.Status != core.StatusFault || tr.Attempts() != 4 {
		t.Fatalf("persistent disagreement must fail after 4 attempts: %+v (attempts %d)", d, tr.Attempts())
	}
}

func TestVotingMajorityAlreadyReachedWhenLossArrives(t *testing.T) {
	tr := NewTracker(newTasklet(core.QoC{Mode: core.QoCVoting, Replicas: 3, MaxRetries: 0}))
	tr.Start()
	ids := launch(tr, 1, 3, 10)
	tr.OnResult(okResult(ids[0], 9))
	tr.OnResult(okResult(ids[1], 9))
	// Already done; the straggler loss must not disturb the final state.
	d := tr.OnResult(lostResult(ids[2]))
	if !d.Done || d.Final.Return.I != 9 {
		t.Fatalf("straggler loss corrupted final state: %+v", d)
	}
}

func TestDuplicateAndUnknownResultsIgnored(t *testing.T) {
	tr := NewTracker(newTasklet(core.QoC{}))
	tr.Start()
	ids := launch(tr, 1, 1, 10)
	d := tr.OnResult(okResult(99, 1)) // unknown attempt
	if d.Done || d.Launch != 0 {
		t.Fatalf("unknown attempt changed state: %+v", d)
	}
	tr.OnResult(okResult(ids[0], 1))
	d = tr.OnResult(okResult(ids[0], 2)) // duplicate after completion
	if !d.Done || d.Final.Return.I != 1 {
		t.Fatalf("duplicate result changed outcome: %+v", d)
	}
}

func TestActiveProvidersTracksInFlight(t *testing.T) {
	tr := NewTracker(newTasklet(core.QoC{Mode: core.QoCRedundant, Replicas: 3}))
	tr.Start()
	ids := launch(tr, 1, 3, 10)
	scratch := make([]core.ProviderID, 4) // dirty scratch must be overwritten, not appended to
	ap := tr.AppendActiveProviders(scratch[:0])
	slices.Sort(ap)
	if !slices.Equal(ap, []core.ProviderID{10, 11, 12}) {
		t.Fatalf("active providers = %v", ap)
	}
	if &ap[0] != &scratch[0] {
		t.Fatal("the scratch backing array was not reused")
	}
	tr.OnResult(lostResult(ids[1]))
	ap = tr.AppendActiveProviders(scratch[:0])
	slices.Sort(ap)
	if !slices.Equal(ap, []core.ProviderID{10, 12}) {
		t.Fatalf("active providers after loss = %v", ap)
	}
}

// A provider whose vote is on record must not be handed the next replica of
// the same tasklet: majority-first voting launches the tie-breaker after the
// first votes are in, and "two agreeing results" must mean two providers.
func TestVotingExcludesProvidersThatVoted(t *testing.T) {
	tr := NewTracker(newTasklet(core.QoC{Mode: core.QoCVoting, Replicas: 3}))
	tr.Start()
	ids := launch(tr, 1, 2, 10)
	tr.OnResult(okResult(ids[0], 1))
	if d := tr.OnResult(okResult(ids[1], 2)); d.Launch != 1 {
		t.Fatalf("disagreement should ask for the third replica: %+v", d)
	}
	ap := tr.AppendActiveProviders(nil)
	slices.Sort(ap)
	if !slices.Equal(ap, []core.ProviderID{10, 11}) {
		t.Fatalf("exclusion list = %v, want both voters", ap)
	}
}

func TestAttemptsCounting(t *testing.T) {
	tr := NewTracker(newTasklet(core.QoC{Mode: core.QoCRedundant, Replicas: 3}))
	tr.Start()
	launch(tr, 1, 3, 10)
	if tr.Attempts() != 3 || tr.Outstanding() != 3 {
		t.Fatalf("attempts=%d outstanding=%d", tr.Attempts(), tr.Outstanding())
	}
	tr.OnResult(okResult(1, 1))
	if tr.Outstanding() != 0 { // completion clears outstanding
		t.Fatalf("outstanding after done = %d", tr.Outstanding())
	}
}

func TestNormalizationAppliedByTracker(t *testing.T) {
	tr := NewTracker(newTasklet(core.QoC{Mode: core.QoCVoting, Replicas: 1}))
	if tr.Goal().Replicas != 3 {
		t.Fatalf("voting replicas = %d, want normalized 3", tr.Goal().Replicas)
	}
	if d := tr.Start(); d.Launch != 2 {
		t.Fatalf("launch = %d, want the majority of the normalized 3", d.Launch)
	}
}

// TestTrackerRandomSequencesTerminate drives trackers with random outcome
// sequences for every QoC mode and checks the global invariants: the engine
// always reaches a final state, never launches more attempts than the
// replica set plus its retry budget (voting's disagreement retries included),
// under voting never asks for more than the majority's deficit, and never
// changes its mind after completion. Placement is lazy at random: results
// arrive while siblings are asked for but not yet placed.
func TestTrackerRandomSequencesTerminate(t *testing.T) {
	rng := uint64(0x12345)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}

	modes := []core.QoC{
		{},
		{Mode: core.QoCBestEffort, MaxRetries: 5},
		{Mode: core.QoCRedundant, Replicas: 2},
		{Mode: core.QoCRedundant, Replicas: 3, MaxRetries: 2},
		{Mode: core.QoCVoting, Replicas: 3},
		{Mode: core.QoCVoting, Replicas: 5, MaxRetries: 4},
	}
	for trial := 0; trial < 2000; trial++ {
		q := modes[next(len(modes))]
		tr := NewTracker(newTasklet(q))
		goal := tr.Goal()
		retries := goal.MaxRetries
		if retries == 0 {
			retries = DefaultRetries
		}
		// Upper bound on launches: initial replicas + every retry the
		// budget allows (voting disagreement and losses share the budget).
		maxLaunches := goal.Replicas + retries

		d := tr.Start()
		nextAttempt := core.AttemptID(1)
		nextProvider := core.ProviderID(1)
		var inFlight []core.AttemptID
		launched, unplaced := 0, 0
		votes := [2]int{}
		steps := 0
		for !tr.Done() {
			steps++
			if steps > 1000 {
				t.Fatalf("trial %d (%+v): tracker did not terminate", trial, q)
			}
			unplaced += d.Launch
			if tr.Outstanding() != len(inFlight)+unplaced {
				t.Fatalf("trial %d (%+v): outstanding = %d, want %d in flight + %d unplaced", trial, q, tr.Outstanding(), len(inFlight), unplaced)
			}
			if best := max(votes[0], votes[1]); goal.Mode == core.QoCVoting && d.Launch > 0 && best+tr.Outstanding() != core.Majority(goal.Replicas) {
				t.Fatalf("trial %d (%+v): launch %d with best %d + outstanding %d: not the majority's deficit", trial, q, d.Launch, best, tr.Outstanding())
			}
			place := next(unplaced + 1)
			if len(inFlight) == 0 && unplaced > 0 {
				place = max(place, 1)
			}
			unplaced -= place
			for i := 0; i < place; i++ {
				tr.OnLaunched(nextAttempt, nextProvider)
				inFlight = append(inFlight, nextAttempt)
				nextAttempt++
				nextProvider++
				launched++
			}
			if launched > maxLaunches {
				t.Fatalf("trial %d (%+v): launched %d > bound %d", trial, q, launched, maxLaunches)
			}
			if len(inFlight) == 0 {
				t.Fatalf("trial %d (%+v): stuck with no attempts outstanding and not done", trial, q)
			}
			// Resolve a random in-flight attempt.
			pick := next(len(inFlight))
			att := inFlight[pick]
			inFlight = append(inFlight[:pick], inFlight[pick+1:]...)

			var res core.Result
			res.Attempt = att
			switch next(5) {
			case 0:
				res.Status = core.StatusLost
			case 1:
				res.Status = core.StatusFault
				res.FaultCode = tvm.FaultOutOfFuel
				res.FaultMsg = "x"
			default:
				res.Status = core.StatusOK
				v := next(2) // two possible answers -> vote splits
				res.Return = tvm.Int(int64(v))
				votes[v]++
			}
			d = tr.OnResult(res)
		}
		// Post-completion results must not disturb the final state.
		final := tr.Final()
		d2 := tr.OnResult(core.Result{Attempt: 999999, Status: core.StatusOK, Return: tvm.Int(7)})
		if !d2.Done || d2.Final.Hash() != final.Hash() {
			t.Fatalf("trial %d: completion not stable", trial)
		}
	}
}

// runVotes drives a voting tracker through a scripted outcome sequence — one
// letter per attempt in launch order: 'L' lost, 'F' out-of-fuel fault, any
// other letter an OK vote for that value — and checks, after every decision,
// that a launch is exactly the majority's deficit over the best group and
// everything outstanding (so never while best+outstanding already covers the
// majority) and that the total stays within Replicas+MaxRetries. With lazy
// set, only one attempt is ever placed at a time: every result arrives while
// its siblings are asked for but unplaced, the saturated-fleet case.
func runVotes(t *testing.T, q core.QoC, script string, lazy bool) (launched int, final core.Result) {
	t.Helper()
	tr := NewTracker(newTasklet(q))
	goal := tr.Goal()
	need := core.Majority(goal.Replicas)
	retries := goal.MaxRetries
	if retries == 0 {
		retries = DefaultRetries
	}
	groups := map[byte]int{}
	best, unplaced := 0, 0
	var inFlight []core.AttemptID
	d := tr.Start()
	for !d.Done {
		unplaced += d.Launch
		if d.Launch > 0 && best+tr.Outstanding() != need {
			t.Fatalf("%q: launch %d leaves best %d + outstanding %d, want exactly the majority %d", script, d.Launch, best, tr.Outstanding(), need)
		}
		for unplaced > 0 && !(lazy && len(inFlight) > 0) {
			launched++
			unplaced--
			tr.OnLaunched(core.AttemptID(launched), core.ProviderID(launched))
			inFlight = append(inFlight, core.AttemptID(launched))
		}
		if launched > goal.Replicas+retries {
			t.Fatalf("%q: launched %d > Replicas %d + MaxRetries %d", script, launched, goal.Replicas, retries)
		}
		if len(inFlight) == 0 {
			t.Fatalf("%q: not done with nothing in flight (outstanding %d)", script, tr.Outstanding())
		}
		a := inFlight[0]
		inFlight = inFlight[1:]
		if int(a) > len(script) {
			t.Fatalf("%q: attempt %d launched beyond the script", script, a)
		}
		switch c := script[a-1]; c {
		case 'L':
			d = tr.OnResult(lostResult(a))
		case 'F':
			d = tr.OnResult(faultResult(a, tvm.FaultOutOfFuel))
		default:
			groups[c]++
			best = max(best, groups[c])
			d = tr.OnResult(okResult(a, int64(c)))
		}
	}
	return launched, d.Final
}

func TestVotingLaunchesExactlyTheDeficit(t *testing.T) {
	for _, r := range []int{3, 5, 7} {
		need := core.Majority(r)
		agree := strings.Repeat("A", need)
		cases := []struct {
			name, script string
			launches     int
			status       core.ResultStatus
			msg          string
		}{
			{"agree", agree, need, core.StatusOK, ""},
			{"disagree-first", "B" + agree, need + 1, core.StatusOK, ""},
			{"disagree-last", agree[1:] + "BA", need + 1, core.StatusOK, ""},
			{"fault-first", "F" + agree, need + 1, core.StatusOK, ""},
			{"loss-first", "L" + agree, need + 1, core.StatusOK, ""},
			{"loss-in-the-middle", "AL" + agree[1:], need + 1, core.StatusOK, ""},
			{"one-of-each", "BLF" + agree, need + 3, core.StatusOK, ""},
			// Replicas + the default 3 retries, then the verdict of the last outcome.
			{"never-agree", "abcdefghij"[:r+3], r + 3, core.StatusFault, "voting: no majority after all attempts"},
			{"all-fault", strings.Repeat("F", r+3), r + 3, core.StatusFault, "boom"},
			{"all-lost", strings.Repeat("L", r+3), r + 3, core.StatusLost, "all attempts lost and retry budget exhausted"},
		}
		for _, tc := range cases {
			for _, lazy := range []bool{false, true} {
				launched, final := runVotes(t, core.QoC{Mode: core.QoCVoting, Replicas: r}, tc.script, lazy)
				if launched != tc.launches || final.Status != tc.status || !strings.HasPrefix(final.FaultMsg, tc.msg) {
					t.Errorf("r=%d %s lazy=%v: %d launches, final %v %q; want %d, %v %q",
						r, tc.name, lazy, launched, final.Status, final.FaultMsg, tc.launches, tc.status, tc.msg)
				}
				if tc.status == core.StatusOK && final.Return.I != 'A' {
					t.Errorf("r=%d %s lazy=%v: accepted %d, want the majority value", r, tc.name, lazy, final.Return.I)
				}
			}
		}
	}
}

// The blocker-(b) regression at the default budget: on a saturated fleet a
// replica reports while its siblings still wait for a slot. "Every placed
// attempt has reported" is not "every attempt has reported" — the tracker
// must spend no retry and fail nothing.
func TestResultWhileSiblingsUnplacedSpendsNoRetry(t *testing.T) {
	for _, q := range []core.QoC{
		{Mode: core.QoCVoting, Replicas: 3},
		{Mode: core.QoCVoting, Replicas: 5},
		{Mode: core.QoCRedundant, Replicas: 3},
	} {
		tr := NewTracker(newTasklet(q))
		asked := tr.Start().Launch
		launch(tr, 1, 1, 10) // one slot frees up; the siblings keep queueing
		res := okResult(1, 9)
		if q.Mode == core.QoCRedundant {
			res = faultResult(1, tvm.FaultOutOfFuel) // an OK would simply win
		}
		if d := tr.OnResult(res); d.Launch != 0 || d.Done {
			t.Fatalf("%+v: decision %+v while %d siblings are asked for but unplaced", q, d, asked-1)
		}
		if tr.Outstanding() != asked-1 || tr.Asked() != asked-1 {
			t.Fatalf("%+v: outstanding %d / asked %d, want %d", q, tr.Outstanding(), tr.Asked(), asked-1)
		}
		for a := 2; a <= asked; a++ {
			launch(tr, core.AttemptID(a), 1, core.ProviderID(10+a))
			tr.OnResult(okResult(core.AttemptID(a), 9))
		}
		if !tr.Done() || tr.Final().Status != core.StatusOK || tr.Attempts() != asked {
			t.Fatalf("%+v: final %+v after %d attempts, want OK after %d", q, tr.Final(), tr.Attempts(), asked)
		}
	}
}

func TestPooledVotingCycleDoesNotAllocate(t *testing.T) {
	task := newTasklet(core.QoC{Mode: core.QoCVoting, Replicas: 3})
	tr := NewTracker(task)
	votes := [...]core.Result{okResult(1, 7), okResult(2, 8), okResult(3, 7)}
	cycle := func() {
		tr.Reset(task)
		tr.Start()
		tr.OnLaunched(1, 1)
		tr.OnLaunched(2, 2)
		tr.OnResult(votes[0])
		if tr.OnResult(votes[1]).Launch != 1 {
			t.Fatal("disagreement did not ask for the third replica")
		}
		tr.OnLaunched(3, 3)
		if !tr.OnResult(votes[2]).Done {
			t.Fatal("2 of 3 did not complete")
		}
	}
	cycle() // grows the vote slice once
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state voting cycle allocates %.1f times", allocs)
	}
}
