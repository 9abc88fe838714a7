// Package qoc implements the Quality-of-Computation engine: the state
// machine that turns raw execution attempts into final tasklet results
// according to the tasklet's QoC goals (best-effort, redundant, voting).
//
// The engine is transport-agnostic: the live broker and the discrete-event
// simulator both drive Tracker instances, feeding attempt outcomes in and
// acting on the returned Decisions (launch more attempts, cancel redundant
// ones, deliver the final result).
package qoc

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/tvm"
)

// DefaultRetries is the re-issue budget applied when QoC.MaxRetries is zero.
const DefaultRetries = 3

// Decision tells the caller what to do after a state change.
type Decision struct {
	// Launch is the number of new attempts to schedule now.
	Launch int
	// Cancel lists outstanding attempts that became redundant (their
	// results can no longer affect the outcome), in launch order; the
	// caller should send best-effort cancellations. It is the tracker's
	// scratch, valid until the tracker's next Reset.
	Cancel []core.AttemptID
	// Done reports that the tasklet reached a final state; Final is valid.
	Done bool
	// Final is the tasklet's final result when Done.
	Final core.Result
}

// vote is one successful result on record under voting: its result hash and
// the provider that cast it. The result itself is not kept — a majority is
// always completed by the vote that arrives last, and that one is in hand.
type vote struct {
	hash     uint64
	provider core.ProviderID
}

// inflight is one attempt in flight and the provider running it.
type inflight struct {
	attempt  core.AttemptID
	provider core.ProviderID
}

// Tracker manages the attempt lifecycle of a single tasklet.
// It is not safe for concurrent use; the broker serializes per-tasklet
// events through its scheduling loop.
type Tracker struct {
	tasklet *core.Tasklet
	goal    core.QoC

	// attempts lists every attempt in flight, in launch order. It holds
	// at most Replicas+MaxRetries entries, so a linear search beats a map,
	// and its storage is reused across Reset. cancel is complete's scratch
	// for Decision.Cancel.
	attempts []inflight
	cancel   []core.AttemptID
	// asked counts launches handed out in a Decision that the caller has not
	// yet placed (OnLaunched) or handed back (Refuse). Together with attempts
	// it is everything that can still report, so "has everything reported?"
	// is Outstanding() == 0 — never len(attempts) == 0, which on a saturated
	// fleet is true while sibling replicas still wait for a slot.
	asked int
	// votes is the voting tally and best the size of its largest agreeing
	// group, kept as votes arrive.
	votes []vote
	best  int
	// lastFailure remembers the most recent non-OK result for error
	// reporting when the tasklet ultimately fails.
	lastFailure core.Result
	hasFailure  bool

	launched int // total attempts the caller placed
	// spare is the part of the replica set not asked for yet (voting starts
	// with a majority only); further launches draw on it before they touch
	// retryBudget, so a tasklet never consumes more than Replicas+MaxRetries.
	spare       int
	retryBudget int

	done  bool
	final core.Result
}

// NewTracker creates the tracker for one tasklet. The tasklet's QoC is
// normalized (replica minimums, retry defaults) before use.
func NewTracker(t *core.Tasklet) *Tracker {
	tr := &Tracker{}
	tr.Reset(t)
	return tr
}

// Reset re-initializes the tracker for a new tasklet, reusing its internal
// storage. The lifecycle engine pools tracker-bearing records so the
// steady-state submit→result cycle allocates nothing.
func (tr *Tracker) Reset(t *core.Tasklet) {
	goal := t.QoC.Normalize()
	retries := goal.MaxRetries
	if retries == 0 {
		retries = DefaultRetries
	}
	tr.tasklet = t
	tr.goal = goal
	tr.attempts = tr.attempts[:0]
	tr.asked = 0
	tr.votes = tr.votes[:0]
	tr.best = 0
	tr.lastFailure = core.Result{}
	tr.hasFailure = false
	tr.launched = 0
	tr.spare = goal.Replicas
	tr.retryBudget = retries
	tr.done = false
	tr.final = core.Result{}
}

// Tasklet returns the tracked tasklet.
func (tr *Tracker) Tasklet() *core.Tasklet { return tr.tasklet }

// Goal returns the normalized QoC in force.
func (tr *Tracker) Goal() core.QoC { return tr.goal }

// Done reports whether the tasklet reached a final state.
func (tr *Tracker) Done() bool { return tr.done }

// Final returns the final result; valid only after Done.
func (tr *Tracker) Final() core.Result { return tr.final }

// Outstanding returns the number of attempts that can still report: those
// in flight plus those asked for but not yet placed.
func (tr *Tracker) Outstanding() int { return len(tr.attempts) + tr.asked }

// Asked returns the asked-but-unplaced part of Outstanding.
func (tr *Tracker) Asked() int { return tr.asked }

// Refuse hands back n launches of the latest Decision that the caller will
// never place (an attempt cap above the tracker swallowed them), so the
// tracker does not wait for them.
func (tr *Tracker) Refuse(n int) { tr.asked -= n }

// FinalCacheable reports whether the tasklet's final result may enter the
// result cache: the tracker must be done, the final must be a successful
// execution (faults, losses, and cancellations are never memoized — they
// describe this run, not the computation), and the tasklet must not have
// opted out via QoC.NoCache. Raw attempt outcomes are never cacheable; only
// this QoC-finalized result is, which under voting means it already carries
// majority agreement.
func (tr *Tracker) FinalCacheable() bool {
	return tr.done && tr.final.Status == core.StatusOK && !tr.goal.NoCache
}

// Attempts reports the total number of attempts launched so far.
func (tr *Tracker) Attempts() int { return tr.launched }

// LastFailure returns the most recent non-OK attempt result, if any.
func (tr *Tracker) LastFailure() (core.Result, bool) {
	return tr.lastFailure, tr.hasFailure
}

// AppendActiveProviders appends to buf the providers the next attempt must
// avoid so that replicas stay on distinct providers — those executing an
// attempt now and, under voting, those whose vote is already on record (a
// provider must not vote twice) — and returns the extended slice. Callers
// pass a scratch slice (typically buf[:0]) reused across placement attempts.
func (tr *Tracker) AppendActiveProviders(buf []core.ProviderID) []core.ProviderID {
	for _, a := range tr.attempts {
		buf = append(buf, a.provider)
	}
	for _, v := range tr.votes {
		buf = append(buf, v.provider)
	}
	return buf
}

// Start returns the initial decision: launch the replica set — or, under
// voting, only the majority that can decide it; the rest of the set is
// launched if and when a disagreement, fault or loss leaves a deficit.
func (tr *Tracker) Start() Decision {
	n := tr.goal.Replicas
	if tr.goal.Mode == core.QoCVoting {
		n = core.Majority(n)
	}
	return tr.ask(n)
}

// ask grants n launches, from the spare replicas first and the retry budget
// after; callers have checked that the two cover n.
func (tr *Tracker) ask(n int) Decision {
	free := min(n, tr.spare)
	tr.spare -= free
	tr.retryBudget -= n - free
	tr.asked += n
	return Decision{Launch: n}
}

// OnLaunched records that the caller placed an attempt on a provider.
func (tr *Tracker) OnLaunched(id core.AttemptID, p core.ProviderID) {
	tr.attempts = append(tr.attempts, inflight{id, p})
	tr.launched++
	if tr.asked > 0 {
		tr.asked--
	}
}

// OnResult feeds one attempt outcome and returns the next decision.
// Unknown attempt IDs (duplicates, post-completion stragglers) are ignored.
func (tr *Tracker) OnResult(res core.Result) Decision {
	if tr.done {
		return Decision{Done: true, Final: tr.final}
	}
	i := slices.IndexFunc(tr.attempts, func(a inflight) bool { return a.attempt == res.Attempt })
	if i < 0 {
		return Decision{}
	}
	provider := tr.attempts[i].provider
	tr.attempts = slices.Delete(tr.attempts, i, i+1)

	// need is how many agreeing OK results complete the tasklet.
	voting, need := tr.goal.Mode == core.QoCVoting, 1
	if voting {
		need = core.Majority(tr.goal.Replicas)
	}
	// fault: a deterministic program fault (div-by-zero, index error, abort)
	// recurs on any provider. Environment faults (cancel) behave like losses.
	fault := res.Status == core.StatusFault && res.FaultCode != tvm.FaultCancelled
	switch {
	case res.Status == core.StatusOK:
		if !voting || tr.tally(res.Hash(), provider) >= need {
			return tr.complete(res)
		}
	case fault && tr.goal.Mode == core.QoCBestEffort:
		// The fault is the tasklet's true outcome; re-running wastes work.
		tr.lastFailure, tr.hasFailure = res, true
		return tr.complete(res)
	default:
		tr.lastFailure, tr.hasFailure = res, true
	}

	// The outcome decided nothing. want is how many more launches the goal
	// needs right now: the deficit of need over the best agreeing group and
	// everything that can still report — under voting after any outcome, and
	// for a faulted redundant replica, whose siblings may still succeed (the
	// fault may be fuel exhaustion on a throttled provider). A lost
	// best-effort or redundant attempt is replaced one for one.
	want := need - tr.best - tr.Outstanding()
	if !voting && !fault {
		want = 1
	}
	switch {
	case want <= 0:
		return Decision{}
	case want <= tr.spare+tr.retryBudget:
		return tr.ask(want)
	case tr.Outstanding() > 0:
		// Out of budget; what is still out decides (a partial grant could
		// not reach the goal and would only waste a slot).
		return Decision{}
	case res.Status == core.StatusOK:
		return tr.fail(res, "voting: no majority after all attempts")
	case fault:
		return tr.complete(res)
	default:
		res.Status = core.StatusLost
		return tr.fail(res, "all attempts lost and retry budget exhausted")
	}
}

// tally records a vote and returns the size of the group it joined.
func (tr *Tracker) tally(hash uint64, p core.ProviderID) int {
	n := 1
	for _, v := range tr.votes {
		if v.hash == hash {
			n++
		}
	}
	tr.votes = append(tr.votes, vote{hash, p})
	tr.best = max(tr.best, n)
	return n
}

func (tr *Tracker) complete(res core.Result) Decision {
	tr.done = true
	tr.final = res
	tr.final.Tasklet = tr.tasklet.ID
	tr.final.Job = tr.tasklet.Job
	tr.final.Index = tr.tasklet.Index
	tr.cancel = tr.cancel[:0]
	for _, a := range tr.attempts {
		tr.cancel = append(tr.cancel, a.attempt)
	}
	tr.attempts = tr.attempts[:0]
	tr.asked = 0
	return Decision{Done: true, Final: tr.final, Cancel: tr.cancel}
}

func (tr *Tracker) fail(res core.Result, msg string) Decision {
	if res.Status == core.StatusOK {
		res.Status = core.StatusFault
	}
	if res.FaultMsg == "" {
		res.FaultMsg = msg
	} else {
		res.FaultMsg = fmt.Sprintf("%s (%s)", msg, res.FaultMsg)
	}
	return tr.complete(res)
}
