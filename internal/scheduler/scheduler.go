// Package scheduler implements the computation-placement policies the
// Tasklet broker (and the simulator) use to map tasklets onto heterogeneous
// providers. Policies are synchronous and deterministic given their seed;
// the same implementations run in the live broker and in the discrete-event
// simulator, which is what makes the heterogeneity experiments (E4)
// apples-to-apples.
//
// A policy is stated twice:
//
//   - Policy.Pick is the reference: the caller snapshots the fleet into a
//     []Candidate and Pick filters and ranks the whole slice (O(P log P) per
//     pick). Nothing in the broker or the simulator calls it any more; it is
//     what the index is checked against, and E10's baseline.
//   - the incremental Index (index.go) is what placement runs on: the caller
//     feeds provider events (register, assign, complete, disconnect) into
//     per-policy ordered structures and each pick is a heap peek or an
//     order-statistics query (O(log P) per pick, no allocations).
//
// The two are pick-for-pick identical — see the differential tests in
// index_test.go.
package scheduler

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/core"
)

// Candidate is the scheduler's view of one provider at decision time.
type Candidate struct {
	Info      *core.ProviderInfo
	FreeSlots int
	// Backlog counts attempts assigned but not yet completed (including
	// running ones); load-aware policies minimize Backlog/Slots.
	Backlog int
}

// Request describes one placement decision.
type Request struct {
	Tasklet *core.Tasklet
	// Exclude lists providers that must not receive this attempt (QoC
	// replicas must land on distinct providers; retried attempts avoid the
	// provider that just failed).
	Exclude map[core.ProviderID]bool
	// ExcludeIDs is the allocation-free form of Exclude: a small slice the
	// caller can reuse across picks (see qoc.Tracker.AppendActiveProviders).
	// A provider named by either field is excluded.
	ExcludeIDs []core.ProviderID
}

// excluded reports whether id is barred from receiving this attempt.
func (req *Request) excluded(id core.ProviderID) bool {
	if req.Exclude != nil && req.Exclude[id] {
		return true
	}
	for _, x := range req.ExcludeIDs {
		if x == id {
			return true
		}
	}
	return false
}

// Policy picks a provider for a tasklet attempt. Pick returns false when no
// acceptable provider exists (caller queues the attempt). Implementations
// may keep internal state (round-robin cursor, RNG, scratch buffers) and are
// safe for use from a single scheduling goroutine; they are not safe for
// concurrent use.
type Policy interface {
	Name() string
	Pick(req Request, cands []Candidate) (core.ProviderID, bool)
}

// scratch is the reusable eligible-candidate buffer every policy embeds so
// the reference scan performs no per-pick allocations (E10's baseline
// measures ranking cost, not allocator churn).
type scratch struct {
	buf []Candidate
}

// eligible filters candidates with free capacity that are not excluded into
// the policy's scratch buffer, returning them in ascending provider-ID order
// for determinism. The returned slice is valid until the next call.
func (s *scratch) eligible(req Request, cands []Candidate) []Candidate {
	out := s.buf[:0]
	for _, c := range cands {
		if c.FreeSlots <= 0 {
			continue
		}
		if req.excluded(c.Info.ID) {
			continue
		}
		out = append(out, c)
	}
	slices.SortFunc(out, func(a, b Candidate) int { return cmp.Compare(a.Info.ID, b.Info.ID) })
	s.buf = out
	return out
}

// ---------- shared ranking functions ----------
//
// Each rank is computed by exactly one function shared between the legacy
// scan and the incremental index, so the two paths compare bit-identical
// float values and therefore make bit-identical picks.

// loadRank is the backlog-per-slot ratio minimized by LeastLoaded (and by
// Deadline among deadline-qualified providers).
func loadRank(backlog, slots int) float64 {
	if slots <= 0 {
		slots = 1
	}
	return float64(backlog) / float64(slots)
}

// completionRank orders providers by expected completion time for one more
// unit of work: (backlog/slots + 1) queue units at the provider's speed.
// The tasklet's fuel is a positive factor common to every candidate in a
// single decision, so it cancels out of the comparison and the rank is
// fuel-free — which is what lets the index maintain one heap across
// requests with differing fuel.
func completionRank(backlog, slots int, speed float64) float64 {
	if speed <= 0 {
		speed = 0.001
	}
	if slots <= 0 {
		slots = 1
	}
	return (float64(backlog)/float64(slots) + 1) / speed
}

// reliabilityRank is the score maximized by Reliable: completion ratio
// squared, weighted by speed.
func reliabilityRank(reliability, speed float64) float64 {
	if reliability <= 0 {
		reliability = 0.01
	}
	return reliability * reliability * (speed + 1)
}

// fasterCandidate reports whether a beats b under FastestFree's ordering:
// strictly higher speed, ties broken by lower ID.
func fasterCandidate(aSpeed float64, aID core.ProviderID, bSpeed float64, bID core.ProviderID) bool {
	if aSpeed != bSpeed {
		return aSpeed > bSpeed
	}
	return aID < bID
}

// Random places each attempt uniformly at random among eligible providers.
// This is the paper's baseline policy: it ignores heterogeneity entirely.
type Random struct {
	rng uint64
	scratch
}

// NewRandom creates a Random policy with a deterministic seed.
func NewRandom(seed uint64) *Random {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Random{rng: seed}
}

// Name implements Policy.
func (*Random) Name() string { return "random" }

// xorshiftMul advances the xorshift* generator state and returns (next
// state, output). Shared by Random and the index so their streams stay in
// lockstep.
func xorshiftMul(state uint64) (uint64, uint64) {
	x := state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	return x, x * 0x2545f4914f6cdd1d
}

func (r *Random) next() uint64 {
	var out uint64
	r.rng, out = xorshiftMul(r.rng)
	return out
}

// Pick implements Policy.
func (r *Random) Pick(req Request, cands []Candidate) (core.ProviderID, bool) {
	el := r.eligible(req, cands)
	if len(el) == 0 {
		return 0, false
	}
	return el[r.next()%uint64(len(el))].Info.ID, true
}

// RoundRobin cycles through providers in ID order, skipping busy ones. It
// balances attempt counts but, like Random, is blind to provider speed.
type RoundRobin struct {
	cursor uint64
	scratch
}

// NewRoundRobin creates a RoundRobin policy.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Policy.
func (*RoundRobin) Name() string { return "round_robin" }

// Pick implements Policy.
func (rr *RoundRobin) Pick(req Request, cands []Candidate) (core.ProviderID, bool) {
	el := rr.eligible(req, cands)
	if len(el) == 0 {
		return 0, false
	}
	pick := el[rr.cursor%uint64(len(el))]
	rr.cursor++
	return pick.Info.ID, true
}

// FastestFree places each attempt on the fastest provider with a free slot
// (ties broken by lower ID). This is the speed-aware policy that exploits
// the providers' self-measured benchmark scores.
type FastestFree struct {
	scratch
}

// NewFastestFree creates a FastestFree policy.
func NewFastestFree() *FastestFree { return &FastestFree{} }

// Name implements Policy.
func (*FastestFree) Name() string { return "fastest" }

// Pick implements Policy.
func (f *FastestFree) Pick(req Request, cands []Candidate) (core.ProviderID, bool) {
	el := f.eligible(req, cands)
	if len(el) == 0 {
		return 0, false
	}
	best := el[0]
	for _, c := range el[1:] {
		if c.Info.Speed > best.Info.Speed {
			best = c
		}
	}
	return best.Info.ID, true
}

// LeastLoaded minimizes the backlog-per-slot ratio, spreading work evenly
// across providers regardless of their speed.
type LeastLoaded struct {
	scratch
}

// NewLeastLoaded creates a LeastLoaded policy.
func NewLeastLoaded() *LeastLoaded { return &LeastLoaded{} }

// Name implements Policy.
func (*LeastLoaded) Name() string { return "least_loaded" }

// Pick implements Policy.
func (l *LeastLoaded) Pick(req Request, cands []Candidate) (core.ProviderID, bool) {
	el := l.eligible(req, cands)
	if len(el) == 0 {
		return 0, false
	}
	best := el[0]
	bestRatio := loadRank(best.Backlog, best.Info.Slots)
	for _, c := range el[1:] {
		if r := loadRank(c.Backlog, c.Info.Slots); r < bestRatio {
			best, bestRatio = c, r
		}
	}
	return best.Info.ID, true
}

// WorkSteal approximates proportional-share placement: it ranks providers
// by expected completion time for one more attempt, accounting for the
// backlog already queued on each provider. With accurate speed scores this
// minimizes makespan on heterogeneous fleets.
type WorkSteal struct {
	scratch
}

// NewWorkSteal creates a WorkSteal policy.
func NewWorkSteal() *WorkSteal { return &WorkSteal{} }

// Name implements Policy.
func (*WorkSteal) Name() string { return "work_steal" }

// Pick implements Policy.
func (w *WorkSteal) Pick(req Request, cands []Candidate) (core.ProviderID, bool) {
	el := w.eligible(req, cands)
	if len(el) == 0 {
		return 0, false
	}
	best := el[0]
	bestCost := completionRank(best.Backlog, best.Info.Slots, best.Info.Speed)
	for _, c := range el[1:] {
		if cost := completionRank(c.Backlog, c.Info.Slots, c.Info.Speed); cost < bestCost {
			best, bestCost = c, cost
		}
	}
	return best.Info.ID, true
}

// Reliable weights speed by the broker-tracked reliability score, avoiding
// churn-prone providers for QoC-sensitive tasklets.
type Reliable struct {
	scratch
}

// NewReliable creates a Reliable policy.
func NewReliable() *Reliable { return &Reliable{} }

// Name implements Policy.
func (*Reliable) Name() string { return "reliable" }

// Pick implements Policy.
func (rel *Reliable) Pick(req Request, cands []Candidate) (core.ProviderID, bool) {
	el := rel.eligible(req, cands)
	if len(el) == 0 {
		return 0, false
	}
	best := el[0]
	bestScore := reliabilityRank(best.Info.Reliability, best.Info.Speed)
	for _, c := range el[1:] {
		if s := reliabilityRank(c.Info.Reliability, c.Info.Speed); s > bestScore {
			best, bestScore = c, s
		}
	}
	return best.Info.ID, true
}

// Deadline places deadline-carrying tasklets only on providers fast enough
// to finish within the budget (falling back to the fastest available when
// none qualifies), and behaves like WorkSteal for unconstrained tasklets.
type Deadline struct {
	steal WorkSteal
	scratch
}

// NewDeadline creates a Deadline policy.
func NewDeadline() *Deadline { return &Deadline{} }

// Name implements Policy.
func (*Deadline) Name() string { return "deadline" }

// Pick implements Policy.
func (d *Deadline) Pick(req Request, cands []Candidate) (core.ProviderID, bool) {
	t := req.Tasklet
	if t == nil || t.QoC.Deadline <= 0 {
		return d.steal.Pick(req, cands)
	}
	el := d.eligible(req, cands)
	if len(el) == 0 {
		return 0, false
	}
	fuel := t.Fuel
	if fuel == 0 {
		fuel = 1
	}
	// Qualify providers whose expected execution fits the remaining
	// budget; among them take the least loaded to preserve capacity on
	// the fastest for tighter deadlines. Track the fastest eligible as we
	// go: when nothing meets the deadline, best effort lands there.
	var best, fastest Candidate
	haveBest, haveFastest := false, false
	var bestRatio float64
	for _, c := range el {
		if !haveFastest || fasterCandidate(c.Info.Speed, c.Info.ID, fastest.Info.Speed, fastest.Info.ID) {
			fastest, haveFastest = c, true
		}
		if exec := c.Info.ExpectedExec(fuel); exec > 0 && exec <= t.QoC.Deadline {
			if r := loadRank(c.Backlog, c.Info.Slots); !haveBest || r < bestRatio {
				best, bestRatio, haveBest = c, r, true
			}
		}
	}
	if haveBest {
		return best.Info.ID, true
	}
	// Nothing meets the deadline: best effort on the fastest.
	return fastest.Info.ID, true
}

// Names lists the registered policy names accepted by New.
func Names() []string {
	return []string{"random", "round_robin", "fastest", "least_loaded", "work_steal", "reliable", "deadline"}
}

// New constructs a policy by name; seed feeds stochastic policies.
func New(name string, seed uint64) (Policy, error) {
	switch name {
	case "random":
		return NewRandom(seed), nil
	case "round_robin":
		return NewRoundRobin(), nil
	case "fastest":
		return NewFastestFree(), nil
	case "least_loaded":
		return NewLeastLoaded(), nil
	case "work_steal":
		return NewWorkSteal(), nil
	case "reliable":
		return NewReliable(), nil
	case "deadline":
		return NewDeadline(), nil
	default:
		return nil, fmt.Errorf("scheduler: unknown policy %q (want one of %v)", name, Names())
	}
}
