// Package scheduler implements the computation-placement policies the
// Tasklet broker (and the simulator) use to map tasklets onto heterogeneous
// providers. Policies are synchronous and deterministic given their seed;
// the same implementation runs in the live broker and in the discrete-event
// simulator, which is what makes the heterogeneity experiments (E4)
// apples-to-apples.
//
// A Policy is a plain value naming a rule and its seed; NewIndexFor builds
// the incremental Index (index.go) that places work under that rule. The
// caller feeds provider events (register, assign, complete, disconnect)
// into per-policy ordered structures and each pick is a heap peek or an
// order-statistics query (O(log P) per pick, no allocations). The tests
// check the index pick for pick against a reference filter-and-rank scan
// over a fleet snapshot (index_test.go).
package scheduler

import (
	"fmt"

	"repro/internal/core"
)

// Policy selects a placement rule and the seed its stochastic state starts
// from. It is comparable; the zero value is work_steal. Build one with New
// (or use the zero value) and pass it to NewIndexFor.
type Policy struct {
	kind policyKind
	seed uint64 // random only; New clears it for the other rules
}

type policyKind uint8

const (
	kindWorkSteal policyKind = iota // the zero Policy
	kindRandom
	kindRoundRobin
	kindFastest
	kindLeastLoaded
	kindReliable
	kindDeadline
)

// The rules, by name:
//
//	random        uniform among eligible providers (the paper's baseline,
//	              blind to heterogeneity)
//	round_robin   cycles through eligible providers in ID order
//	fastest       the fastest provider with a free slot
//	least_loaded  the lowest backlog-per-slot ratio, regardless of speed
//	work_steal    the earliest expected completion of one more attempt,
//	              backlog and speed both counted
//	reliable      speed weighted by the broker-tracked completion ratio
//	deadline      for tasklets with a deadline, the least loaded provider
//	              fast enough to meet it (else the fastest); work_steal
//	              for the rest
var kinds = map[string]policyKind{
	"random":       kindRandom,
	"round_robin":  kindRoundRobin,
	"fastest":      kindFastest,
	"least_loaded": kindLeastLoaded,
	"work_steal":   kindWorkSteal,
	"reliable":     kindReliable,
	"deadline":     kindDeadline,
}

// Names lists the registered policy names accepted by New.
func Names() []string {
	return []string{"random", "round_robin", "fastest", "least_loaded", "work_steal", "reliable", "deadline"}
}

// New returns the policy with the given name; seed feeds the random rule.
func New(name string, seed uint64) (Policy, error) {
	k, ok := kinds[name]
	if !ok {
		return Policy{}, fmt.Errorf("scheduler: unknown policy %q (want one of %v)", name, Names())
	}
	if k != kindRandom {
		seed = 0
	}
	return Policy{kind: k, seed: seed}, nil
}

// NewWorkSteal returns the work_steal policy, the zero Policy.
func NewWorkSteal() Policy { return Policy{} }

// ---------- shared ranking functions ----------
//
// Each rank is computed by exactly one function, shared by the index and
// the reference scan in the tests, so the two compare bit-identical float
// values and therefore make bit-identical picks.

// loadRank is the backlog-per-slot ratio minimized by least_loaded (and by
// deadline among deadline-qualified providers).
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

// reliabilityRank is the score maximized by reliable: completion ratio
// squared, weighted by speed.
func reliabilityRank(reliability, speed float64) float64 {
	if reliability <= 0 {
		reliability = 0.01
	}
	return reliability * reliability * (speed + 1)
}

// fasterCandidate reports whether a beats b under fastest's ordering:
// strictly higher speed, ties broken by lower ID.
func fasterCandidate(aSpeed float64, aID core.ProviderID, bSpeed float64, bID core.ProviderID) bool {
	if aSpeed != bSpeed {
		return aSpeed > bSpeed
	}
	return aID < bID
}

// defaultRandomSeed replaces a zero random seed, which would leave the
// xorshift* generator stuck at zero.
const defaultRandomSeed = 0x9e3779b97f4a7c15

// xorshiftMul advances the xorshift* generator state and returns (next
// state, output).
func xorshiftMul(state uint64) (uint64, uint64) {
	x := state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	return x, x * 0x2545f4914f6cdd1d
}
