package scheduler

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
)

// candidate is the reference scan's view of one provider at decision time.
type candidate struct {
	info *core.ProviderInfo
	free int
	// backlog counts attempts assigned but not yet completed (including
	// running ones).
	backlog int
}

// eligible returns the candidates with a free slot that are not excluded,
// in ascending provider-ID order.
func eligible(cands []candidate, exclude []core.ProviderID) []candidate {
	var out []candidate
	for _, c := range cands {
		if c.free > 0 && !slices.Contains(exclude, c.info.ID) {
			out = append(out, c)
		}
	}
	slices.SortFunc(out, func(a, b candidate) int { return cmp.Compare(a.info.ID, b.info.ID) })
	return out
}

// scanState is the stochastic state a reference scan for p starts from:
// random's xorshift* state or round_robin's cursor.
func scanState(p Policy) uint64 {
	if p.kind == kindRandom && p.seed == 0 {
		return 0x9e3779b97f4a7c15
	}
	return p.seed
}

// scanPick is the reference placement the index is checked against: it
// filters a fleet snapshot and ranks every eligible provider on each pick,
// in O(P log P), using the same rank functions as the index. state (see
// scanState) is advanced in place.
func scanPick(p Policy, state *uint64, t *core.Tasklet, exclude []core.ProviderID, cands []candidate) (core.ProviderID, bool) {
	el := eligible(cands, exclude)
	if len(el) == 0 {
		return 0, false
	}
	best := el[0]
	switch p.kind {
	case kindRandom:
		var out uint64
		*state, out = xorshiftMul(*state)
		best = el[out%uint64(len(el))]
	case kindRoundRobin:
		best = el[*state%uint64(len(el))]
		*state++
	case kindFastest:
		for _, c := range el[1:] {
			if c.info.Speed > best.info.Speed {
				best = c
			}
		}
	case kindLeastLoaded:
		for _, c := range el[1:] {
			if loadRank(c.backlog, c.info.Slots) < loadRank(best.backlog, best.info.Slots) {
				best = c
			}
		}
	case kindWorkSteal:
		for _, c := range el[1:] {
			if completionRank(c.backlog, c.info.Slots, c.info.Speed) <
				completionRank(best.backlog, best.info.Slots, best.info.Speed) {
				best = c
			}
		}
	case kindReliable:
		for _, c := range el[1:] {
			if reliabilityRank(c.info.Reliability, c.info.Speed) >
				reliabilityRank(best.info.Reliability, best.info.Speed) {
				best = c
			}
		}
	case kindDeadline:
		if t == nil || t.QoC.Deadline <= 0 {
			return scanPick(Policy{kind: kindWorkSteal}, state, t, exclude, cands)
		}
		fuel := t.Fuel
		if fuel == 0 {
			fuel = 1
		}
		// The least loaded provider fast enough for the budget; when none
		// is, best effort on the fastest.
		var qualified *candidate
		for i, c := range el {
			if fasterCandidate(c.info.Speed, c.info.ID, best.info.Speed, best.info.ID) {
				best = c
			}
			if exec := c.info.ExpectedExec(fuel); exec > 0 && exec <= t.QoC.Deadline {
				if qualified == nil || loadRank(c.backlog, c.info.Slots) < loadRank(qualified.backlog, qualified.info.Slots) {
					qualified = &el[i]
				}
			}
		}
		if qualified != nil {
			best = *qualified
		}
	}
	return best.info.ID, true
}

func TestEligibleFiltersBusyAndExcluded(t *testing.T) {
	info := func(id core.ProviderID) *core.ProviderInfo {
		return &core.ProviderInfo{ID: id, Speed: 10, Slots: 2, Reliability: 1}
	}
	cands := []candidate{
		{info: info(3), free: 2, backlog: 0},
		{info: info(1), free: 0, backlog: 2}, // busy
		{info: info(2), free: 1, backlog: 1},
		{info: info(4), free: 1, backlog: 0},
	}
	el := eligible(cands, []core.ProviderID{3})
	if len(el) != 2 || el[0].info.ID != 2 || el[1].info.ID != 4 {
		t.Fatalf("eligible = %v, want providers 2 and 4 in ID order", el)
	}
}

// mirrorFleet is the reference state for the differential property test:
// the reference scan reads it as a candidate slice, the index receives the
// equivalent event stream. Info pointers are shared with the index, exactly
// as the broker shares providerState.info.
type mirrorFleet struct {
	provs  []*mirrorProv
	nextID core.ProviderID
}

type mirrorProv struct {
	info    *core.ProviderInfo
	free    int
	backlog int
}

var (
	tieSpeeds       = []float64{10, 50, 50, 100, 100, 250}
	tieReliabilties = []float64{1, 1, 0.75, 0.5}
)

func (m *mirrorFleet) join(rng *rand.Rand, ix *Index) {
	m.nextID++
	slots := 1 + rng.Intn(4)
	p := &mirrorProv{
		info: &core.ProviderInfo{
			ID:          m.nextID,
			Speed:       tieSpeeds[rng.Intn(len(tieSpeeds))],
			Slots:       slots,
			Reliability: tieReliabilties[rng.Intn(len(tieReliabilties))],
		},
		free: slots,
	}
	m.provs = append(m.provs, p)
	ix.Upsert(p.info, p.free, p.backlog)
}

// candidates returns the fleet in randomized order: the scan must not
// depend on the snapshot's order.
func (m *mirrorFleet) candidates(rng *rand.Rand) []candidate {
	cands := make([]candidate, 0, len(m.provs))
	for _, p := range m.provs {
		cands = append(cands, candidate{info: p.info, free: p.free, backlog: p.backlog})
	}
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	return cands
}

func (m *mirrorFleet) byID(id core.ProviderID) *mirrorProv {
	for _, p := range m.provs {
		if p.info.ID == id {
			return p
		}
	}
	return nil
}

// TestIndexMatchesLegacyUnderChurn is the differential property test: for
// every policy, a randomized stream of joins, leaves, speed and reliability
// changes, completions, and picks (with random exclusions, fuel, and
// deadlines) must make the index return exactly the provider the reference
// scan returns, step for step.
func TestIndexMatchesLegacyUnderChurn(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 8; trial++ {
				pol, err := New(name, uint64(trial)+1)
				if err != nil {
					t.Fatal(err)
				}
				runChurnTrial(t, pol, pol, int64(trial))
			}
		})
	}
}

// TestZeroPolicyIsWorkSteal checks that the zero Policy is work_steal: equal
// as a value, and an index built from it picks exactly as the work_steal
// scan does under the churn stream.
func TestZeroPolicyIsWorkSteal(t *testing.T) {
	ws, err := New("work_steal", 0)
	if err != nil {
		t.Fatal(err)
	}
	if ws != (Policy{}) || NewWorkSteal() != (Policy{}) {
		t.Fatalf("work_steal = %+v, NewWorkSteal() = %+v; want the zero Policy", ws, NewWorkSteal())
	}
	for trial := 0; trial < 8; trial++ {
		runChurnTrial(t, Policy{}, ws, int64(trial))
	}
}

// runChurnTrial drives an index built from pol and the reference scan for
// ref through one randomized event stream and fails at the first pick on
// which they differ.
func runChurnTrial(t *testing.T, pol, ref Policy, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed*7919 + 13))
	ix, err := NewIndexFor(pol)
	if err != nil {
		t.Fatal(err)
	}
	state := scanState(ref)

	m := &mirrorFleet{}
	for i := 0; i < 3+rng.Intn(6); i++ {
		m.join(rng, ix)
	}

	deadlines := []time.Duration{0, time.Millisecond, 100 * time.Millisecond, 10 * time.Second}
	var excl []core.ProviderID

	for step := 0; step < 600; step++ {
		switch op := rng.Intn(10); {
		case op == 0: // join
			m.join(rng, ix)
		case op == 1 && len(m.provs) > 1: // leave
			i := rng.Intn(len(m.provs))
			ix.Remove(m.provs[i].info.ID)
			m.provs = append(m.provs[:i], m.provs[i+1:]...)
		case op == 2: // a completion somewhere, with reliability drift
			p := m.provs[rng.Intn(len(m.provs))]
			if p.backlog > 0 {
				p.info.Reliability = tieReliabilties[rng.Intn(len(tieReliabilties))]
				p.free++
				p.backlog--
				ix.Complete(p.info.ID)
			}
		case op == 3: // heartbeat-style refresh with a speed change
			p := m.provs[rng.Intn(len(m.provs))]
			p.info.Speed = tieSpeeds[rng.Intn(len(tieSpeeds))]
			ix.Upsert(p.info, p.free, p.backlog)
		default: // pick
			excl = excl[:0]
			for _, p := range m.provs {
				if rng.Intn(4) == 0 {
					excl = append(excl, p.info.ID)
				}
			}
			fuel := uint64(rng.Intn(3)) * 500_000 // includes zero
			task := core.Tasklet{Fuel: fuel}
			if ref.kind == kindDeadline {
				task.QoC.Deadline = deadlines[rng.Intn(len(deadlines))]
			}
			wantID, wantOK := scanPick(ref, &state, &task, excl, m.candidates(rng))
			gotID, gotOK := ix.Pick(&task, excl)
			if wantID != gotID || wantOK != gotOK {
				t.Fatalf("step %d: scan picked (%d,%v), index picked (%d,%v)",
					step, wantID, wantOK, gotID, gotOK)
			}
			if wantOK {
				p := m.byID(wantID)
				p.free--
				p.backlog++
				ix.Assign(wantID)
			}
		}
		if ix.Len() != len(m.provs) {
			t.Fatalf("step %d: index has %d providers, mirror %d", step, ix.Len(), len(m.provs))
		}
		free := 0
		for _, p := range m.provs {
			free += p.free
		}
		if ix.FreeSlots() != free {
			t.Fatalf("step %d: index free=%d, mirror free=%d", step, ix.FreeSlots(), free)
		}
	}
}

// TestIndexOutOfOrderUpsert covers the ring's splice path: random and
// round_robin indexes built from IDs arriving out of order must still agree
// with the reference scan (the simulator and tests may upsert non-monotonic
// IDs; the broker's are always monotonic).
func TestIndexOutOfOrderUpsert(t *testing.T) {
	for _, name := range []string{"random", "round_robin"} {
		t.Run(name, func(t *testing.T) {
			pol, _ := New(name, 11)
			ix, err := NewIndexFor(pol)
			if err != nil {
				t.Fatal(err)
			}
			var cands []candidate
			for _, id := range []core.ProviderID{5, 3, 9, 1, 7, 2} {
				info := &core.ProviderInfo{ID: id, Speed: 100, Slots: 2, Reliability: 1}
				ix.Upsert(info, 2, 0)
				cands = append(cands, candidate{info: info, free: 2, backlog: 0})
			}
			state := scanState(pol)
			task := core.Tasklet{Fuel: 1000}
			for i := 0; i < 40; i++ {
				wantID, wantOK := scanPick(pol, &state, &task, nil, cands)
				gotID, gotOK := ix.Pick(&task, nil)
				if wantID != gotID || wantOK != gotOK {
					t.Fatalf("pick %d: scan (%d,%v), index (%d,%v)", i, wantID, wantOK, gotID, gotOK)
				}
			}
		})
	}
}

// TestIndexPickAllocFree pins the 0 allocs/op claim for the full indexed
// pick cycle (Pick with exclusions, Assign, Complete).
func TestIndexPickAllocFree(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			pol, _ := New(name, 3)
			ix, err := NewIndexFor(pol)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 64; i++ {
				ix.Upsert(&core.ProviderInfo{
					ID:          core.ProviderID(i + 1),
					Speed:       tieSpeeds[i%len(tieSpeeds)],
					Slots:       4,
					Reliability: 1,
				}, 4, 0)
			}
			task := core.Tasklet{Fuel: 1_000_000, QoC: core.QoC{Deadline: time.Second}}
			excl := []core.ProviderID{2, 5}

			cycle := func() {
				id, ok := ix.Pick(&task, excl)
				if !ok {
					t.Fatal("no pick")
				}
				ix.Assign(id)
				ix.Complete(id)
			}
			cycle() // warm scratch buffers
			if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
				t.Fatalf("indexed pick cycle allocated %.1f per op, want 0", allocs)
			}
		})
	}
}
