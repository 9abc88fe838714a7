package scheduler

import (
	"testing"
	"time"

	"repro/internal/core"
)

// fleet registers providers with the given (id, speed, slots, free,
// backlog) tuples on a fresh index for the named policy. It returns the
// index and the providers' infos in row order.
func fleet(t *testing.T, policy string, seed uint64, rows ...[5]int) (*Index, []*core.ProviderInfo) {
	t.Helper()
	pol, err := New(policy, seed)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewIndexFor(pol)
	if err != nil {
		t.Fatal(err)
	}
	infos := make([]*core.ProviderInfo, 0, len(rows))
	for _, r := range rows {
		info := &core.ProviderInfo{
			ID:          core.ProviderID(r[0]),
			Speed:       float64(r[1]),
			Slots:       r[2],
			Reliability: 1,
		}
		ix.Upsert(info, r[3], r[4])
		infos = append(infos, info)
	}
	return ix, infos
}

func task() *core.Tasklet { return &core.Tasklet{Fuel: 1_000_000} }

func TestAllPoliciesRespectExclusionAndCapacity(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			ix, _ := fleet(t, name, 7,
				[5]int{1, 100, 4, 0, 4}, // full
				[5]int{2, 50, 4, 2, 2},
				[5]int{3, 10, 4, 4, 0},
			)
			for i := 0; i < 50; i++ {
				id, ok := ix.Pick(task(), []core.ProviderID{2})
				if !ok {
					t.Fatal("no pick despite capacity")
				}
				if id != 3 {
					t.Fatalf("picked %d; only provider 3 is eligible", id)
				}
			}
		})
	}
}

func TestAllPoliciesReportNoCandidate(t *testing.T) {
	for _, name := range Names() {
		empty, _ := fleet(t, name, 1)
		if _, ok := empty.Pick(task(), nil); ok {
			t.Errorf("%s picked from empty fleet", name)
		}
		busy, _ := fleet(t, name, 1, [5]int{1, 10, 1, 0, 1})
		if _, ok := busy.Pick(task(), nil); ok {
			t.Errorf("%s picked a busy provider", name)
		}
	}
}

// picks returns the next n picks of the named policy over three equal,
// idle providers.
func picks(t *testing.T, policy string, seed uint64, n int) []core.ProviderID {
	t.Helper()
	ix, _ := fleet(t, policy, seed, [5]int{1, 1, 1, 1, 0}, [5]int{2, 1, 1, 1, 0}, [5]int{3, 1, 1, 1, 0})
	ids := make([]core.ProviderID, n)
	for i := range ids {
		ids[i], _ = ix.Pick(task(), nil)
	}
	return ids
}

func TestRandomIsDeterministicPerSeed(t *testing.T) {
	a, b := picks(t, "random", 5, 20), picks(t, "random", 5, 20)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different sequence")
		}
	}
	c := picks(t, "random", 6, 20)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical sequences")
	}
}

// TestRandomSeedZero checks that a zero seed, which would stall the
// xorshift* generator, starts from 0x9e3779b97f4a7c15 instead.
func TestRandomSeedZero(t *testing.T) {
	zero, golden := picks(t, "random", 0, 40), picks(t, "random", 0x9e3779b97f4a7c15, 40)
	seen := map[core.ProviderID]bool{}
	for i := range zero {
		if zero[i] != golden[i] {
			t.Fatalf("seed 0 picks %v, want seed 0x9e3779b97f4a7c15's %v", zero, golden)
		}
		seen[zero[i]] = true
	}
	if len(seen) != 3 {
		t.Fatalf("seed 0 never visited some providers: %v", zero)
	}
}

func TestRandomCoversAllProviders(t *testing.T) {
	seen := map[core.ProviderID]bool{}
	for _, id := range picks(t, "random", 3, 200) {
		seen[id] = true
	}
	if len(seen) != 3 {
		t.Fatalf("random never visited some providers: %v", seen)
	}
}

func TestRoundRobinCycles(t *testing.T) {
	got := picks(t, "round_robin", 1, 6)
	want := []core.ProviderID{1, 2, 3, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cycle = %v, want %v", got, want)
		}
	}
}

func TestFastestFreePrefersSpeed(t *testing.T) {
	ix, infos := fleet(t, "fastest", 1, [5]int{1, 10, 1, 1, 0}, [5]int{2, 99, 1, 1, 0}, [5]int{3, 50, 1, 1, 0})
	if id, _ := ix.Pick(task(), nil); id != 2 {
		t.Fatalf("picked %d, want fastest (2)", id)
	}
	// When the fastest is busy, fall to next fastest.
	ix.Upsert(infos[1], 0, 1)
	if id, _ := ix.Pick(task(), nil); id != 3 {
		t.Fatalf("picked %d, want 3", id)
	}
}

func TestFastestFreeTieBreaksByID(t *testing.T) {
	ix, _ := fleet(t, "fastest", 1, [5]int{7, 50, 1, 1, 0}, [5]int{2, 50, 1, 1, 0})
	if id, _ := ix.Pick(task(), nil); id != 2 {
		t.Fatalf("tie broke to %d, want lower ID 2", id)
	}
}

func TestLeastLoadedBalancesByRatio(t *testing.T) {
	ix, _ := fleet(t, "least_loaded", 1,
		[5]int{1, 10, 4, 1, 3}, // ratio 0.75
		[5]int{2, 10, 2, 1, 1}, // ratio 0.5
		[5]int{3, 10, 1, 1, 1}, // ratio 1.0
	)
	if id, _ := ix.Pick(task(), nil); id != 2 {
		t.Fatalf("picked %d, want 2 (lowest load ratio)", id)
	}
}

func TestWorkStealAccountsForBacklogAndSpeed(t *testing.T) {
	// Provider 1 is fast but deeply backlogged; provider 2 is slower but
	// idle and finishes the attempt sooner.
	ix, infos := fleet(t, "work_steal", 1,
		[5]int{1, 100, 1, 1, 20},
		[5]int{2, 20, 1, 1, 0},
	)
	if id, _ := ix.Pick(task(), nil); id != 2 {
		t.Fatalf("picked %d, want 2 (idle, earlier completion)", id)
	}
	// With both idle the faster provider wins.
	ix.Upsert(infos[0], 1, 0)
	if id, _ := ix.Pick(task(), nil); id != 1 {
		t.Fatalf("picked %d, want 1 (faster, both idle)", id)
	}
}

func TestReliablePenalizesFlakyProviders(t *testing.T) {
	ix, infos := fleet(t, "reliable", 1, [5]int{1, 100, 1, 1, 0}, [5]int{2, 60, 1, 1, 0})
	infos[0].Reliability = 0.3 // fast but flaky
	ix.Upsert(infos[0], 1, 0)
	if id, _ := ix.Pick(task(), nil); id != 2 {
		t.Fatalf("picked %d, want reliable provider 2", id)
	}
}

func TestNewUnknownPolicy(t *testing.T) {
	for _, name := range []string{"nope", "", "Work_Steal"} {
		if _, err := New(name, 1); err == nil {
			t.Errorf("unknown policy %q accepted", name)
		}
	}
}

// TestPolicyNamesRoundTrip checks that New accepts every name in Names and
// that no two names select the same policy.
func TestPolicyNamesRoundTrip(t *testing.T) {
	byPolicy := map[Policy]string{}
	for _, name := range Names() {
		p, err := New(name, 1)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if prev, dup := byPolicy[p]; dup {
			t.Fatalf("New(%q) = New(%q) = %+v", name, prev, p)
		}
		byPolicy[p] = name
	}
	if len(byPolicy) != len(kinds) {
		t.Fatalf("Names() lists %d policies, New knows %d", len(byPolicy), len(kinds))
	}
}

// deadlineTask is 1e9 ops with the given budget.
func deadlineTask(budget time.Duration) *core.Tasklet {
	return &core.Tasklet{Fuel: 1_000_000_000, QoC: core.QoC{Deadline: budget}}
}

func TestDeadlinePolicyQualifiesBySpeed(t *testing.T) {
	// With a 5s budget the 100 Mops/s provider finishes in 10s (too slow);
	// the 500 Mops/s provider in 2s (qualifies).
	ix, _ := fleet(t, "deadline", 1,
		[5]int{1, 100, 1, 1, 0},
		[5]int{2, 500, 1, 1, 0},
	)
	if id, _ := ix.Pick(deadlineTask(5*time.Second), nil); id != 2 {
		t.Fatalf("picked %d, want the only deadline-meeting provider (2)", id)
	}
}

func TestDeadlinePolicyPrefersLeastLoadedAmongQualified(t *testing.T) {
	ix, _ := fleet(t, "deadline", 1,
		[5]int{1, 500, 2, 1, 1}, // qualified, loaded
		[5]int{2, 500, 2, 2, 0}, // qualified, idle
	)
	if id, _ := ix.Pick(deadlineTask(5*time.Second), nil); id != 2 {
		t.Fatalf("picked %d, want idle qualified provider 2", id)
	}
}

func TestDeadlinePolicyFallsBackToFastest(t *testing.T) {
	// Nobody meets a 1ms deadline on 1e9 ops; best effort = fastest.
	ix, _ := fleet(t, "deadline", 1,
		[5]int{1, 100, 1, 1, 0},
		[5]int{2, 500, 1, 1, 0},
	)
	if id, _ := ix.Pick(deadlineTask(time.Millisecond), nil); id != 2 {
		t.Fatalf("picked %d, want fastest provider 2", id)
	}
}

func TestDeadlinePolicyWithoutDeadlineActsLikeWorkSteal(t *testing.T) {
	rows := [][5]int{{1, 100, 1, 1, 20}, {2, 20, 1, 1, 0}}
	d, _ := fleet(t, "deadline", 1, rows...)
	ws, _ := fleet(t, "work_steal", 1, rows...)
	got, _ := d.Pick(task(), nil)
	want, _ := ws.Pick(task(), nil)
	if got != want {
		t.Fatalf("deadline policy diverged from work_steal without a deadline: %d vs %d", got, want)
	}
}
