package dispatch

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/wire"
)

// nopDriver arms real timers and drops everything else.
type nopDriver struct{}

func (nopDriver) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }
func (nopDriver) Schedule()                                 {}
func (nopDriver) Deliver(*lifecycle.Effect)                 {}

// nopLink discards what the core sends a provider.
type nopLink struct{}

func (nopLink) Assign(*wire.AssignBatch) {}
func (nopLink) Cancel(core.AttemptID)    {}

// benchCore builds a one-stripe core without memo and p registered
// four-slot providers of assorted speeds.
func benchCore(p int) *Core {
	c := New(Config{}, nopDriver{})
	for i := 0; i < p; i++ {
		pr := NewProvider(core.ProviderInfo{ID: core.ProviderID(i + 1)}, nopLink{})
		c.Register(pr, &wire.Register{Slots: 4, Speed: float64(1 + (i*37)%100)})
	}
	return c
}

// enqueueBatch queues k fresh pending tasklets (no memo keys, so each
// submission queues exactly one launch).
func enqueueBatch(c *Core, seq *uint64, k int) {
	evs := make([]lifecycle.Event, 0, k)
	for i := 0; i < k; i++ {
		*seq++
		ev, _ := c.SubmitEvent(core.Tasklet{Job: 1, Index: i, Fuel: 1_000_000}, *seq, "", false)
		evs = append(evs, ev)
	}
	c.Feed([][]lifecycle.Event{evs})
}

// drainBatch completes every attempt of one benchmark iteration through
// the result path, so the next iteration sees an idle fleet, and folds the
// settlements into the index outside the timed pass.
func drainBatch(c *Core, b *testing.B) {
	part := c.parts[0]
	byProv := map[core.ProviderID][]wire.AttemptResult{}
	part.mu.Lock()
	part.life.VisitAttempts(func(id core.AttemptID, tid core.TaskletID, pid core.ProviderID, _ bool) {
		byProv[pid] = append(byProv[pid], wire.AttemptResult{Attempt: id, Tasklet: tid, Status: core.StatusOK})
	})
	part.mu.Unlock()
	for pid, results := range byProv {
		rs := c.NewResults(c.providers[pid])
		for i := range results {
			rs.Add(&results[i])
		}
		rs.Apply()
	}
	c.mu.Lock()
	c.syncDirtyProvidersLocked()
	c.mu.Unlock()
	if n := c.Pending(); n != 0 {
		b.Fatalf("%d tasklets unplaced", n)
	}
	if n := c.Live(); n != 0 {
		b.Fatalf("%d tasklets still live in the engine", n)
	}
}

// BenchmarkBrokerPlacement measures a full placement pass over a batch of
// 256 pending tasklets against a fleet of P providers, exercising the real
// Pass (queue walk, exclusion building, launch bookkeeping, batch staging).
// ns/op is per batch, not per pick.
func BenchmarkBrokerPlacement(b *testing.B) {
	const batch = 256
	for _, p := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			c := benchCore(p)
			var seq uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				enqueueBatch(c, &seq, batch)
				b.StartTimer()
				c.Pass()
				b.StopTimer()
				drainBatch(c, b)
				b.StartTimer()
			}
		})
	}
}
