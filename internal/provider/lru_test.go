package provider

import (
	"testing"

	"repro/internal/core"
	"repro/internal/stdtasks"
	"repro/internal/tvm"
	"repro/internal/wire"
)

func TestProgramLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := newProgramLRU(2)
	p1, p2, p3 := &tvm.Program{}, &tvm.Program{}, &tvm.Program{}
	c.put(1, p1)
	c.put(2, p2)
	// Touch 1 so 2 becomes the eviction victim.
	if got, ok := c.get(1); !ok || got != p1 {
		t.Fatalf("get(1) = %v, %v", got, ok)
	}
	c.put(3, p3)
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	if _, ok := c.get(2); ok {
		t.Fatal("2 should have been evicted")
	}
	if got, ok := c.get(1); !ok || got != p1 {
		t.Fatal("1 should have survived (recently used)")
	}
	if got, ok := c.get(3); !ok || got != p3 {
		t.Fatal("3 should be cached")
	}
}

func TestProgramLRUOverwriteKeepsSingleEntry(t *testing.T) {
	c := newProgramLRU(2)
	p1, p2 := &tvm.Program{}, &tvm.Program{}
	c.put(1, p1)
	c.put(1, p2)
	if c.len() != 1 {
		t.Fatalf("len = %d, want 1", c.len())
	}
	if got, _ := c.get(1); got != p2 {
		t.Fatal("overwrite did not replace the entry")
	}
}

func TestProgramLRUDefaultCapacity(t *testing.T) {
	c := newProgramLRU(defaultProgramCacheSize)
	for i := 0; i < defaultProgramCacheSize+10; i++ {
		c.put(core.ProgramID(i), &tvm.Program{})
	}
	if c.len() != defaultProgramCacheSize {
		t.Fatalf("len = %d, want %d", c.len(), defaultProgramCacheSize)
	}
}

// TestProviderCacheEvictionRoundTrip drives a provider with a single-entry
// program cache: loading a second program evicts the first, a bytecode-less
// assignment of the evicted program is rejected, and re-sending the bytecode
// re-decodes and executes correctly.
func TestProviderCacheEvictionRoundTrip(t *testing.T) {
	fb := newFakeBroker(t)
	p := startProvider(t, fb, Options{Slots: 1})
	p.mu.Lock()
	p.cache = newProgramLRU(1)
	p.mu.Unlock()

	assignNoop := func(attempt core.AttemptID, includeProgram bool) *wire.Assign {
		data, err := stdtasks.Bytecode("noop")
		if err != nil {
			t.Fatal(err)
		}
		a := &wire.Assign{
			Attempt: attempt, Tasklet: core.TaskletID(attempt),
			Program: core.HashProgram(data), Fuel: 1_000_000, Seed: 1,
		}
		if includeProgram {
			a.ProgramData = data
		}
		return a
	}

	// Load spin, then noop (evicting spin from the 1-entry cache).
	if err := fb.conn.Send(assignSpin(1, 10, true)); err != nil {
		t.Fatal(err)
	}
	recvType[*wire.AttemptResult](fb)
	if err := fb.conn.Send(assignNoop(2, true)); err != nil {
		t.Fatal(err)
	}
	recvType[*wire.AttemptResult](fb)

	// Spin without bytecode must now be rejected: it was evicted.
	if err := fb.conn.Send(assignSpin(3, 10, false)); err != nil {
		t.Fatal(err)
	}
	if res := recvType[*wire.AttemptResult](fb); res.Status != core.StatusRejected {
		t.Fatalf("evicted program status = %s, want rejected", res.Status)
	}

	// Re-sending the bytecode re-decodes and runs.
	if err := fb.conn.Send(assignSpin(4, 10, true)); err != nil {
		t.Fatal(err)
	}
	if res := recvType[*wire.AttemptResult](fb); res.Status != core.StatusOK {
		t.Fatalf("re-decoded program result = %+v", res)
	}

	// Spin's re-insert evicted noop in turn: with capacity 1 only the most
	// recent program survives, so a bytecode-less noop is now rejected.
	if err := fb.conn.Send(assignNoop(5, false)); err != nil {
		t.Fatal(err)
	}
	if res := recvType[*wire.AttemptResult](fb); res.Status != core.StatusRejected {
		t.Fatalf("evicted noop status = %s, want rejected", res.Status)
	}
}
