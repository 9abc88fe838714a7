package provider

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/tasklang"
	"repro/internal/tvm"
	"repro/internal/wire"
)

func TestProgramLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := newProgramLRU(2)
	p1, p2, p3 := &tvm.Program{}, &tvm.Program{}, &tvm.Program{}
	c.put([]byte("1"), p1)
	c.put([]byte("2"), p2)
	// Touch 1 so 2 becomes the eviction victim.
	if got, ok := c.get([]byte("1")); !ok || got != p1 {
		t.Fatalf("get(1) = %v, %v", got, ok)
	}
	c.put([]byte("3"), p3)
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	if _, ok := c.get([]byte("2")); ok {
		t.Fatal("2 should have been evicted")
	}
	if got, ok := c.get([]byte("1")); !ok || got != p1 {
		t.Fatal("1 should have survived (recently used)")
	}
	if got, ok := c.get([]byte("3")); !ok || got != p3 {
		t.Fatal("3 should be cached")
	}
}

func TestProgramLRUOverwriteKeepsSingleEntry(t *testing.T) {
	c := newProgramLRU(2)
	p1, p2 := &tvm.Program{}, &tvm.Program{}
	c.put([]byte("1"), p1)
	c.put([]byte("1"), p2)
	if c.len() != 1 {
		t.Fatalf("len = %d, want 1", c.len())
	}
	if got, _ := c.get([]byte("1")); got != p2 {
		t.Fatal("overwrite did not replace the entry")
	}
}

func TestProgramLRUDefaultCapacity(t *testing.T) {
	c := newProgramLRU(defaultProgramCacheSize)
	for i := 0; i < defaultProgramCacheSize+10; i++ {
		c.put([]byte(fmt.Sprint(i)), &tvm.Program{})
	}
	if c.len() != defaultProgramCacheSize {
		t.Fatalf("len = %d, want %d", c.len(), defaultProgramCacheSize)
	}
}

// TestProviderCacheEvictionRoundTrip drives a provider with a single-entry
// program cache: loading a second program evicts the first, and the evicted
// program, sent again with its bytes as every frame carries them, is decoded
// again and runs correctly, evicting the second in turn.
func TestProviderCacheEvictionRoundTrip(t *testing.T) {
	fb := newFakeBroker(t)
	p := startProvider(t, fb, Options{Slots: 1})
	p.mu.Lock()
	p.cache = newProgramLRU(1)
	p.mu.Unlock()
	cached := func(ab *wire.AssignBatch) bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		_, ok := p.cache.get(ab.Programs[0].Data)
		return ok
	}
	run := func(ab *wire.AssignBatch) {
		t.Helper()
		if err := fb.conn.Send(ab); err != nil {
			t.Fatal(err)
		}
		if res := fb.recvResult(); res.Status != core.StatusOK {
			t.Fatalf("attempt %d: %+v", ab.Assigns[0].Attempt, res)
		}
	}

	spin, noop := assignSpin(1, 10), assignNoop(2)
	run(spin)
	run(noop)
	if cached(spin) || !cached(noop) {
		t.Fatal("noop did not evict spin from the one-entry cache")
	}
	spin.Assigns[0].Attempt, spin.Assigns[0].Tasklet = 3, 3
	run(spin)
	if !cached(spin) || cached(noop) {
		t.Fatal("spin, decoded again, did not evict noop in turn")
	}
}

// TestBatchResolvesFromItsOwnTable: one AssignBatch whose table holds more
// distinct programs than the decode cache on a fresh provider runs every
// entry ok, because entries resolve from their own frame's table, not from
// the cache after the table was installed. An entry whose program is in
// neither the table nor the cache is still rejected.
func TestBatchResolvesFromItsOwnTable(t *testing.T) {
	const n = defaultProgramCacheSize + 1
	fb := newFakeBroker(t)
	startProvider(t, fb, Options{Slots: 2})
	ab := &wire.AssignBatch{}
	for k := 0; k < n; k++ {
		prog, err := tasklang.Compile(fmt.Sprintf("func main(n int) int { return n + %d; }", k))
		if err != nil {
			t.Fatal(err)
		}
		data, err := prog.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		id := core.ProgramID(k + 1)
		ab.Programs = append(ab.Programs, wire.ProgramBlob{ID: id, Data: data})
		ab.Assigns = append(ab.Assigns, wire.Assign{
			Attempt: core.AttemptID(k + 1), Tasklet: core.TaskletID(k + 1), Program: id,
			Params: []tvm.Value{tvm.Int(1)}, Fuel: 1_000_000, Seed: 1,
		})
	}
	ab.Assigns = append(ab.Assigns, wire.Assign{
		Attempt: n + 1, Tasklet: n + 1, Program: 12345, Params: []tvm.Value{tvm.Int(1)}, Fuel: 1_000_000,
	})
	if err := fb.conn.Send(ab); err != nil {
		t.Fatal(err)
	}
	for range ab.Assigns {
		res := fb.recvResult()
		if res.Attempt == n+1 {
			if res.Status != core.StatusRejected {
				t.Fatalf("entry with an unknown program: status %s, want rejected", res.Status)
			}
			continue
		}
		if res.Status != core.StatusOK || res.Return.I != int64(res.Attempt) {
			t.Fatalf("attempt %d: %s (%s) returned %s, want ok returning %d",
				res.Attempt, res.Status, res.FaultMsg, res.Return, res.Attempt)
		}
	}
}
