package memo

import (
	"encoding/hex"
	"math"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/metrics"
	"repro/internal/tvm"
)

func testKey(t *testing.T, program, seed uint64, params ...tvm.Value) Key {
	t.Helper()
	k, ok := KeyFor(program, seed, params)
	if !ok {
		t.Fatalf("KeyFor(%d, %d, %v) not encodable", program, seed, params)
	}
	return k
}

func TestKeyForDistinguishesContent(t *testing.T) {
	base := testKey(t, 1, 2, tvm.Int(3))
	cases := map[string]Key{
		"program": testKey(t, 9, 2, tvm.Int(3)),
		"seed":    testKey(t, 1, 9, tvm.Int(3)),
		"params":  testKey(t, 1, 2, tvm.Int(9)),
		"arity":   testKey(t, 1, 2, tvm.Int(3), tvm.Int(3)),
		"kind":    testKey(t, 1, 2, tvm.Str("3")),
	}
	for name, k := range cases {
		if k == base {
			t.Errorf("%s variation produced the same key", name)
		}
	}
	if again := testKey(t, 1, 2, tvm.Int(3)); again != base {
		t.Error("identical inputs produced different keys")
	}
	if base.Hash() == 0 {
		t.Error("key hash is zero")
	}
}

var sinkKey Key

// TestKeyForAllocatesOnce pins KeyFor at one allocation for the parameters
// every spin tasklet carries: the key shares the buffer it was encoded into.
func TestKeyForAllocatesOnce(t *testing.T) {
	params := []tvm.Value{tvm.Int(12345)}
	if n := testing.AllocsPerRun(1000, func() { sinkKey, _ = KeyFor(7, 1, params) }); n != 1 {
		t.Fatalf("KeyFor allocates %v times per call, want 1", n)
	}
	if sinkKey != testKey(t, 7, 1, tvm.Int(12345)) {
		t.Fatal("KeyFor is not deterministic")
	}
}

func TestCacheHitReturnsDeepCopies(t *testing.T) {
	c := New(Config{})
	k := testKey(t, 1, 0, tvm.Int(1))
	c.Put(k, tvm.Arr(tvm.Int(7)), []tvm.Value{tvm.Str("e")}, 123, time.Millisecond, 0)

	e := c.Get(k, 0, 1000)
	if e == nil {
		t.Fatal("expected hit")
	}
	if e.FuelUsed != 123 || e.Exec != time.Millisecond {
		t.Fatalf("entry accounting wrong: %+v", e)
	}
	ret, em := e.CachedResult()
	ret.AsArr().Elems[0] = tvm.Int(99) // mutate the copy
	if len(em) != 1 || em[0].AsStr() != "e" {
		t.Fatalf("emitted wrong: %v", em)
	}
	ret2, _ := e.CachedResult()
	if ret2.AsArr().Elems[0].I != 7 {
		t.Fatal("CachedResult shares storage between calls")
	}
}

// TestEntrySize pins the byte-budget estimate: every stored Value counts its
// full in-memory size, a string its bytes on top and an array its elements.
func TestEntrySize(t *testing.T) {
	k := testKey(t, 1, 0, tvm.Int(1))
	fixed := len(k) + 96
	v := int(unsafe.Sizeof(tvm.Value{}))
	for _, tc := range []struct {
		name    string
		ret     tvm.Value
		emitted []tvm.Value
		want    int
	}{
		{"scalar", tvm.Int(7), nil, fixed + v},
		{"string", tvm.Str("hello"), []tvm.Value{tvm.Float(1)}, fixed + v + 5 + v},
		{"array", tvm.Arr(tvm.Int(1), tvm.Str("ab")), nil, fixed + v + v + v + 2},
	} {
		if got := entrySize(k, &Entry{Return: tc.ret, Emitted: tc.emitted}); got != tc.want {
			t.Errorf("%s: entrySize = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestValuesRoundTripUnchanged sends strings and arrays through every copy a
// result takes — the wire codec, Clone, and the memo's CachedResult — and
// expects the same wire bytes and the same HashResult each time. The bytes
// and hashes are pinned: they are what the 48-byte Value, with its own string
// and *Array fields, produced.
func TestValuesRoundTripUnchanged(t *testing.T) {
	long := strings.Repeat("xyz", 100)
	cases := []struct {
		v    tvm.Value
		wire string
		hash uint64
	}{
		{tvm.Str(""), "0400000000", 0xb65987a448a6e31},
		{tvm.Str("héllo\x00wörld"), "040000000d68c3a96c6c6f0077c3b6726c64", 0x9c28c7da5abe14b1},
		{tvm.Str(long[7:19]), "040000000c797a78797a78797a78797a78", 0x8a298eff7935b231},
		{tvm.Arr(), "0500000000", 0x9e1aecc7b12babd1},
		{
			tvm.Arr(tvm.Str("a"), tvm.Arr(tvm.Int(-3), tvm.Float(math.Copysign(0, -1)), tvm.Str("bc")), tvm.Bool(true), tvm.Nil()),
			"0500000004040000000161050000000301fffffffffffffffd0280000000000000000400000002626303000000000000000100",
			0x73fab30c3b7b1511,
		},
	}
	for _, tc := range cases {
		data, err := tvm.AppendValue(nil, tc.v)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(data); got != tc.wire {
			t.Fatalf("%s encodes as %s, want %s", tc.v, got, tc.wire)
		}
		decoded, n, err := tvm.DecodeValue(data)
		if err != nil || n != len(data) {
			t.Fatalf("%s: decode: %v (%d of %d bytes)", tc.v, err, n, len(data))
		}
		c := New(Config{})
		k := testKey(t, 1, 0)
		c.Put(k, tc.v, []tvm.Value{tc.v}, 1, 0, 0)
		ret, em := c.Get(k, 0, 10).CachedResult()
		copies := map[string]tvm.Value{"decoded": decoded, "cloned": tc.v.Clone(), "cached": ret, "cached emit": em[0]}
		for name, v := range copies {
			again, err := tvm.AppendValue(nil, v)
			if err != nil || hex.EncodeToString(again) != tc.wire {
				t.Fatalf("%s %s re-encodes as %x (%v), want %s", name, tc.v, again, err, tc.wire)
			}
			if h := tvm.HashResult(v, []tvm.Value{v}); h != tc.hash {
				t.Fatalf("%s %s hashes to %#x, want %#x", name, tc.v, h, tc.hash)
			}
		}
	}
}

func TestCacheEntryBudget(t *testing.T) {
	c := New(Config{MaxEntries: 3})
	for i := uint64(0); i < 5; i++ {
		c.Put(testKey(t, i, 0), tvm.Int(int64(i)), nil, 1, 0, 0)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (entry budget)", c.Len())
	}
	// Oldest two evicted, newest three present.
	if e := c.Get(testKey(t, 0, 0), 0, 10); e != nil {
		t.Error("entry 0 should have been evicted")
	}
	if e := c.Get(testKey(t, 4, 0), 0, 10); e == nil {
		t.Error("entry 4 should be present")
	}
}

func TestCacheByteBudget(t *testing.T) {
	big := tvm.Str(strings.Repeat("x", 1000))
	c := New(Config{MaxEntries: 1000, MaxBytes: 3500})
	for i := uint64(0); i < 5; i++ {
		c.Put(testKey(t, i, 0), big, nil, 1, 0, 0)
	}
	if c.Bytes() > 3500 {
		t.Fatalf("Bytes = %d exceeds budget 3500", c.Bytes())
	}
	if c.Len() >= 5 {
		t.Fatalf("Len = %d, byte budget should have evicted some", c.Len())
	}
	// An entry larger than the entire budget is refused outright.
	huge := tvm.Str(strings.Repeat("y", 10000))
	c.Put(testKey(t, 99, 0), huge, nil, 1, 0, 0)
	if c.Get(testKey(t, 99, 0), 0, 10) != nil {
		t.Error("oversized entry should not have been stored")
	}
	if c.Bytes() > 3500 {
		t.Fatalf("Bytes = %d exceeds budget after oversized Put", c.Bytes())
	}
}

// TestCacheOversizedReputKeepsEntry: re-putting a key, at the same or a
// higher strength, with a result larger than the whole byte budget stores
// nothing and leaves the entry it would have replaced servable.
func TestCacheOversizedReputKeepsEntry(t *testing.T) {
	c := New(Config{MaxEntries: 10, MaxBytes: 3500})
	k := testKey(t, 1, 0)
	c.Put(k, tvm.Int(7), nil, 1, 0, 1)
	huge := tvm.Str(strings.Repeat("y", 10000))
	for _, strength := range []int{1, 3} {
		c.Put(k, huge, nil, 1, 0, strength)
		e := c.Get(k, 0, 10)
		if e == nil || !e.Return.Equal(tvm.Int(7)) || e.Strength != 1 {
			t.Fatalf("after an oversized re-put at strength %d: entry %+v, want the stored 7", strength, e)
		}
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	checkCache(t, c)
}

// TestCacheHitEntrySurvivesOneSweep: the eviction hand clears a hit entry's
// visited bit and passes it over once; not hit again, it is the next to go.
func TestCacheHitEntrySurvivesOneSweep(t *testing.T) {
	c := New(Config{MaxEntries: 2})
	putN(t, c, 1, 2)
	hit(t, c, 1)
	putN(t, c, 3) // the hand clears 1 and evicts 2, never hit
	if got, want := oldestFirst(c), keysOf(t, 1, 3); !slices.Equal(got, want) {
		t.Fatalf("after the first eviction: %x, want %x", got, want)
	}
	if c.entries[testKey(t, 1, 0)].Value.(*Entry).visited {
		t.Fatal("the hand passed entry 1 without clearing its visited bit")
	}
	putN(t, c, 4)
	if got, want := oldestFirst(c), keysOf(t, 3, 4); !slices.Equal(got, want) {
		t.Fatalf("after the second eviction: %x, want %x", got, want)
	}
	checkCache(t, c)
}

func TestCacheTTLExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	c := New(Config{TTL: time.Minute, Clock: func() time.Time { return now }})
	k := testKey(t, 1, 0)
	c.Put(k, tvm.Int(1), nil, 1, 0, 0)
	now = now.Add(59 * time.Second)
	if c.Get(k, 0, 10) == nil {
		t.Fatal("entry expired before TTL")
	}
	now = now.Add(2 * time.Minute)
	if c.Get(k, 0, 10) != nil {
		t.Fatal("entry survived past TTL")
	}
	if c.Len() != 0 {
		t.Fatalf("expired entry still counted: Len = %d", c.Len())
	}
}

func TestCacheStrengthGate(t *testing.T) {
	c := New(Config{})
	k := testKey(t, 1, 0)
	c.Put(k, tvm.Int(1), nil, 1, 0, 0) // best-effort final: strength 0
	if c.Get(k, 3, 10) != nil {
		t.Fatal("voting request (strength 3) must not hit a strength-0 entry")
	}
	c.Put(k, tvm.Int(1), nil, 1, 0, 3) // voting final upgrades the entry
	if c.Get(k, 3, 10) == nil {
		t.Fatal("voting request should hit a strength-3 entry")
	}
	if c.Get(k, 0, 10) == nil {
		t.Fatal("best-effort request should hit a strength-3 entry")
	}
	// A later weak final must not downgrade the stored strength.
	c.Put(k, tvm.Int(1), nil, 1, 0, 0)
	if c.Get(k, 3, 10) == nil {
		t.Fatal("weak Put downgraded a voting entry")
	}
}

func TestCacheFuelGate(t *testing.T) {
	c := New(Config{})
	k := testKey(t, 1, 0)
	c.Put(k, tvm.Int(1), nil, 500, 0, 0)
	if c.Get(k, 0, 499) != nil {
		t.Fatal("request with fuel below the entry's FuelUsed must miss")
	}
	if c.Get(k, 0, 500) == nil {
		t.Fatal("request with exactly enough fuel should hit")
	}
}

func TestCacheMetrics(t *testing.T) {
	reg := &metrics.Registry{}
	c := New(Config{MaxEntries: 1, Metrics: reg, Prefix: "memo."})
	k1, k2 := testKey(t, 1, 0), testKey(t, 2, 0)
	c.Get(k1, 0, 10)                    // miss
	c.Put(k1, tvm.Int(1), nil, 1, 0, 0) // store
	c.Get(k1, 0, 10)                    // hit
	c.Put(k2, tvm.Int(2), nil, 1, 0, 0) // store, evicts k1

	if got := reg.Counter("memo.hits").Value(); got != 1 {
		t.Errorf("hits = %d, want 1", got)
	}
	if got := reg.Counter("memo.misses").Value(); got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
	if got := reg.Counter("memo.stores").Value(); got != 2 {
		t.Errorf("stores = %d, want 2", got)
	}
	if got := reg.Counter("memo.evictions").Value(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	if got := reg.Gauge("memo.entries").Value(); got != 1 {
		t.Errorf("entries gauge = %d, want 1", got)
	}
	if got := reg.Gauge("memo.bytes").Value(); got <= 0 {
		t.Errorf("bytes gauge = %d, want > 0", got)
	}
	if !strings.Contains(reg.Dump(), "counter memo.hits 1") {
		t.Error("metrics dump missing memo.hits")
	}
}

func TestNilCacheIsDisabled(t *testing.T) {
	var c *Cache
	k := Key("k")
	c.Put(k, tvm.Int(1), nil, 1, 0, 0)
	if c.Get(k, 0, 10) != nil {
		t.Fatal("nil cache returned a hit")
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatal("nil cache reports non-empty")
	}
}

func TestFlightTableLifecycle(t *testing.T) {
	reg := &metrics.Registry{}
	ft := NewFlightTable(reg, "memo.")
	k := FlightKey{Content: "c", Mode: 0, Replicas: 1, Fuel: 100}

	if !ft.Join(k, 1) {
		t.Fatal("first joiner must be leader")
	}
	if ft.Join(k, 2) || ft.Join(k, 3) {
		t.Fatal("later joiners must be waiters")
	}
	if got := reg.Counter("memo.coalesced").Value(); got != 2 {
		t.Fatalf("coalesced = %d, want 2", got)
	}
	if f := ft.Lookup(k); f == nil || f.Leader != 1 || len(f.Waiters) != 2 {
		t.Fatalf("flight state wrong: %+v", ft.Lookup(k))
	}

	waiters := ft.Complete(k)
	if len(waiters) != 2 || waiters[0] != 2 || waiters[1] != 3 {
		t.Fatalf("Complete returned %v, want [2 3]", waiters)
	}
	if ft.Len() != 0 {
		t.Fatal("flight not removed after Complete")
	}
	if ft.Complete(k) != nil {
		t.Fatal("double Complete returned waiters")
	}
}

func TestFlightKeySeparatesQoC(t *testing.T) {
	ft := NewFlightTable(nil, "")
	a := FlightKey{Content: "c", Mode: 0, Replicas: 1, Fuel: 100}
	b := FlightKey{Content: "c", Mode: 2, Replicas: 3, Fuel: 100}
	if !ft.Join(a, 1) || !ft.Join(b, 2) {
		t.Fatal("different QoC must not coalesce")
	}
}

func TestFlightDropWaiter(t *testing.T) {
	ft := NewFlightTable(nil, "")
	k := FlightKey{Content: "c"}
	ft.Join(k, 1)
	ft.Join(k, 2)
	ft.Join(k, 3)
	ft.DropWaiter(k, 2)
	if w := ft.Complete(k); len(w) != 1 || w[0] != 3 {
		t.Fatalf("waiters after drop = %v, want [3]", w)
	}
}

func TestFlightDropLeaderPromotes(t *testing.T) {
	ft := NewFlightTable(nil, "")
	k := FlightKey{Content: "c"}
	ft.Join(k, 1)
	ft.Join(k, 2)
	ft.Join(k, 3)

	nl, ok := ft.DropLeader(k)
	if !ok || nl != 2 {
		t.Fatalf("DropLeader = (%d, %v), want (2, true)", nl, ok)
	}
	if f := ft.Lookup(k); f == nil || f.Leader != 2 || len(f.Waiters) != 1 {
		t.Fatalf("flight after promotion: %+v", ft.Lookup(k))
	}
	ft.DropLeader(k) // promotes 3
	if nl, ok := ft.DropLeader(k); ok {
		t.Fatalf("DropLeader with no waiters returned (%d, true)", nl)
	}
	if ft.Len() != 0 {
		t.Fatal("empty flight not removed")
	}
}

func TestNilFlightTable(t *testing.T) {
	var ft *FlightTable
	if !ft.Join(FlightKey{}, 1) {
		t.Fatal("nil table must elect every joiner leader")
	}
	if ft.Complete(FlightKey{}) != nil || ft.Len() != 0 {
		t.Fatal("nil table misbehaves")
	}
	if _, ok := ft.DropLeader(FlightKey{}); ok {
		t.Fatal("nil table DropLeader returned ok")
	}
	ft.DropWaiter(FlightKey{}, 1)
	if ft.Lookup(FlightKey{}) != nil {
		t.Fatal("nil table Lookup returned a flight")
	}
}
