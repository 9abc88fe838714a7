package memo

import (
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/tvm"
)

// checkCache verifies the cache's internal consistency: the map and the
// order list hold the same entries, Len and Bytes agree with them and stay
// within budget, and the hand is nil or on a live entry.
func checkCache(t testing.TB, c *Cache) {
	t.Helper()
	n, bytes, handLive := 0, 0, c.hand == nil
	for el := c.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*Entry)
		if c.entries[e.key] != el {
			t.Fatalf("entry %x is in the order but the map holds %v", e.key, c.entries[e.key])
		}
		if el == c.hand {
			handLive = true
		}
		n++
		bytes += e.size
	}
	if n != len(c.entries) || n != c.Len() {
		t.Fatalf("order holds %d entries, map %d, Len %d", n, len(c.entries), c.Len())
	}
	if n > c.maxEntries {
		t.Fatalf("Len %d exceeds MaxEntries %d", n, c.maxEntries)
	}
	if bytes != c.Bytes() || bytes > c.maxBytes {
		t.Fatalf("Bytes %d, entries sum to %d, MaxBytes %d", c.Bytes(), bytes, c.maxBytes)
	}
	if !handLive {
		t.Fatal("hand points at an entry that is no longer in the cache")
	}
}

// oldestFirst lists the cached keys from the oldest entry to the newest.
func oldestFirst(c *Cache) []Key {
	var ks []Key
	for el := c.order.Back(); el != nil; el = el.Prev() {
		ks = append(ks, el.Value.(*Entry).key)
	}
	return ks
}

func handKey(c *Cache) Key {
	if c.hand == nil {
		return ""
	}
	return c.hand.Value.(*Entry).key
}

func putN(t *testing.T, c *Cache, ids ...uint64) {
	t.Helper()
	for _, id := range ids {
		c.Put(testKey(t, id, 0), tvm.Int(int64(id)), nil, 1, 0, 0)
	}
}

func hit(t *testing.T, c *Cache, id uint64) {
	t.Helper()
	if c.Get(testKey(t, id, 0), 0, 10) == nil {
		t.Fatalf("expected a hit on %d", id)
	}
}

func keysOf(t *testing.T, ids ...uint64) []Key {
	ks := make([]Key, len(ids))
	for i, id := range ids {
		ks[i] = testKey(t, id, 0)
	}
	return ks
}

// TestSieveEvictionResumesAtHand: the second eviction starts where the first
// stopped, not at the oldest entry, and a hit does not move an entry. LRU
// (or a hand restarting at the tail) would evict 1 here.
func TestSieveEvictionResumesAtHand(t *testing.T) {
	c := New(Config{MaxEntries: 3})
	putN(t, c, 1, 2, 3)
	hit(t, c, 1)
	putN(t, c, 4) // clears 1, evicts 2; the hand rests on 3
	if got := handKey(c); got != testKey(t, 3, 0) {
		t.Fatalf("hand on %x after the first eviction, want entry 3", got)
	}
	hit(t, c, 3)
	putN(t, c, 5) // resumes at 3: clears it, evicts 4
	if got, want := oldestFirst(c), keysOf(t, 1, 3, 5); !slices.Equal(got, want) {
		t.Fatalf("cache holds %x, want %x", got, want)
	}
	checkCache(t, c)
}

// TestSieveHandSurvivesRemoval removes the entry under the hand outside an
// eviction — by TTL expiry in Get and by a stronger Put replacing it — and
// expects the hand to move on to the next newer entry.
func TestSieveHandSurvivesRemoval(t *testing.T) {
	for _, how := range []string{"expiry", "upgrade"} {
		t.Run(how, func(t *testing.T) {
			now := time.Unix(1000, 0)
			c := New(Config{MaxEntries: 3, TTL: time.Minute, Clock: func() time.Time { return now }})
			putN(t, c, 1, 2, 3)
			hit(t, c, 1)
			putN(t, c, 4) // the hand rests on 3
			k3 := testKey(t, 3, 0)
			switch how {
			case "expiry":
				now = now.Add(2 * time.Minute)
				if c.Get(k3, 0, 10) != nil {
					t.Fatal("expired entry served")
				}
				now = now.Add(-2 * time.Minute)
			case "upgrade":
				c.Put(k3, tvm.Int(3), nil, 1, 0, 3)
			}
			if got := handKey(c); got != testKey(t, 4, 0) {
				t.Fatalf("hand on %x after removing 3, want entry 4", got)
			}
			checkCache(t, c)
			putN(t, c, 5, 6, 7) // evictions start from the moved hand
			checkCache(t, c)
			// A hand sent back to the oldest entry would evict 1 on the way.
			if got, want := oldestFirst(c), keysOf(t, 1, 6, 7); !slices.Equal(got, want) {
				t.Fatalf("cache holds %x, want %x", got, want)
			}
		})
	}
}

// TestSieveLargePutEvictsSeveral: one entry that needs the room of several
// smaller ones evicts as many as the byte budget requires, and no more.
func TestSieveLargePutEvictsSeveral(t *testing.T) {
	reg := &metrics.Registry{}
	small := entrySize(testKey(t, 1, 0), &Entry{Return: tvm.Int(0)})
	c := New(Config{MaxEntries: 100, MaxBytes: 4 * small, Metrics: reg})
	putN(t, c, 1, 2, 3, 4)
	big := tvm.Str(strings.Repeat("x", 2*small))
	c.Put(testKey(t, 9, 0), big, nil, 1, 0, 0) // needs three entries' room
	if got, want := oldestFirst(c), keysOf(t, 4, 9); !slices.Equal(got, want) {
		t.Fatalf("cache holds %x, want %x", got, want)
	}
	if got := reg.Counter("memo.evictions").Value(); got != 3 {
		t.Fatalf("evictions = %d, want 3", got)
	}
	checkCache(t, c)
}

// TestSieveZipfMissRatio replays Zipf(1.1) content over four times the
// default cache's entries, the shape of the benchmark's memo_zipf, and bounds
// the miss ratio after warm-up. The bound sits between LRU, which reads
// 0.118–0.120 on these seeds, and SIEVE at ≈ 0.100; a cache of the 4096 most
// popular keys would read ≈ 0.083.
func TestSieveZipfMissRatio(t *testing.T) {
	const (
		pool     = 16384
		warmup   = 50_000
		measured = 250_000
		bound    = 0.108
	)
	keys := make([]Key, pool)
	for i := range keys {
		keys[i] = testKey(t, 1, 0, tvm.Int(int64(i)))
	}
	for _, seed := range []uint64{1, 2, 3} {
		c := New(Config{})
		z := rand.NewZipf(rand.New(rand.NewPCG(seed, 0)), 1.1, 1, pool-1)
		misses := 0
		for i := 0; i < warmup+measured; i++ {
			k := keys[z.Uint64()]
			if c.Get(k, 0, 1) != nil {
				continue
			}
			if i >= warmup {
				misses++
			}
			c.Put(k, tvm.Int(0), nil, 1, 0, 0)
		}
		r := float64(misses) / measured
		t.Logf("seed %d: miss ratio %.4f", seed, r)
		if r > bound {
			t.Errorf("seed %d: miss ratio %.4f, want <= %.3f", seed, r, bound)
		}
	}
}

// TestCacheConcurrentHammer drives one cache from several goroutines at once,
// as the broker's partition engines do: gets, puts, strength upgrades and
// TTL expiry on a shared clock. Every hit must return the value stored under
// its key, and the cache must be consistent afterwards.
func TestCacheConcurrentHammer(t *testing.T) {
	const (
		workers = 4
		ops     = 5000
		pool    = 48
	)
	var nanos atomic.Int64
	c := New(Config{
		MaxEntries: 16,
		TTL:        time.Millisecond,
		Clock:      func() time.Time { return time.Unix(0, nanos.Load()) },
	})
	keys := make([]Key, pool)
	for i := range keys {
		keys[i] = testKey(t, uint64(i), 0)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(seed, 0))
			for i := 0; i < ops; i++ {
				id := r.IntN(pool)
				switch r.IntN(8) {
				case 0:
					nanos.Add(int64(50 * time.Microsecond))
				case 1, 2:
					c.Put(keys[id], tvm.Int(int64(id)), nil, 1, 0, r.IntN(3))
				default:
					if e := c.Get(keys[id], 0, 10); e != nil && e.Return.I != int64(id) {
						t.Errorf("key %d served value %d", id, e.Return.I)
					}
				}
				if i%500 == 0 {
					_ = c.Len() + c.Bytes()
				}
			}
		}(uint64(w))
	}
	wg.Wait()
	checkCache(t, c)
}

// modelItem and sieveModel are a slice-backed reference of the cache: items
// oldest first, the hand an index into them (-1: start at the oldest).
type modelItem struct {
	key      Key
	size     int
	strength int
	fuel     uint64
	stored   time.Time
	serial   int64
	visited  bool
}

type sieveModel struct {
	items                []modelItem
	hand                 int
	maxEntries, maxBytes int
	bytes                int
}

func (m *sieveModel) find(k Key) int {
	return slices.IndexFunc(m.items, func(it modelItem) bool { return it.key == k })
}

func (m *sieveModel) remove(i int) {
	m.bytes -= m.items[i].size
	m.items = slices.Delete(m.items, i, i+1)
	if i < m.hand {
		m.hand--
	} else if m.hand == len(m.items) {
		m.hand = -1
	}
}

func (m *sieveModel) put(it modelItem) {
	i := m.find(it.key)
	if i >= 0 && m.items[i].strength > it.strength || it.size > m.maxBytes {
		return
	}
	if i >= 0 {
		m.remove(i)
	}
	for len(m.items) >= m.maxEntries || m.bytes+it.size > m.maxBytes {
		i := max(m.hand, 0)
		for m.items[i].visited {
			m.items[i].visited = false
			if i++; i == len(m.items) {
				i = 0
			}
		}
		m.hand = i
		m.remove(i)
	}
	m.items = append(m.items, it)
	m.bytes += it.size
}

// FuzzCache runs random Put/Get/clock sequences on small caches with tight
// byte budgets and compares the cache, after every operation, with the
// slice-backed model: same entries in the same order, same visited bits, same
// hand, same hits. It also checks the cache's own invariants (checkCache) and
// that no Get serves an expired, under-strength or over-fuel entry and no
// Put downgrades an entry.
//
// Each operation is two bytes. The first picks the kind (low two bits: Get,
// Get, Put, advance the clock) and the key; the second is the argument:
// for Put the strength, fuel used and payload length, for Get the strength
// and fuel demanded, for the clock the step in 64ths of the TTL.
func FuzzCache(f *testing.F) {
	f.Add(byte(2), []byte{2, 0, 6, 1, 0, 0, 10, 5, 14, 9, 4, 0, 18, 255, 3, 100, 1, 4})
	f.Add(byte(0), []byte{2, 0, 1, 0, 6, 3, 2, 255, 1, 0})
	f.Add(byte(255), []byte{2, 40, 6, 3, 10, 40, 14, 200, 1, 255, 5, 255, 18, 2, 22, 2, 3, 70, 1, 0, 26, 1})
	f.Add(byte(61), []byte{2, 1, 6, 2, 10, 3, 1, 1, 5, 2, 14, 4, 2, 255, 6, 9, 18, 0, 9, 0, 22, 8})
	f.Fuzz(func(t *testing.T, cfg byte, ops []byte) {
		const ttl = 64 * time.Second
		now := time.Unix(1000, 0)
		c := New(Config{
			MaxEntries: 1 + int(cfg%8),
			MaxBytes:   150 + 25*int(cfg/8),
			TTL:        ttl,
			Clock:      func() time.Time { return now },
		})
		m := &sieveModel{hand: -1, maxEntries: c.maxEntries, maxBytes: c.maxBytes}
		var keys [10]Key
		for i := range keys {
			keys[i] = testKey(t, uint64(i), 0)
		}
		// Caches of at most eight entries show every path within a few
		// hundred operations; longer inputs only slow the fuzzer down.
		ops = ops[:min(len(ops), 512)]
		var serial int64
		for ; len(ops) >= 2; ops = ops[2:] {
			op, arg := ops[0], ops[1]
			k := keys[int(op>>2)%len(keys)]
			switch op & 3 {
			case 0, 1:
				strength, fuel := int(arg%4), uint64(arg>>2)
				e := c.Get(k, strength, fuel)
				want := false
				if i := m.find(k); i >= 0 {
					it := &m.items[i]
					switch {
					case now.Sub(it.stored) > ttl:
						m.remove(i)
					case it.strength >= strength && it.fuel <= fuel:
						it.visited, want = true, true
					}
				}
				if (e != nil) != want {
					t.Fatalf("Get(%x, %d, %d) hit = %v, model says %v", k, strength, fuel, e != nil, want)
				}
				if e != nil {
					if now.Sub(e.stored) > ttl || e.Strength < strength || e.FuelUsed > fuel {
						t.Fatalf("Get(%x, %d, %d) served %+v at %v", k, strength, fuel, e, now)
					}
					if it := m.items[m.find(k)]; e.Emitted[0].I != it.serial {
						t.Fatalf("Get(%x) served the result of Put %d, want %d", k, e.Emitted[0].I, it.serial)
					}
				}
			case 2:
				serial++
				strength, fuel := int(arg%4), uint64(arg%7)*10
				ret, em := tvm.Str(strings.Repeat("x", int(arg>>2)*8)), []tvm.Value{tvm.Int(serial)}
				var before *Entry
				if el, ok := c.entries[k]; ok {
					before = el.Value.(*Entry)
				}
				c.Put(k, ret, em, fuel, 0, strength)
				if before != nil && before.Strength > strength {
					if el, ok := c.entries[k]; !ok || el.Value.(*Entry) != before {
						t.Fatalf("Put(%x) at strength %d replaced a strength-%d entry", k, strength, before.Strength)
					}
				}
				m.put(modelItem{key: k, size: entrySize(k, &Entry{Return: ret, Emitted: em}),
					strength: strength, fuel: fuel, stored: now, serial: serial})
			case 3:
				now = now.Add(time.Duration(arg) * ttl / 64)
			}
			checkCache(t, c)
			compareModel(t, c, m)
		}
	})
}

func compareModel(t *testing.T, c *Cache, m *sieveModel) {
	t.Helper()
	got := oldestFirst(c)
	if len(got) != len(m.items) {
		t.Fatalf("cache holds %x, model %d entries", got, len(m.items))
	}
	el := c.order.Back()
	for i, it := range m.items {
		e := el.Value.(*Entry)
		if e.key != it.key || e.visited != it.visited || e.Strength != it.strength || e.Emitted[0].I != it.serial {
			t.Fatalf("entry %d: cache %x visited=%v strength=%d serial=%d, model %x visited=%v strength=%d serial=%d",
				i, e.key, e.visited, e.Strength, e.Emitted[0].I, it.key, it.visited, it.strength, it.serial)
		}
		el = el.Prev()
	}
	want := Key("")
	if m.hand >= 0 {
		want = m.items[m.hand].key
	}
	if got := handKey(c); got != want {
		t.Fatalf("hand on %x, model on %x", got, want)
	}
}
