// Package memo implements a content-addressed result cache for tasklets and
// the flight table used to coalesce identical in-flight work.
//
// Tasklets are side-effect-free by construction (DESIGN.md §1): a program's
// result is a pure function of its bytecode, its parameters, and the rand()
// seed. That purity makes memoization sound — two tasklets with the same
// content key *must* produce bit-identical results — so both the broker and
// the provider can serve repeats from a cache without changing observable
// behaviour.
//
// Two safety rules keep the cache from weakening the QoC engine:
//
//   - Only QoC-finalized successful results enter the cache. Raw attempt
//     outcomes never do, so a faulty provider's corrupted answer cannot be
//     laundered through the cache: under voting QoC it is outvoted before
//     anything is stored.
//   - Entries remember the voting strength they were finalized under
//     (Entry.Strength). A request only hits if the cached entry was
//     established with at least the strength the request demands, so a
//     best-effort result can never satisfy a voting request.
//
// The cache has two budgets — entry count and total bytes — plus TTL expiry,
// evicts by SIEVE (Zhang et al., "SIEVE is Simpler than LRU", NSDI 2024), and
// reports hits/misses/stores/evictions on a metrics.Registry. All methods are
// nil-safe: a nil *Cache behaves as a disabled cache (every lookup misses,
// every store is dropped), which is how the negative-budget "disabled"
// configuration is represented.
package memo

import (
	"container/list"
	"encoding/binary"
	"sync"
	"time"
	"unsafe"

	"repro/internal/metrics"
	"repro/internal/tvm"
)

// Key is the content address of a tasklet: program ID, rand seed, and the
// canonical binary encoding of the parameters. Keys compare with == and are
// collision-free (the full encoded parameter bytes are part of the key, not
// just a hash of them).
type Key string

// KeyFor builds the content key for one tasklet invocation. The seed is part
// of the key because rand() makes results seed-dependent; two submissions
// that differ only in seed may legitimately produce different results.
//
// The bool result is false when a parameter value cannot be canonically
// encoded (which cannot happen for values that came off the wire); such
// tasklets are simply not cacheable.
func KeyFor(program uint64, seed uint64, params []tvm.Value) (Key, bool) {
	b := make([]byte, 16, 16+16*len(params))
	binary.BigEndian.PutUint64(b[0:8], program)
	binary.BigEndian.PutUint64(b[8:16], seed)
	var err error
	for _, p := range params {
		b, err = tvm.AppendValue(b, p)
		if err != nil {
			return "", false
		}
	}
	// b is never written again, so the key can share its bytes instead of
	// copying them: one allocation per key, not two.
	return Key(unsafe.String(unsafe.SliceData(b), len(b))), true
}

// Hash returns a 64-bit FNV-1a digest of the key, by which the scheduler
// core routes keyed tasklets to partitions; the cache indexes by the full key.
func (k Key) Hash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(k); i++ {
		h = (h ^ uint64(k[i])) * prime
	}
	return h
}

// Entry is one cached finalized result. The stored values are private deep
// copies; callers must Clone them again before handing them to anything that
// may mutate them (see CachedResult).
type Entry struct {
	Return  tvm.Value
	Emitted []tvm.Value

	// FuelUsed is the fuel the original execution consumed. Cache hits
	// report it unchanged so fuel accounting is identical with and without
	// the cache.
	FuelUsed uint64

	// Exec is the original provider-measured execution time, kept for
	// observability (hit latency is near zero; this preserves what the
	// computation originally cost).
	Exec time.Duration

	// Strength records the voting strength the result was finalized under:
	// 0 for best-effort and redundant finals, the replica count for voting
	// finals. A lookup demanding strength s only hits entries with
	// Strength >= s.
	Strength int

	key     Key
	stored  time.Time
	size    int
	visited bool // set by a hit, cleared by the eviction hand passing over it
}

// CachedResult returns deep copies of the entry's return value and emitted
// stream, safe to hand to consumers or VMs that may mutate arrays in place.
func (e *Entry) CachedResult() (tvm.Value, []tvm.Value) {
	ret := e.Return.Clone()
	var em []tvm.Value
	if len(e.Emitted) > 0 {
		em = make([]tvm.Value, len(e.Emitted))
		for i, v := range e.Emitted {
			em[i] = v.Clone()
		}
	}
	return ret, em
}

// valueSize estimates the in-memory footprint of a value in bytes, for the
// byte budget: the Value itself, plus a string's bytes or an array's
// elements.
func valueSize(v tvm.Value) int {
	const header = int(unsafe.Sizeof(tvm.Value{}))
	switch v.Kind {
	case tvm.KindStr:
		return header + len(v.AsStr())
	case tvm.KindArr:
		n := header
		if a := v.AsArr(); a != nil {
			for _, e := range a.Elems {
				n += valueSize(e)
			}
		}
		return n
	default:
		return header
	}
}

// entrySize estimates the total footprint of a cache entry: key bytes plus
// stored values plus fixed bookkeeping.
func entrySize(k Key, e *Entry) int {
	n := len(k) + 96 // key bytes + entry struct + list/map overhead
	n += valueSize(e.Return)
	for _, v := range e.Emitted {
		n += valueSize(v)
	}
	return n
}

// Defaults applied by New when the corresponding Config field is zero.
const (
	DefaultMaxEntries = 4096
	DefaultMaxBytes   = 16 << 20 // 16 MiB
	DefaultTTL        = 10 * time.Minute
)

// Config parameterizes a Cache. The zero value of each field selects the
// package default; New itself returns nil (a disabled cache) only when the
// caller decides so — by convention a negative MaxEntries/MaxBytes/TTL in the
// broker/provider/sim options means "disabled" and those layers pass nil.
type Config struct {
	MaxEntries int           // > 0 entry budget; 0 = DefaultMaxEntries
	MaxBytes   int           // > 0 byte budget; 0 = DefaultMaxBytes
	TTL        time.Duration // > 0 expiry; 0 = DefaultTTL

	// Clock supplies the current time; nil means time.Now. The simulator
	// injects its virtual clock so TTL expiry happens in simulated time.
	Clock func() time.Time

	// Metrics receives hit/miss/store/eviction counters and entry/byte
	// gauges. Nil disables reporting.
	Metrics *metrics.Registry

	// Prefix namespaces the metric names. Empty means "memo.".
	Prefix string
}

// Cache is a bounded, TTL-expiring, content-addressed store of finalized
// tasklet results that evicts by SIEVE: a hit only marks its entry visited,
// and eviction sweeps a hand from the oldest entry toward the newest,
// clearing marks, to remove the first unmarked entry it meets; the hand stays
// where it stopped for the next eviction. On skewed (Zipf) content larger
// than the cache this keeps more of the popular entries than LRU does, and a
// hit moves nothing. All methods are safe to call on a nil receiver (they
// behave as a cache that never hits and never stores). The cache carries its
// own mutex so it can be shared by concurrent callers — the partitioned
// broker runs one cache under all partition engines so repeats hit across
// partitions. Returned entries are immutable after storage; callers clone
// via CachedResult before mutating anything.
type Cache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int
	ttl        time.Duration
	clock      func() time.Time

	entries map[Key]*list.Element
	order   *list.List    // front = newest; every Value is an *Entry
	hand    *list.Element // next eviction candidate; nil = start at the back
	bytes   int

	hits, misses, stores, evictions *metrics.Counter
	entriesG, bytesG                *metrics.Gauge
}

// New builds a Cache from cfg, applying defaults for zero fields.
func New(cfg Config) *Cache {
	c := &Cache{
		maxEntries: cfg.MaxEntries,
		maxBytes:   cfg.MaxBytes,
		ttl:        cfg.TTL,
		clock:      cfg.Clock,
		entries:    make(map[Key]*list.Element),
		order:      list.New(),
	}
	if c.maxEntries <= 0 {
		c.maxEntries = DefaultMaxEntries
	}
	if c.maxBytes <= 0 {
		c.maxBytes = DefaultMaxBytes
	}
	if c.ttl <= 0 {
		c.ttl = DefaultTTL
	}
	if c.clock == nil {
		c.clock = time.Now
	}
	if cfg.Metrics != nil {
		p := cfg.Prefix
		if p == "" {
			p = "memo."
		}
		c.hits = cfg.Metrics.Counter(p + "hits")
		c.misses = cfg.Metrics.Counter(p + "misses")
		c.stores = cfg.Metrics.Counter(p + "stores")
		c.evictions = cfg.Metrics.Counter(p + "evictions")
		c.entriesG = cfg.Metrics.Gauge(p + "entries")
		c.bytesG = cfg.Metrics.Gauge(p + "bytes")
	}
	return c
}

func inc(c *metrics.Counter) {
	if c != nil {
		c.Inc()
	}
}

func (c *Cache) updateGauges() {
	if c.entriesG != nil {
		c.entriesG.Set(int64(c.order.Len()))
	}
	if c.bytesG != nil {
		c.bytesG.Set(int64(c.bytes))
	}
}

// Get looks up the entry for key, subject to three gates: the entry must not
// have expired, its Strength must be at least strength, and its FuelUsed must
// fit within the requester's fuel budget. A gated entry counts as a miss (the
// requester genuinely has to execute). A hit marks the entry visited, which
// spares it the next time the eviction hand passes.
func (c *Cache) Get(key Key, strength int, fuel uint64) *Entry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		inc(c.misses)
		return nil
	}
	e := el.Value.(*Entry)
	if c.clock().Sub(e.stored) > c.ttl {
		c.removeElement(el)
		inc(c.evictions)
		inc(c.misses)
		c.updateGauges()
		return nil
	}
	if e.Strength < strength || e.FuelUsed > fuel {
		inc(c.misses)
		return nil
	}
	e.visited = true
	inc(c.hits)
	return e
}

// Put stores a finalized result under key, deep-copying the values so the
// cache owns private storage. An existing entry is replaced only if the new
// entry's Strength is at least as high (a voting-finalized entry is never
// downgraded by a later best-effort final). Entries larger than the whole
// byte budget are dropped, and an entry they would have replaced stays.
func (c *Cache) Put(key Key, ret tvm.Value, emitted []tvm.Value, fuelUsed uint64, exec time.Duration, strength int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	old, replace := c.entries[key]
	if replace && old.Value.(*Entry).Strength > strength {
		return
	}
	e := &Entry{
		Return:   ret.Clone(),
		FuelUsed: fuelUsed,
		Exec:     exec,
		Strength: strength,
		key:      key,
		stored:   c.clock(),
	}
	if len(emitted) > 0 {
		e.Emitted = make([]tvm.Value, len(emitted))
		for i, v := range emitted {
			e.Emitted[i] = v.Clone()
		}
	}
	e.size = entrySize(key, e)
	if e.size > c.maxBytes {
		return
	}
	if replace {
		c.removeElement(old)
	}
	// Evict before inserting, so the hand never meets the new entry, which
	// has had no chance to be hit yet.
	for c.order.Len() >= c.maxEntries || c.bytes+e.size > c.maxBytes {
		c.evict()
	}
	c.entries[key] = c.order.PushFront(e)
	c.bytes += e.size
	inc(c.stores)
	c.updateGauges()
}

// Len returns the number of live entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Bytes returns the estimated total footprint of live entries.
func (c *Cache) Bytes() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// evict removes one entry by SIEVE. The cache must not be empty.
func (c *Cache) evict() {
	el := c.hand
	for {
		if el == nil {
			el = c.order.Back()
		}
		e := el.Value.(*Entry)
		if !e.visited {
			break
		}
		e.visited = false
		el = el.Prev()
	}
	c.hand = el // removeElement moves the hand on to the next newer entry
	c.removeElement(el)
	inc(c.evictions)
}

func (c *Cache) removeElement(el *list.Element) {
	if el == c.hand {
		c.hand = el.Prev()
	}
	e := el.Value.(*Entry)
	c.order.Remove(el)
	delete(c.entries, e.key)
	c.bytes -= e.size
}
