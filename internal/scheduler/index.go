package scheduler

import "repro/internal/core"

// Index is the placement index: it maintains the per-policy ordered
// structure a policy ranks providers by, updated on provider events
// (register, assign, complete, disconnect) instead of rebuilt on every
// pick. A pick is then a heap peek (ranked policies) or an order-statistics
// query (random / round_robin) instead of an O(P log P) filter-and-sort,
// and performs zero allocations.
//
// The tests hold the index pick for pick to a reference scan that filters
// and ranks a fleet snapshot on every pick (index_test.go). Exclusion (QoC
// replica fan-out, retry avoidance) is handled by bounded
// pop-and-reinsert: excluded entries are popped off the heap (or
// weight-masked in the selection tree), the winner is read, and the popped
// entries are pushed back — O(|exclude| · log P) per pick with reusable
// scratch, no allocations.
//
// Structures by policy:
//
//	fastest               max-heap on (speed, -ID)
//	least_loaded          min-heap on (backlog/slots, ID)
//	work_steal            min-heap on (completionRank, ID)
//	reliable              max-heap on (reliabilityRank, -ID)
//	deadline              work_steal heap (no-deadline requests) plus a
//	                      least_loaded heap swept in load order for
//	                      deadline-qualified selection
//	random, round_robin   ID-ordered ring with a Fenwick tree over free
//	                      flags for O(log P) k-th-eligible selection
//
// An Index is not safe for concurrent use; the scheduler core
// (internal/dispatch) serializes access under its placement lock.
type Index struct {
	kind policyKind

	entries map[core.ProviderID]*ixEntry
	free    int // total free slots across registered providers

	heapA ixHeap // primary ranking (unused by ring policies)
	heapB ixHeap // deadline only: load-ratio order

	rng    uint64 // random: xorshift* state
	cursor uint64 // round_robin cursor

	ring ixRing

	stash   []*ixEntry // pop-and-reinsert scratch (heap policies)
	restore []*ixEntry // weight-restore scratch (ring policies)
}

// ixEntry is the index's record of one provider. Rank inputs (speed, slots,
// reliability) are read through info at comparison time, so callers must
// report rank-affecting mutations of the shared ProviderInfo via Upsert /
// Assign / Complete, which restore heap invariants.
type ixEntry struct {
	info    *core.ProviderInfo
	free    int
	backlog int
	posA    int // position in heapA; -1 when absent
	posB    int // position in heapB; -1 when absent
	ringIdx int // slot in the selection ring; -1 when absent
}

// NewIndexFor builds an empty index that places work under policy p.
// random's generator starts from p's seed (a zero seed is replaced by
// defaultRandomSeed); round_robin's cursor starts at zero. The error is
// always nil.
func NewIndexFor(p Policy) (*Index, error) {
	ix := &Index{kind: p.kind, entries: map[core.ProviderID]*ixEntry{}}
	switch p.kind {
	case kindRandom:
		ix.rng = p.seed
		if ix.rng == 0 {
			ix.rng = defaultRandomSeed
		}
	case kindFastest:
		ix.heapA = ixHeap{slot: 0, less: lessFastest}
	case kindLeastLoaded:
		ix.heapA = ixHeap{slot: 0, less: lessLoad}
	case kindWorkSteal:
		ix.heapA = ixHeap{slot: 0, less: lessCompletion}
	case kindReliable:
		ix.heapA = ixHeap{slot: 0, less: lessReliable}
	case kindDeadline:
		ix.heapA = ixHeap{slot: 0, less: lessCompletion}
		ix.heapB = ixHeap{slot: 1, less: lessLoad}
	}
	return ix, nil
}

// Heap orderings. Each delegates to a shared ranking function, ties broken
// by lower provider ID.

func lessFastest(a, b *ixEntry) bool {
	return fasterCandidate(a.info.Speed, a.info.ID, b.info.Speed, b.info.ID)
}

func lessLoad(a, b *ixEntry) bool {
	ra, rb := loadRank(a.backlog, a.info.Slots), loadRank(b.backlog, b.info.Slots)
	if ra != rb {
		return ra < rb
	}
	return a.info.ID < b.info.ID
}

func lessCompletion(a, b *ixEntry) bool {
	ra := completionRank(a.backlog, a.info.Slots, a.info.Speed)
	rb := completionRank(b.backlog, b.info.Slots, b.info.Speed)
	if ra != rb {
		return ra < rb
	}
	return a.info.ID < b.info.ID
}

func lessReliable(a, b *ixEntry) bool {
	ra := reliabilityRank(a.info.Reliability, a.info.Speed)
	rb := reliabilityRank(b.info.Reliability, b.info.Speed)
	if ra != rb {
		return ra > rb
	}
	return a.info.ID < b.info.ID
}

// ---------- provider events ----------

// Upsert registers a provider or sets its capacity and backlog: at
// registration, and whenever results have settled attempts since the last
// placement pass. info is retained and read at comparison time, so
// speed/slots/reliability edits paired with an Upsert/Assign/Complete call
// are picked up automatically.
func (ix *Index) Upsert(info *core.ProviderInfo, free, backlog int) {
	e := ix.entries[info.ID]
	if e == nil {
		e = &ixEntry{info: info, free: free, backlog: backlog, posA: -1, posB: -1, ringIdx: -1}
		ix.entries[info.ID] = e
		ix.free += free
		ix.insertStructures(e)
		return
	}
	was := e.free > 0
	ix.free += free - e.free
	e.info = info
	e.free = free
	e.backlog = backlog
	ix.syncEntry(e, was)
}

// Remove forgets a disconnected provider.
func (ix *Index) Remove(id core.ProviderID) {
	e := ix.entries[id]
	if e == nil {
		return
	}
	ix.free -= e.free
	if e.posA >= 0 {
		ix.heapA.remove(e.posA)
	}
	if e.posB >= 0 {
		ix.heapB.remove(e.posB)
	}
	if e.ringIdx >= 0 {
		ix.ring.removeEntry(e)
	}
	delete(ix.entries, id)
}

// Assign records one attempt placed on the provider: a slot is consumed and
// its backlog grows, so its rank (and eligibility) may change.
func (ix *Index) Assign(id core.ProviderID) {
	e := ix.entries[id]
	if e == nil {
		return
	}
	was := e.free > 0
	e.free--
	e.backlog++
	ix.free--
	ix.syncEntry(e, was)
}

// Complete records one attempt leaving the provider (result arrived or the
// attempt was abandoned with the slot reclaimed).
func (ix *Index) Complete(id core.ProviderID) {
	e := ix.entries[id]
	if e == nil {
		return
	}
	was := e.free > 0
	e.free++
	e.backlog--
	ix.free++
	ix.syncEntry(e, was)
}

// FreeSlots returns the fleet's total free capacity.
func (ix *Index) FreeSlots() int {
	return ix.free
}

// Len returns the number of registered providers.
func (ix *Index) Len() int {
	return len(ix.entries)
}

// insertStructures adds a fresh entry to the policy's structures.
func (ix *Index) insertStructures(e *ixEntry) {
	if ix.usesRing() {
		ix.ring.insert(e, ringWeight(e))
		return
	}
	if e.free > 0 {
		ix.heapA.push(e)
		if ix.kind == kindDeadline {
			ix.heapB.push(e)
		}
	}
}

// syncEntry restores structure invariants after an entry's free/backlog (or
// shared info fields) changed. was reports whether the entry was eligible
// (free > 0) before the change.
func (ix *Index) syncEntry(e *ixEntry, was bool) {
	now := e.free > 0
	if ix.usesRing() {
		ix.ring.setWeight(e, ringWeight(e))
		return
	}
	switch {
	case was && !now:
		ix.heapA.remove(e.posA)
		if ix.kind == kindDeadline {
			ix.heapB.remove(e.posB)
		}
	case !was && now:
		ix.heapA.push(e)
		if ix.kind == kindDeadline {
			ix.heapB.push(e)
		}
	case was && now:
		ix.heapA.fix(e.posA)
		if ix.kind == kindDeadline {
			ix.heapB.fix(e.posB)
		}
	}
}

func (ix *Index) usesRing() bool {
	return ix.kind == kindRandom || ix.kind == kindRoundRobin
}

func ringWeight(e *ixEntry) int {
	if e.free > 0 {
		return 1
	}
	return 0
}

// ---------- picking ----------

// Pick selects a provider for t under the index's policy, excluding the
// given providers; it reports false when no provider is eligible. It performs no allocations after
// scratch buffers reach steady-state capacity.
func (ix *Index) Pick(t *core.Tasklet, exclude []core.ProviderID) (core.ProviderID, bool) {
	switch ix.kind {
	case kindRandom, kindRoundRobin:
		return ix.pickRing(exclude)
	case kindDeadline:
		if t != nil && t.QoC.Deadline > 0 {
			return ix.pickDeadline(t, exclude)
		}
		return ix.pickHeap(&ix.heapA, exclude)
	default:
		return ix.pickHeap(&ix.heapA, exclude)
	}
}

func excludedID(exclude []core.ProviderID, id core.ProviderID) bool {
	for _, x := range exclude {
		if x == id {
			return true
		}
	}
	return false
}

// pickHeap peeks the heap top, popping excluded entries aside (bounded by
// |exclude|) and reinserting them before returning.
func (ix *Index) pickHeap(h *ixHeap, exclude []core.ProviderID) (core.ProviderID, bool) {
	ix.stash = ix.stash[:0]
	var winner *ixEntry
	for len(h.items) > 0 {
		top := h.items[0]
		if !excludedID(exclude, top.info.ID) {
			winner = top
			break
		}
		h.remove(0)
		ix.stash = append(ix.stash, top)
	}
	for _, e := range ix.stash {
		h.push(e)
	}
	if winner == nil {
		return 0, false
	}
	return winner.info.ID, true
}

// pickDeadline sweeps the load-ordered heap: the first non-excluded entry
// fast enough for the tasklet's budget is exactly the least-loaded
// qualified provider (pop order is (load, ID)). If the sweep drains the
// heap without a qualified provider, the fastest eligible seen is the
// best-effort fallback. All popped entries are reinserted.
func (ix *Index) pickDeadline(t *core.Tasklet, exclude []core.ProviderID) (core.ProviderID, bool) {
	fuel := t.Fuel
	if fuel == 0 {
		fuel = 1
	}
	h := &ix.heapB
	ix.stash = ix.stash[:0]
	var winner, fastest *ixEntry
	for len(h.items) > 0 {
		top := h.remove(0)
		ix.stash = append(ix.stash, top)
		if excludedID(exclude, top.info.ID) {
			continue
		}
		if fastest == nil || lessFastest(top, fastest) {
			fastest = top
		}
		if exec := top.info.ExpectedExec(fuel); exec > 0 && exec <= t.QoC.Deadline {
			winner = top
			break
		}
	}
	for _, e := range ix.stash {
		h.push(e)
	}
	if winner == nil {
		winner = fastest
	}
	if winner == nil {
		return 0, false
	}
	return winner.info.ID, true
}

// pickRing selects the k-th eligible provider in ID order, where k comes
// from the policy's RNG (random) or cursor (round_robin). Excluded
// providers are weight-masked for the query and restored afterwards.
func (ix *Index) pickRing(exclude []core.ProviderID) (core.ProviderID, bool) {
	ix.restore = ix.restore[:0]
	for _, id := range exclude {
		if e := ix.entries[id]; e != nil && e.ringIdx >= 0 && ix.ring.w[e.ringIdx] > 0 {
			ix.ring.setWeight(e, 0)
			ix.restore = append(ix.restore, e)
		}
	}
	var pid core.ProviderID
	n := ix.ring.n
	ok := n > 0
	if ok {
		var k uint64
		if ix.kind == kindRandom {
			var out uint64
			ix.rng, out = xorshiftMul(ix.rng)
			k = out % uint64(n)
		} else {
			k = ix.cursor % uint64(n)
			ix.cursor++
		}
		pid = ix.ring.kth(int(k)).info.ID
	}
	for _, e := range ix.restore {
		ix.ring.setWeight(e, 1)
	}
	return pid, ok
}

// ---------- intrusive heap ----------

// ixHeap is a binary heap over *ixEntry with intrusive positions (posA or
// posB, selected by slot) so remove/fix by entry are O(log P) without
// search and without the container/heap interface's boxing allocations.
type ixHeap struct {
	less  func(a, b *ixEntry) bool
	slot  int // 0 → posA, 1 → posB
	items []*ixEntry
}

func (h *ixHeap) setPos(e *ixEntry, i int) {
	if h.slot == 0 {
		e.posA = i
	} else {
		e.posB = i
	}
}

func (h *ixHeap) push(e *ixEntry) {
	h.items = append(h.items, e)
	i := len(h.items) - 1
	h.setPos(e, i)
	h.up(i)
}

// remove deletes the entry at position i and returns it.
func (h *ixHeap) remove(i int) *ixEntry {
	e := h.items[i]
	last := len(h.items) - 1
	if i != last {
		h.items[i] = h.items[last]
		h.setPos(h.items[i], i)
	}
	h.items[last] = nil
	h.items = h.items[:last]
	if i < last {
		h.fix(i)
	}
	h.setPos(e, -1)
	return e
}

// fix restores the invariant after the entry at position i changed rank.
func (h *ixHeap) fix(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

func (h *ixHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

// down sifts the entry at i toward the leaves, reporting whether it moved.
func (h *ixHeap) down(i int) bool {
	start := i
	n := len(h.items)
	for {
		kid := 2*i + 1
		if kid >= n {
			break
		}
		if r := kid + 1; r < n && h.less(h.items[r], h.items[kid]) {
			kid = r
		}
		if !h.less(h.items[kid], h.items[i]) {
			break
		}
		h.swap(i, kid)
		i = kid
	}
	return i > start
}

func (h *ixHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.setPos(h.items[i], i)
	h.setPos(h.items[j], j)
}

// ---------- ID-ordered selection ring (random / round_robin) ----------

// ixRing keeps providers in ascending-ID slots with a Fenwick tree over
// 0/1 eligibility weights, answering "the k-th eligible provider in ID
// order" in O(log P). Provider IDs are broker-monotonic, so inserts are
// appends in the common case; out-of-order inserts (simulator recovery,
// tests) and removal debt trigger an O(P log P) rebuild, amortized across
// the churn that caused them.
type ixRing struct {
	slots []*ixEntry // ID-ascending; nil = slot vacated by Remove
	w     []int      // current weight per slot (0 or 1)
	tree  []int      // Fenwick tree over w; length is a power of two ≥ len(slots)
	n     int        // total weight
	dead  int        // vacated slots awaiting compaction
	maxID core.ProviderID
}

func (r *ixRing) insert(e *ixEntry, weight int) {
	if len(r.slots) == 0 || e.info.ID > r.maxID {
		r.slots = append(r.slots, e)
		r.w = append(r.w, weight)
		e.ringIdx = len(r.slots) - 1
		r.maxID = e.info.ID
		if len(r.slots) > len(r.tree) {
			r.rebuild()
			return
		}
		if weight != 0 {
			r.n += weight
			r.treeAdd(e.ringIdx, weight)
		}
		return
	}
	// Out-of-order insert: splice into ID position and rebuild.
	pos := 0
	for pos < len(r.slots) && (r.slots[pos] == nil || r.slots[pos].info.ID < e.info.ID) {
		pos++
	}
	r.slots = append(r.slots, nil)
	copy(r.slots[pos+1:], r.slots[pos:])
	r.slots[pos] = e
	r.w = append(r.w, 0)
	copy(r.w[pos+1:], r.w[pos:])
	r.w[pos] = weight
	r.compact()
}

func (r *ixRing) removeEntry(e *ixEntry) {
	i := e.ringIdx
	r.setWeight(e, 0)
	r.slots[i] = nil
	e.ringIdx = -1
	r.dead++
	if r.dead > len(r.slots)/2 && len(r.slots) > 16 {
		r.compact()
	}
}

// setWeight sets the entry's eligibility weight (0 or 1).
func (r *ixRing) setWeight(e *ixEntry, weight int) {
	i := e.ringIdx
	if d := weight - r.w[i]; d != 0 {
		r.w[i] = weight
		r.n += d
		r.treeAdd(i, d)
	}
}

func (r *ixRing) treeAdd(i, delta int) {
	for j := i + 1; j <= len(r.tree); j += j & (-j) {
		r.tree[j-1] += delta
	}
}

// kth returns the (0-based) k-th weighted slot in ID order; k < r.n.
func (r *ixRing) kth(k int) *ixEntry {
	pos := 0
	rem := k + 1
	for bit := len(r.tree); bit > 0; bit >>= 1 {
		next := pos + bit
		if next <= len(r.tree) && r.tree[next-1] < rem {
			rem -= r.tree[next-1]
			pos = next
		}
	}
	return r.slots[pos]
}

// compact drops vacated slots and rebuilds indices and the tree.
func (r *ixRing) compact() {
	live := r.slots[:0]
	w := r.w[:0]
	for i, e := range r.slots {
		if e == nil {
			continue
		}
		live = append(live, e)
		w = append(w, r.w[i])
	}
	r.slots = live
	r.w = w
	r.dead = 0
	if len(r.slots) > 0 {
		r.maxID = r.slots[len(r.slots)-1].info.ID
	} else {
		r.maxID = 0
	}
	r.rebuild()
}

// rebuild recomputes the Fenwick tree (and ring indices) from the slots.
func (r *ixRing) rebuild() {
	size := 1
	for size < len(r.slots) {
		size *= 2
	}
	if cap(r.tree) >= size {
		r.tree = r.tree[:size]
		for i := range r.tree {
			r.tree[i] = 0
		}
	} else {
		r.tree = make([]int, size)
	}
	r.n = 0
	for i, e := range r.slots {
		if e != nil {
			e.ringIdx = i
		}
		if r.w[i] != 0 {
			r.n += r.w[i]
			r.treeAdd(i, r.w[i])
		}
	}
}
