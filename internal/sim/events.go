// Package sim implements a deterministic discrete-event simulator for
// Tasklet fleets. It substitutes for the paper's physical heterogeneous
// testbed: device classes with calibrated speed factors, multi-slot
// concurrency, exponential churn (MTBF/MTTR), link latency, and
// heartbeat-style failure detection — while reusing the *same* scheduling
// policies (internal/scheduler) and QoC engine (internal/qoc) as the live
// broker, so simulated and live behaviour differ only in the transport.
//
// The broker itself costs nothing in virtual time: the simulator has no
// model of broker internals. It answers fleet, churn and policy questions,
// and broker costs are measured on the real stack (benchmark/, E7).
//
// Everything is driven by a binary-heap event queue over virtual time;
// given a seed, runs are bit-for-bit reproducible.
package sim

import (
	"container/heap"
	"math"
	"time"
)

// event is one scheduled callback.
type event struct {
	at  time.Duration
	seq uint64 // tie-breaker: FIFO among equal timestamps
	fn  func()
}

// eventHeap orders events by (time, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*event)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// engine is the virtual clock and event loop.
type engine struct {
	now  time.Duration
	heap eventHeap
	seq  uint64
	rng  uint64
}

func newEngine(seed uint64) *engine {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &engine{rng: seed}
}

// at schedules fn at absolute virtual time t (clamped to now).
func (e *engine) at(t time.Duration, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	heap.Push(&e.heap, &event{at: t, seq: e.seq, fn: fn})
}

// after schedules fn d from now.
func (e *engine) after(d time.Duration, fn func()) { e.at(e.now+d, fn) }

// step runs the next event; returns false when the queue is empty.
func (e *engine) step() bool {
	if len(e.heap) == 0 {
		return false
	}
	ev := heap.Pop(&e.heap).(*event)
	e.now = ev.at
	ev.fn()
	return true
}

// run drains the queue, stopping (with false) if virtual time exceeds max.
func (e *engine) run(max time.Duration) bool {
	for len(e.heap) > 0 {
		if e.heap[0].at > max {
			return false
		}
		e.step()
	}
	return true
}

// next64 advances the xorshift64* RNG.
func (e *engine) next64() uint64 {
	x := e.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	e.rng = x
	return x * 0x2545f4914f6cdd1d
}

// uniform returns a float in [0, 1).
func (e *engine) uniform() float64 {
	return float64(e.next64()>>11) / (1 << 53)
}

// exponential samples an exponential duration with the given mean.
func (e *engine) exponential(mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	u := e.uniform()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	d := -float64(mean) * math.Log(u)
	if d > float64(math.MaxInt64)/2 {
		d = float64(math.MaxInt64) / 2
	}
	return time.Duration(d)
}
