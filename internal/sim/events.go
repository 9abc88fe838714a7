// Package sim implements a deterministic discrete-event simulator for
// Tasklet fleets, the stand-in for the paper's physical heterogeneous
// testbed. Its broker is the live broker's own scheduler core
// (internal/dispatch): partitions, lifecycle, placement, provider
// accounting, cancellation and provider loss are the same code. Simulated
// and live behaviour differ only in the transport and in what the
// simulator models itself:
//   - the device model: class speed, slots with a FIFO of queued attempts
//     behind them, faulty results, and cancels that stop a queued or
//     running attempt;
//   - link latency, one way, on every frame;
//   - churn (exponential MTBF/MTTR) and its detection delay: a failed
//     device keeps its placements until the delay passes, as a live
//     provider does until its heartbeat times out;
//   - a single stripe: the live stripe count follows the broker host's
//     GOMAXPROCS, not the fleet, and one stripe keeps runs the same on
//     every host.
//
// The broker costs no virtual time (its costs are measured live: benchmark/,
// E7), and a seed reproduces a run bit for bit.
package sim

import (
	"container/heap"
	"math"
	"time"
)

// event is one scheduled callback. It is the simulator's dispatch.Timer.
type event struct {
	at  time.Duration
	seq uint64 // tie-breaker: FIFO among equal timestamps
	fn  func() // nil once run or stopped
}

// Stop keeps a pending event from running and reports whether it did.
func (ev *event) Stop() bool {
	pending := ev.fn != nil
	ev.fn = nil
	return pending
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
func (e *engine) at(t time.Duration, fn func()) *event {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev := &event{at: t, seq: e.seq, fn: fn}
	heap.Push(&e.heap, ev)
	return ev
}

// after schedules fn d from now.
func (e *engine) after(d time.Duration, fn func()) *event { return e.at(e.now+d, fn) }

// step runs the next event; returns false when the queue is empty.
func (e *engine) step() bool {
	if len(e.heap) == 0 {
		return false
	}
	ev := heap.Pop(&e.heap).(*event)
	e.now = ev.at
	if fn := ev.fn; fn != nil {
		ev.fn = nil
		fn()
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
