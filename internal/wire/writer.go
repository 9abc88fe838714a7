package wire

import (
	"io"
	"runtime"
)

// WriterOpts configures a WriterLoop.
type WriterOpts struct {
	// Done, when non-nil, terminates the loop when closed (peers whose out
	// channel stays open for the process lifetime). When nil, the loop runs
	// until out is closed, and on a send error it keeps emptying out so
	// enqueuers never block.
	Done <-chan struct{}
	// Closer is closed on a send error, unblocking the connection's reader
	// so it tears the peer down. Typically the underlying net.Conn.
	Closer io.Closer
}

// TinyExecNanos is the execution time below which an attempt counts as tiny:
// its cost is the round trip around it, not the run. The writer lets a tiny
// AttemptResult wait one scheduler turn for its siblings, and the broker
// queues attempts behind a provider's slots while that provider's
// attempts stay tiny. 50 µs is about ten loopback flushes: a result that ran
// for less gains more from sharing a write than the turn costs it. A
// constant, not an option: one value serves every workload, because anything
// that ran longer never waits.
const TinyExecNanos = 50_000

// burstMax bounds how many queued messages one flush may cover, so a
// slot-wide burst of results costs one syscall instead of one per result.
const burstMax = 128

// QueuePerSlot is how many attempts a provider, live or simulated, queues
// behind each slot (Register.Queue = Slots × QueuePerSlot). The broker fills
// at most TinyExecNanos of expected work per slot, so this only bounds the
// depth µs-scale attempts reach. The smallest of {4, 8, 16, 32} within 5 %
// of the best noop_flood throughput (DESIGN.md).
const QueuePerSlot = 32

// yield gives the processor to the goroutines queued behind the writer.
// Tests replace it to observe when the writer waits.
var yield = runtime.Gosched

// WriterLoop drains a connection's outgoing queue onto conn. It sends
// whatever burst is queued (up to burstMax messages) in one SendBatch, so a
// single flush — one syscall — covers the burst, after FoldBatchFrames has
// wrapped its results and pushes in their batch frames. It is the one copy
// of the drain logic shared by the broker (provider and consumer links) and
// the provider (broker link).
//
// The first send on out readies this goroutine ahead of the sender's
// siblings, so a burst of near-instant tasklets would otherwise be flushed
// one or two results at a time. When the drained burst is not full and holds
// only AttemptResults that each ran for less than TinyExecNanos, the loop
// yields the processor once and drains again before sending (grpc-go's
// loopy-writer idiom). Longer results and every other frame type are flushed
// at once: a result that took milliseconds never waits behind CPU-bound
// siblings.
func WriterLoop(conn *Conn, out <-chan Message, o WriterOpts) {
	batch := make([]Message, 0, burstMax)
	for {
		var m Message
		var ok bool
		select {
		case m, ok = <-out:
			if !ok {
				return
			}
		case <-o.Done: // never fires while Done is nil
			return
		}
		batch = append(batch[:0], m)
		batch = drainQueued(out, batch)
		if len(batch) < burstMax && allTinyResults(batch) {
			yield()
			batch = drainQueued(out, batch)
		}
		if err := conn.SendBatch(FoldBatchFrames(batch)); err != nil {
			if o.Closer != nil {
				o.Closer.Close() // unblocks the reader, which tears the peer down
			}
			if o.Done == nil {
				// Drain remaining messages so enqueuers never block.
				for range out {
				}
			}
			return
		}
	}
}

// drainQueued appends what is queued on out to batch without blocking, up to
// burstMax messages in all.
func drainQueued(out <-chan Message, batch []Message) []Message {
	for len(batch) < burstMax {
		select {
		case m, ok := <-out:
			if !ok {
				return batch
			}
			batch = append(batch, m)
		default:
			return batch
		}
	}
	return batch
}

// allTinyResults reports whether batch holds nothing but AttemptResults of
// executions shorter than TinyExecNanos.
func allTinyResults(batch []Message) bool {
	for _, m := range batch {
		r, ok := m.(*AttemptResult)
		if !ok || r.ExecNanos >= TinyExecNanos {
			return false
		}
	}
	return true
}

// FoldBatchFrames rewrites one writer burst in place, wrapping every run of
// consecutive AttemptResult frames, one long or more, in one
// AttemptResultBatch and every such run of ResultPush frames in one
// ResultPushBatch: the batch frames are the only frames for these
// operations. Other frames pass through, and relative frame order is
// preserved — a ResultPush queued before a JobDone still arrives before it.
func FoldBatchFrames(batch []Message) []Message {
	out := batch[:0] // in-place: the write index never passes the read index
	for i := 0; i < len(batch); {
		switch batch[i].(type) {
		case *AttemptResult:
			rs := runOf[AttemptResult](batch, i)
			out = append(out, &AttemptResultBatch{Results: rs})
			i += len(rs)
		case *ResultPush:
			rs := runOf[ResultPush](batch, i)
			out = append(out, &ResultPushBatch{Results: rs})
			i += len(rs)
		default:
			out = append(out, batch[i])
			i++
		}
	}
	return out
}

// runOf copies out the run of *T frames that starts at batch[i].
func runOf[T any, PT interface {
	*T
	Message
}](batch []Message, i int) []T {
	j := i
	for j < len(batch) {
		if _, ok := batch[j].(PT); !ok {
			break
		}
		j++
	}
	run := make([]T, 0, j-i)
	for _, m := range batch[i:j] {
		run = append(run, *m.(PT))
	}
	return run
}
