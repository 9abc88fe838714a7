package wire

import (
	"io"
	"runtime"
)

// WriterOpts configures a WriterLoop.
type WriterOpts struct {
	// Max bounds how many queued messages one flush may cover.
	Max int
	// Fold, when non-nil, rewrites each drained burst before it is sent —
	// e.g. FoldBatchFrames collapses runs of per-attempt frames into batch
	// frames. Nil sends the burst unchanged.
	Fold func([]Message) []Message
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
// queues attempts behind a CapQueue provider's slots while that provider's
// attempts stay tiny. 50 µs is about ten loopback flushes: a result that ran
// for less gains more from sharing a write than the turn costs it. A
// constant, not an option: one value serves every workload, because anything
// that ran longer never waits.
const TinyExecNanos = 50_000

// yield gives the processor to the goroutines queued behind the writer.
// Tests replace it to observe when the writer waits.
var yield = runtime.Gosched

// WriterLoop drains a connection's outgoing queue onto conn. It folds
// whatever burst is queued (up to Max) into one SendBatch, so a single
// flush — one syscall — covers the burst. It is the one copy of the drain
// logic shared by the broker (provider, consumer and peer links) and the
// provider (broker link).
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
	if o.Max <= 0 {
		o.Max = 1
	}
	batch := make([]Message, 0, o.Max)
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
		batch = drainQueued(out, batch, o.Max)
		if len(batch) < o.Max && allTinyResults(batch) {
			yield()
			batch = drainQueued(out, batch, o.Max)
		}
		if o.Fold != nil {
			batch = o.Fold(batch)
		}
		if err := conn.SendBatch(batch); err != nil {
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
// limit messages in all.
func drainQueued(out <-chan Message, batch []Message, limit int) []Message {
	for len(batch) < limit {
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

// FoldBatchFrames rewrites one writer burst in place, collapsing every run
// of two or more consecutive AttemptResult frames into one
// AttemptResultBatch and every such run of ResultPush frames into one
// ResultPushBatch. Lone frames pass through untouched, so low-rate traffic
// stays byte-identical to the pre-batch revision, and relative frame order
// is preserved — a ResultPush queued before a JobDone still arrives before
// it. Callers must only use it on connections whose peer advertised
// CapBatch.
func FoldBatchFrames(batch []Message) []Message {
	out := batch[:0] // in-place: the write index never passes the read index
	for i := 0; i < len(batch); {
		switch batch[i].(type) {
		case *AttemptResult:
			j := i + 1
			for j < len(batch) {
				if _, ok := batch[j].(*AttemptResult); !ok {
					break
				}
				j++
			}
			if j-i >= 2 {
				rb := &AttemptResultBatch{Results: make([]AttemptResult, 0, j-i)}
				for k := i; k < j; k++ {
					rb.Results = append(rb.Results, *batch[k].(*AttemptResult))
				}
				out = append(out, rb)
			} else {
				out = append(out, batch[i])
			}
			i = j
		case *ResultPush:
			j := i + 1
			for j < len(batch) {
				if _, ok := batch[j].(*ResultPush); !ok {
					break
				}
				j++
			}
			if j-i >= 2 {
				rb := &ResultPushBatch{Results: make([]ResultPush, 0, j-i)}
				for k := i; k < j; k++ {
					rb.Results = append(rb.Results, *batch[k].(*ResultPush))
				}
				out = append(out, rb)
			} else {
				out = append(out, batch[i])
			}
			i = j
		default:
			out = append(out, batch[i])
			i++
		}
	}
	return out
}
