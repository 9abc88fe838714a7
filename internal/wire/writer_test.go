package wire

import (
	"bytes"
	"testing"
)

// TestWriterLoopWaitsOneTurnForTinyResultsOnly drives WriterLoop with the
// yield replaced by a sibling that queues one more result while the writer
// waits, and checks who waits: a burst of nothing but near-instant
// AttemptResults yields once and flushes the late sibling in the same write;
// a long result, any other frame type, a full burst and the zero-value
// options (burst limit one: a frame per write) are flushed without yielding.
func TestWriterLoopWaitsOneTurnForTinyResultsOnly(t *testing.T) {
	tiny := &AttemptResult{Attempt: 1, Tasklet: 1, ExecNanos: TinyExecNanos - 1}
	long := &AttemptResult{Attempt: 2, Tasklet: 2, ExecNanos: TinyExecNanos}
	late := &AttemptResult{Attempt: 3, Tasklet: 3, ExecNanos: 7}
	cases := []struct {
		name   string
		queued []Message
		opts   WriterOpts
		yields int
	}{
		{"tiny results", []Message{tiny, tiny}, WriterOpts{Max: 8}, 1},
		{"one long result", []Message{tiny, long}, WriterOpts{Max: 8}, 0},
		{"another frame type", []Message{tiny, &Heartbeat{FreeSlots: 1}}, WriterOpts{Max: 8}, 0},
		{"full burst", []Message{tiny, tiny}, WriterOpts{Max: 2}, 0},
		{"no coalescing", []Message{tiny, tiny}, WriterOpts{}, 0},
	}
	defer func(orig func()) { yield = orig }(yield)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := make(chan Message, 8) // holds the whole scenario
			for _, m := range tc.queued {
				out <- m
			}
			// The sibling arrives only if, and when, the writer yields.
			sent := tc.queued
			if tc.yields > 0 {
				sent = append(sent, late)
			} else {
				close(out)
			}
			yields := 0
			yield = func() {
				if yields++; yields == 1 && tc.yields > 0 {
					out <- late
					close(out)
				}
			}

			sink := &sinkConn{buf: &bytes.Buffer{}}
			conn := NewConn(sink)
			WriterLoop(conn, out, tc.opts)

			if yields != tc.yields {
				t.Errorf("writer yielded %d times, want %d", yields, tc.yields)
			}
			want := new(bytes.Buffer)
			for _, m := range sent {
				frame, err := Marshal(m)
				if err != nil {
					t.Fatal(err)
				}
				want.Write(frame)
			}
			if !bytes.Equal(sink.bytes(), want.Bytes()) {
				t.Error("frames lost, reordered or rewritten")
			}
			if got := sink.flushCount(); tc.yields > 0 && got != 1 {
				t.Errorf("%d writes, want the late sibling in the same write as the burst", got)
			}
		})
	}
}
