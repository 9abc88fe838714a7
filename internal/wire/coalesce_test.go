package wire

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"
)

// sinkConn is a net.Conn that records (or discards) everything written to
// it. Reads block forever; the write side is what the coalescing tests and
// benchmarks observe.
type sinkConn struct {
	mu      sync.Mutex
	buf     *bytes.Buffer // nil discards
	flushes int           // number of Write calls that reached the "socket"
}

func (s *sinkConn) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushes++
	if s.buf != nil {
		s.buf.Write(p)
	}
	return len(p), nil
}

func (s *sinkConn) Read(p []byte) (int, error)         { select {} }
func (s *sinkConn) Close() error                       { return nil }
func (s *sinkConn) LocalAddr() net.Addr                { return &net.TCPAddr{} }
func (s *sinkConn) RemoteAddr() net.Addr               { return &net.TCPAddr{} }
func (s *sinkConn) SetDeadline(t time.Time) error      { return nil }
func (s *sinkConn) SetReadDeadline(t time.Time) error  { return nil }
func (s *sinkConn) SetWriteDeadline(t time.Time) error { return nil }

func (s *sinkConn) bytes() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.buf.Bytes()...)
}

func (s *sinkConn) flushCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushes
}

// TestCoalescedOutputByteIdentical proves the coalescing machinery moves
// only syscall boundaries, never frame bytes: the same message sequence
// emitted via one lone Send per message (each flushes at once), via one
// SendBatch, and via plain Marshal concatenation produces the identical byte
// stream.
func TestCoalescedOutputByteIdentical(t *testing.T) {
	msgs := allMessages()

	var want bytes.Buffer
	for _, m := range msgs {
		frame, err := Marshal(m)
		if err != nil {
			t.Fatalf("marshal %s: %v", m.Type(), err)
		}
		want.Write(frame)
	}

	uncoalesced := &sinkConn{buf: &bytes.Buffer{}}
	uc := NewConn(uncoalesced)
	for _, m := range msgs {
		if err := uc.Send(m); err != nil {
			t.Fatalf("uncoalesced send %s: %v", m.Type(), err)
		}
	}

	coalesced := &sinkConn{buf: &bytes.Buffer{}}
	cc := NewConn(coalesced)
	if err := cc.SendBatch(msgs); err != nil {
		t.Fatalf("batch send: %v", err)
	}

	if !bytes.Equal(uncoalesced.bytes(), want.Bytes()) {
		t.Fatal("uncoalesced stream differs from Marshal concatenation")
	}
	if !bytes.Equal(coalesced.bytes(), want.Bytes()) {
		t.Fatal("coalesced stream differs from Marshal concatenation")
	}
	if uf, cf := uncoalesced.flushCount(), coalesced.flushCount(); cf >= uf {
		t.Fatalf("coalescing saved no flushes: batch used %d writes, flush-per-send used %d", cf, uf)
	}
}

// TestConcurrentSendAndSendBatchStress hammers one Conn with a mix of Send
// and SendBatch from many goroutines (run under -race by `make check`) and
// verifies every frame arrives whole and exactly once.
func TestConcurrentSendAndSendBatchStress(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	cc, sc := NewConn(client), NewConn(server)

	const senders = 8
	const perSender = 40 // frames each sender contributes in total
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			sent := 0
			for sent < perSender {
				if id%2 == 0 {
					// Batches of 1..5 frames.
					n := 1 + (sent % 5)
					if sent+n > perSender {
						n = perSender - sent
					}
					batch := make([]Message, n)
					for j := range batch {
						batch[j] = &Heartbeat{FreeSlots: id}
					}
					if err := cc.SendBatch(batch); err != nil {
						return
					}
					sent += n
				} else {
					if err := cc.Send(&Heartbeat{FreeSlots: id}); err != nil {
						return
					}
					sent++
				}
			}
		}(i)
	}

	counts := map[int]int{}
	for i := 0; i < senders*perSender; i++ {
		m, err := sc.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		hb, ok := m.(*Heartbeat)
		if !ok {
			t.Fatalf("frame corrupted: got %T", m)
		}
		counts[hb.FreeSlots]++
	}
	wg.Wait()
	for i := 0; i < senders; i++ {
		if counts[i] != perSender {
			t.Fatalf("sender %d delivered %d frames, want %d", i, counts[i], perSender)
		}
	}
}

// TestAppendFrameMatchesMarshal pins AppendFrame (the pooled-buffer encode
// core) to Marshal output for every message type, including appending after
// existing bytes.
func TestAppendFrameMatchesMarshal(t *testing.T) {
	for _, m := range allMessages() {
		want, err := Marshal(m)
		if err != nil {
			t.Fatalf("marshal %s: %v", m.Type(), err)
		}
		got, err := AppendFrame(nil, m)
		if err != nil {
			t.Fatalf("append %s: %v", m.Type(), err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: AppendFrame differs from Marshal", m.Type())
		}
		prefix := []byte("prefix")
		got2, err := AppendFrame(append([]byte(nil), prefix...), m)
		if err != nil {
			t.Fatalf("append-after %s: %v", m.Type(), err)
		}
		if !bytes.Equal(got2, append(append([]byte(nil), prefix...), want...)) {
			t.Fatalf("%s: AppendFrame onto prefix corrupted stream", m.Type())
		}
	}
}

// BenchmarkConnSend_Heartbeat measures the full send path for a
// zero-payload message. With pooled encode buffers this is allocation-free.
func BenchmarkConnSend_Heartbeat(b *testing.B) {
	c := NewConn(&sinkConn{})
	hb := &Heartbeat{FreeSlots: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Send(hb); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConnSend_AttemptResult measures the send path for a typical
// result frame (payload-bearing).
func BenchmarkConnSend_AttemptResult(b *testing.B) {
	c := NewConn(&sinkConn{})
	m := &AttemptResult{Attempt: 7, Tasklet: 9, Status: 0, FuelUsed: 12345, ExecNanos: 67890}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Send(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMarshal_Heartbeat tracks Marshal's own cost for zero-payload
// messages (one allocation: the returned caller-owned frame).
func BenchmarkMarshal_Heartbeat(b *testing.B) {
	hb := &Heartbeat{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(hb); err != nil {
			b.Fatal(err)
		}
	}
}
