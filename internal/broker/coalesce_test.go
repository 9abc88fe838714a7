package broker

import (
	"bytes"
	"log"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/consumer"
	"repro/internal/core"
	"repro/internal/tvm"
	"repro/internal/wire"
)

// resultEssence is the semantically meaningful part of a result: everything
// except placement and timing (Provider, Attempts, Exec vary run to run).
type resultEssence struct {
	Index   int
	Status  core.ResultStatus
	Return  string
	Emitted string
	Fault   string
}

func essences(res []consumer.TaskResult) []resultEssence {
	out := make([]resultEssence, len(res))
	for i, r := range res {
		var em strings.Builder
		for _, v := range r.Emitted {
			em.WriteString(v.String())
			em.WriteByte('\n')
		}
		out[i] = resultEssence{
			Index:   r.Index,
			Status:  r.Status,
			Return:  r.Return.String(),
			Emitted: em.String(),
			Fault:   r.Fault,
		}
	}
	return out
}

// TestDifferentialCoalescingBitIdentical runs one deterministic job through
// the write-coalescing data plane (writer loops emptying bursts, flushes
// shared between racing senders) and checks every result against the known
// answer. (It used to compare against a second run that flushed per frame;
// that switch is gone, the result checks stayed.)
func TestDifferentialCoalescingBitIdentical(t *testing.T) {
	addr := testStack(t, Options{}, 3, nil)
	c, err := consumer.Connect(addr, "diff")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 96
	job, err := c.Submit(compileJob(t, squareSrc, intRows(n)...))
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Collect(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range essences(res) {
		want := resultEssence{Index: i, Status: core.StatusOK, Return: tvm.Int(int64(i) * int64(i)).String()}
		if r != want {
			t.Fatalf("result[%d] = %+v, want %+v", i, r, want)
		}
	}
}

// TestSendDroppedMetricAndCloseOnFullQueue exercises the enqueue overflow
// path white-box: a peer whose queue is full gets its messages counted in
// broker.send_dropped, one log line, and its connection closed.
func TestSendDroppedMetricAndCloseOnFullQueue(t *testing.T) {
	var logBuf bytes.Buffer
	b := New(Options{Logger: log.New(&logBuf, "", 0)})
	defer b.Close()

	a, peer := net.Pipe()
	defer peer.Close()

	full := make(chan wire.Message) // unbuffered: every enqueue overflows
	var warned atomic.Bool
	b.enqueue(full, &wire.Heartbeat{}, a, &warned, "provider 42")
	b.enqueue(full, &wire.Bye{}, a, &warned, "provider 42")

	if got := b.reg.Counter("broker.send_dropped").Value(); got != 2 {
		t.Fatalf("broker.send_dropped = %d, want 2", got)
	}
	if n := strings.Count(logBuf.String(), "send queue full"); n != 1 {
		t.Fatalf("overflow logged %d times, want once per connection:\n%s", n, logBuf.String())
	}
	if !strings.Contains(logBuf.String(), "provider 42") {
		t.Fatalf("log line does not name the peer: %s", logBuf.String())
	}
	// The connection must have been closed so the peer's reader tears down.
	if _, err := a.Write([]byte{0}); err == nil {
		t.Fatal("connection still open after queue overflow")
	}
}
