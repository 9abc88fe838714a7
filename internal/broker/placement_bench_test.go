package broker

import (
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scheduler"
	"repro/internal/wire"
)

// benchConn is a no-op net.Conn for directly injected provider states.
type benchConn struct{}

func (benchConn) Read([]byte) (int, error)         { return 0, nil }
func (benchConn) Write(b []byte) (int, error)      { return len(b), nil }
func (benchConn) Close() error                     { return nil }
func (benchConn) LocalAddr() net.Addr              { return nil }
func (benchConn) RemoteAddr() net.Addr             { return nil }
func (benchConn) SetDeadline(time.Time) error      { return nil }
func (benchConn) SetReadDeadline(time.Time) error  { return nil }
func (benchConn) SetWriteDeadline(time.Time) error { return nil }

// benchBroker builds a broker with p injected, registered providers. Each
// provider gets a drainer goroutine so Assign messages never back up the
// send queue; the drainers die when the channels are closed via cleanup.
func benchBroker(b *testing.B, p int) *Broker {
	b.Helper()
	br := New(Options{
		Policy:      scheduler.NewWorkSteal(),
		Partitions:  1,
		MemoEntries: -1, MemoBytes: -1, MemoTTL: -1,
	})
	for i := 0; i < p; i++ {
		br.nextProvider++
		id := br.nextProvider
		ps := &providerState{
			info: core.ProviderInfo{
				ID:          id,
				Slots:       4,
				Speed:       float64(1 + (i*37)%100),
				Reliability: 1,
			},
			out:   make(chan wire.Message, sendQueueDepth),
			nc:    benchConn{},
			label: fmt.Sprintf("provider %d", id),
			sent:  map[core.ProgramID]bool{},
		}
		ps.free.Store(4)
		br.providers[id] = ps
		br.index.Upsert(&ps.info, int(ps.free.Load()), int(ps.backlog.Load()))
		out := ps.out
		go func() {
			for range out {
			}
		}()
		b.Cleanup(func() { close(out) })
	}
	return br
}

// enqueueBatch queues k fresh pending tasklets on the broker: each is
// submitted to the lifecycle engine and its launch effect applied to the
// placement queue by hand (no memo keys, so Submit emits exactly one Launch).
func enqueueBatch(br *Broker, k int) {
	part := br.parts[0]
	for i := 0; i < k; i++ {
		tid := core.TaskletID(br.nextTasklet.Add(1))
		part.life.Submit(core.Tasklet{ID: tid, Job: 1, Index: i, Fuel: 1_000_000}, "", false)
		part.pending = append(part.pending, tid)
		br.pendingN.Add(1)
	}
}

// drainBatch reverts the placements of one benchmark iteration so the next
// iteration sees an idle fleet: every attempt completes (finalizing its
// best-effort tasklet in the engine), and the fleet accounting is restored.
func drainBatch(br *Broker, b *testing.B) {
	part := br.parts[0]
	attempts := make([]core.Result, 0, 256)
	part.life.VisitAttempts(func(id core.AttemptID, tid core.TaskletID, pid core.ProviderID, _ bool) {
		attempts = append(attempts, core.Result{
			Attempt: id, Tasklet: tid, Provider: pid, Status: core.StatusOK,
		})
	})
	for _, res := range attempts {
		p := br.providers[res.Provider]
		p.free.Add(1)
		p.backlog.Add(-1)
		p.finished.Add(1)
		br.updateReliabilityLocked(p)
		br.index.Complete(p.info.ID)
		part.life.Result(res)
	}
	if len(part.pending) != 0 {
		b.Fatalf("%d tasklets unplaced", len(part.pending))
	}
	if n := part.life.Pending(); n != 0 {
		b.Fatalf("%d tasklets still live in the engine", n)
	}
}

// BenchmarkBrokerPlacement measures a full placement pass over a batch of
// 256 pending tasklets against a fleet of P providers, exercising the real
// schedulePassLocked (queue walk, exclusion building, launch bookkeeping,
// Assign dispatch). ns/op is per batch, not per pick.
func BenchmarkBrokerPlacement(b *testing.B) {
	const batch = 256
	for _, p := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			br := benchBroker(b, p)
			br.mu.Lock()
			defer br.mu.Unlock()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				enqueueBatch(br, batch)
				b.StartTimer()
				br.schedulePassLocked()
				b.StopTimer()
				drainBatch(br, b)
				b.StartTimer()
			}
		})
	}
}
