package broker

import (
	"net"
	"testing"
	"time"

	"repro/internal/consumer"
	"repro/internal/core"
	"repro/internal/provider"
	"repro/internal/wire"
)

// silentProvider registers a raw-wire provider that accepts assignments but
// never reports results; the returned channel yields each attempt, and the
// returned func kills the connection (the broker then declares every attempt
// it holds lost).
func silentProvider(t *testing.T, addr string, slots int) (<-chan *wire.Assign, func()) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	pc := wire.NewConn(nc)
	if err := pc.Send(&wire.Hello{Version: wire.ProtocolVersion, Role: wire.RoleProvider, Name: "silent"}); err != nil {
		t.Fatal(err)
	}
	if msg, err := pc.Recv(); err != nil {
		t.Fatal(err)
	} else if _, ok := msg.(*wire.Welcome); !ok {
		t.Fatalf("handshake reply = %T", msg)
	}
	if err := pc.Send(&wire.Register{Slots: slots, Speed: 100}); err != nil {
		t.Fatal(err)
	}
	assigns := make(chan *wire.Assign, 16)
	go func() {
		for {
			msg, err := pc.Recv()
			if err != nil {
				return
			}
			if ab, ok := msg.(*wire.AssignBatch); ok {
				for i := range ab.Assigns {
					assigns <- &ab.Assigns[i]
				}
			}
		}
	}()
	return assigns, func() { nc.Close() }
}

// TestBrokerMaxAttemptsCapFailsLost pins Options.MaxAttempts on the live
// broker: with a cap of one, a tasklet whose only attempt dies with its
// provider must come back StatusLost instead of waiting for capacity to
// re-issue, and the cached attempts.lost counter must record the loss.
func TestBrokerMaxAttemptsCapFailsLost(t *testing.T) {
	b := New(Options{MaxAttempts: 1})
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	assigns, kill := silentProvider(t, addr, 1)

	c, err := consumer.Connect(addr, "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	job, err := c.Submit(compileJob(t, squareSrc, []int64{7}))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-assigns:
	case <-time.After(5 * time.Second):
		t.Fatal("tasklet was never assigned")
	}
	kill()

	res, err := job.Collect(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].OK() || res[0].Status != core.StatusLost {
		t.Fatalf("capped result = %+v, want StatusLost", res[0])
	}
	if res[0].Attempts != 1 {
		t.Fatalf("capped result reports %d attempts, want 1", res[0].Attempts)
	}
	if got := b.Metrics().Counter("attempts.lost").Value(); got != 1 {
		t.Fatalf("attempts.lost = %d, want 1", got)
	}
}

// TestBrokerUncappedReissuesAfterProviderLoss is the contrast run: without
// a cap the same loss re-queues the tasklet, and a healthy provider joining
// later completes it.
func TestBrokerUncappedReissuesAfterProviderLoss(t *testing.T) {
	b := New(Options{})
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	assigns, kill := silentProvider(t, addr, 1)

	c, err := consumer.Connect(addr, "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	job, err := c.Submit(compileJob(t, squareSrc, []int64{7}))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-assigns:
	case <-time.After(5 * time.Second):
		t.Fatal("tasklet was never assigned")
	}
	kill()

	p, err := provider.Connect(provider.Options{BrokerAddr: addr, Slots: 1, Speed: 100, Name: "healthy"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })

	res, err := job.Collect(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].OK() || res[0].Return.I != 49 {
		t.Fatalf("re-issued result = %+v, want 49", res[0])
	}
	if res[0].Attempts != 2 {
		t.Fatalf("re-issued result reports %d attempts, want 2", res[0].Attempts)
	}
}
