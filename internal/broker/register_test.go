package broker

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/consumer"
	"repro/internal/wire"
)

// refused requires the broker to answer the fake provider with an error of
// code ErrCodeProtocol and close its session, placing nothing on it first.
func (f *fakeProvider) refused() {
	f.t.Helper()
	var em *wire.ErrorMsg
	timeout := time.After(10 * time.Second)
	for {
		select {
		case msg, ok := <-f.msgs:
			if !ok {
				if em == nil {
					f.t.Fatal("session closed without an error frame")
				}
				return
			}
			switch m := msg.(type) {
			case *wire.ErrorMsg:
				if m.Code != wire.ErrCodeProtocol {
					f.t.Fatalf("error code %d (%s), want %d", m.Code, m.Msg, wire.ErrCodeProtocol)
				}
				em = m
			case *wire.AssignBatch:
				f.t.Fatalf("refused provider was sent %s", msg.Type())
			}
		case <-timeout:
			f.t.Fatal("broker kept the session open")
		}
	}
}

// TestSecondRegisterEndsSession: a provider that registers again while it
// holds an attempt is refused and disconnected, as a second register would
// reset its free slots under the attempt it holds. The attempt counts as
// lost and the job completes on another provider.
func TestSecondRegisterEndsSession(t *testing.T) {
	b := New(Options{MemoEntries: -1})
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	reg := wire.Register{Slots: 1, Speed: 100}
	f := dialFakeProvider(t, addr, reg, 1)
	c, err := consumer.Connect(addr, "register")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	job, err := c.Submit(compileJob(t, squareSrc, intRows(8)...))
	if err != nil {
		t.Fatal(err)
	}
	if got := f.settle(1); got != 1 {
		t.Fatalf("provider holds %d attempts, want 1", got)
	}
	if err := f.conn.Send(&reg); err != nil {
		t.Fatal(err)
	}
	f.refused()
	m := b.Metrics()
	for start := time.Now(); m.Counter("attempts.lost").Value() != 1; time.Sleep(time.Millisecond) {
		if time.Since(start) > 10*time.Second {
			t.Fatalf("attempts.lost = %d, want the 1 the refused provider held", m.Counter("attempts.lost").Value())
		}
	}
	dialFakeProvider(t, addr, reg, 1).serve(job, time.Microsecond)
}

// TestNonFiniteSpeedRefused: a provider that registers a NaN or infinite
// speed is refused and never given an attempt; the job runs on a provider
// that registered a finite one.
func TestNonFiniteSpeedRefused(t *testing.T) {
	for _, speed := range []float64{math.NaN(), math.Inf(1)} {
		t.Run(fmt.Sprint(speed), func(t *testing.T) {
			b := New(Options{MemoEntries: -1})
			addr, err := b.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { b.Close() })
			f := dialFakeProvider(t, addr, wire.Register{Slots: 4, Speed: speed}, 4)
			c, err := consumer.Connect(addr, "speed")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			job, err := c.Submit(compileJob(t, squareSrc, intRows(8)...))
			if err != nil {
				t.Fatal(err)
			}
			f.refused()
			dialFakeProvider(t, addr, wire.Register{Slots: 1, Speed: 100}, 1).serve(job, time.Microsecond)
		})
	}
}
