package broker

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/consumer"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/provider"
	"repro/internal/tvm"
	"repro/internal/wire"
)

// TestDifferentialBatchingBitIdentical runs one deterministic job through
// the batched control plane and checks it against the known answers: every
// result OK with the right value, and the providers really did decode
// AssignBatch frames. (It used to compare against a second run with batch
// frames switched off; that switch is gone, the result checks stayed.)
func TestDifferentialBatchingBitIdentical(t *testing.T) {
	regs := make([]*metrics.Registry, 3)
	addr := testStack(t, Options{}, 3, func(i int) provider.Options {
		regs[i] = &metrics.Registry{}
		return provider.Options{Slots: 2, Speed: 100, Metrics: regs[i]}
	})
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
	checkSquares(t, res, n)
	// One Submit queues 96 tasklets before the first placement pass runs, so
	// the pass must group ≥2 assignments per provider into AssignBatches.
	var batches int64
	for _, reg := range regs {
		batches += reg.Counter("provider.batches.received").Value()
	}
	if batches == 0 {
		t.Fatal("batch-capable providers decoded no AssignBatch frames")
	}
}

// TestBatchBrokerLegacyProviderInterop tests capability fallback against
// real non-batch peers on the raw wire, in both directions: a provider that
// says Hello with no capability bits must be sent nothing but single Assign
// frames by the real broker, and a broker that only ever sends single
// Assigns must be served normally by the real (batch-capable) provider.
func TestBatchBrokerLegacyProviderInterop(t *testing.T) {
	const n = 24

	t.Run("legacy-provider", func(t *testing.T) {
		b := New(Options{})
		addr, err := b.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })

		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		pc := wire.NewConn(nc)
		if err := pc.Send(&wire.Hello{
			Version: wire.ProtocolVersion, Role: wire.RoleProvider, Name: "pre-batch", Caps: 0,
		}); err != nil {
			t.Fatal(err)
		}
		if msg, err := pc.Recv(); err != nil {
			t.Fatal(err)
		} else if _, ok := msg.(*wire.Welcome); !ok {
			t.Fatalf("handshake reply = %T", msg)
		}
		// Eight slots: one placement pass puts several attempts on this
		// provider, which is where a batch-capable peer gets an AssignBatch.
		if err := pc.Send(&wire.Register{Slots: 8, Speed: 100}); err != nil {
			t.Fatal(err)
		}
		var assigns, withProgram, other atomic.Int64
		go func() {
			for {
				msg, err := pc.Recv()
				if err != nil {
					return
				}
				a, ok := msg.(*wire.Assign)
				if !ok {
					other.Add(1)
					continue
				}
				assigns.Add(1)
				if len(a.ProgramData) > 0 {
					withProgram.Add(1)
				}
				x := a.Params[0].I
				if pc.Send(&wire.AttemptResult{
					Attempt: a.Attempt, Tasklet: a.Tasklet,
					Status: core.StatusOK, Return: tvm.Int(x * x), FuelUsed: 1,
				}) != nil {
					return
				}
			}
		}()

		c, err := consumer.Connect(addr, "interop")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		job, err := c.Submit(compileJob(t, squareSrc, intRows(n)...))
		if err != nil {
			t.Fatal(err)
		}
		res, err := job.Collect(ctxT(t))
		if err != nil {
			t.Fatal(err)
		}
		checkSquares(t, res, n)
		if got := other.Load(); got != 0 {
			t.Fatalf("non-batch provider was sent %d frames that are not single Assigns", got)
		}
		if got := assigns.Load(); got != n {
			t.Fatalf("non-batch provider received %d Assign frames, want %d", got, n)
		}
		if got := withProgram.Load(); got != 1 {
			t.Fatalf("bytecode shipped in %d Assign frames, want 1", got)
		}
	})

	t.Run("legacy-broker", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()

		const slots = 2
		reg := &metrics.Registry{}
		connected := make(chan *provider.Provider, 1)
		go func() {
			p, err := provider.Connect(provider.Options{
				BrokerAddr: ln.Addr().String(), Slots: slots, Speed: 100, Metrics: reg,
			})
			if err != nil {
				t.Error(err)
			}
			connected <- p
		}()

		nc, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		bc := wire.NewConn(nc)
		bc.ReadTimeout = 10 * time.Second
		msg, err := bc.Recv()
		if err != nil {
			t.Fatal(err)
		}
		hello, ok := msg.(*wire.Hello)
		if !ok || hello.Role != wire.RoleProvider || hello.Caps&wire.CapBatch == 0 {
			t.Fatalf("first frame = %+v, want a batch-capable provider Hello", msg)
		}
		if err := bc.Send(&wire.Welcome{ID: 1}); err != nil {
			t.Fatal(err)
		}
		p := <-connected
		if p == nil {
			t.FailNow()
		}
		defer p.Close()

		// One single Assign per free slot, the next on each result — never a
		// batch frame. Results may come back one by one or folded.
		spec := compileJob(t, squareSrc, intRows(n)...)
		progID := core.HashProgram(spec.Program)
		next := 0
		assign := func() {
			a := &wire.Assign{
				Attempt: core.AttemptID(next + 1), Tasklet: core.TaskletID(next + 1),
				Program: progID, Params: spec.Params[next], Fuel: 1_000_000, Seed: 1,
			}
			if next == 0 {
				a.ProgramData = spec.Program
			}
			next++
			if err := bc.Send(a); err != nil {
				t.Fatal(err)
			}
		}
		got := map[core.TaskletID]int64{}
		record := func(r *wire.AttemptResult) {
			if r.Status != core.StatusOK {
				t.Fatalf("attempt %d: status %v (%s)", r.Attempt, r.Status, r.FaultMsg)
			}
			got[r.Tasklet] = r.Return.I
			if next < n {
				assign()
			}
		}
		registered := false
		for len(got) < n {
			msg, err := bc.Recv()
			if err != nil {
				t.Fatalf("after %d results: %v", len(got), err)
			}
			switch m := msg.(type) {
			case *wire.Register:
				if m.Slots != slots || registered {
					t.Fatalf("register = %+v (already registered: %v)", m, registered)
				}
				registered = true
				for i := 0; i < slots; i++ {
					assign()
				}
			case *wire.AttemptResult:
				record(m)
			case *wire.AttemptResultBatch:
				for i := range m.Results {
					record(&m.Results[i])
				}
			case *wire.Heartbeat:
			default:
				t.Fatalf("provider sent unexpected %T", msg)
			}
		}
		for i := 0; i < n; i++ {
			if got[core.TaskletID(i+1)] != int64(i*i) {
				t.Fatalf("tasklet %d returned %d, want %d", i+1, got[core.TaskletID(i+1)], i*i)
			}
		}
		if v := reg.Counter("provider.batches.received").Value(); v != 0 {
			t.Fatalf("provider counted %d AssignBatch frames from a broker that sent none", v)
		}
		if v := reg.Counter("provider.attempts.executed").Value(); v != n {
			t.Fatalf("provider executed %d attempts, want %d", v, n)
		}
	})
}
