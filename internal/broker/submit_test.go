package broker

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/consumer"
	"repro/internal/core"
	"repro/internal/tvm"
	"repro/internal/wire"
)

// TestConcurrentSubmitsOnOneClient drives one Client from 8 goroutines of
// 200 back-to-back Submits each. The client numbers jobs itself, so every
// goroutine must get back exactly its own results under its own job IDs.
func TestConcurrentSubmitsOnOneClient(t *testing.T) {
	addr := testStack(t, Options{}, 2, nil)
	c, err := consumer.Connect(addr, "concurrent")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const goroutines, perG = 8, 200
	var (
		mu  sync.Mutex
		ids = map[core.JobID]bool{}
		wg  sync.WaitGroup
	)
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			jobs := make([]*consumer.Job, perG)
			for i := range jobs {
				job, err := c.Submit(compileJob(t, squareSrc, []int64{int64(g*1000 + i)}))
				if err != nil {
					errs <- err
					return
				}
				jobs[i] = job
			}
			for i, job := range jobs {
				res, err := job.Collect(ctxT(t))
				if err != nil {
					errs <- err
					return
				}
				v := int64(g*1000 + i)
				if len(res) != 1 || !res[0].OK() || res[0].Return.I != v*v {
					t.Errorf("goroutine %d job %d (ID %d): results %+v, want [%d]", g, i, job.ID, res, v*v)
					return
				}
				mu.Lock()
				if ids[job.ID] {
					t.Errorf("job ID %d handed out twice", job.ID)
				}
				ids[job.ID] = true
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for id := range ids {
		if n := uint64(id) & (1<<32 - 1); uint64(id)>>32 != uint64(c.ID()) || n < 1 || n > goroutines*perG {
			t.Fatalf("job ID %#x is not consumer %d's n-th job", uint64(id), c.ID())
		}
	}
}

// rawConsumer opens a consumer session by hand and returns the connection
// and the broker-assigned consumer ID.
func rawConsumer(t *testing.T, addr string) (*wire.Conn, uint64) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	conn := wire.NewConn(nc)
	conn.ReadTimeout = 10 * time.Second
	if err := conn.Send(&wire.Hello{Version: wire.ProtocolVersion, Role: wire.RoleConsumer, Name: "raw"}); err != nil {
		t.Fatal(err)
	}
	msg, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	w, ok := msg.(*wire.Welcome)
	if !ok {
		t.Fatalf("handshake reply = %#v", msg)
	}
	return conn, w.ID
}

func submitMsg(spec core.JobSpec) *wire.SubmitJob {
	return &wire.SubmitJob{Program: spec.Program, Params: spec.Params, QoC: spec.QoC, Fuel: spec.Fuel, Seed: spec.Seed}
}

func recvT(t *testing.T, conn *wire.Conn) wire.Message {
	t.Helper()
	msg, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

// TestKnownProgramWrongArityRefused: the broker decodes a program only the
// first time it sees it and checks later jobs' rows against the stored
// entry arity, so a second job with a known program and the wrong row width
// is still refused, with Validate's message and tagged with its job ID.
// Nothing but results, the refusal and job_done reaches the consumer.
func TestKnownProgramWrongArityRefused(t *testing.T) {
	addr := testStack(t, Options{}, 1, nil)
	conn, cid := rawConsumer(t, addr)
	good := compileJob(t, squareSrc, []int64{5})
	bad := compileJob(t, squareSrc, []int64{5, 6})
	want := bad.Validate()
	if want == nil {
		t.Fatal("wrong-width spec passed Validate")
	}

	if err := conn.Send(submitMsg(good)); err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(submitMsg(bad)); err != nil {
		t.Fatal(err)
	}
	first, second := core.JobID(cid<<32|1), core.JobID(cid<<32|2)
	var refused, done bool
	for !refused || !done {
		switch m := recvT(t, conn).(type) {
		case *wire.ErrorMsg:
			if m.Job != second || m.Code != wire.ErrCodeBadJob || m.Msg != want.Error() {
				t.Fatalf("refusal = %#v, want job %d with %q", m, second, want)
			}
			refused = true
		case *wire.ResultPushBatch:
			if len(m.Results) != 1 || m.Results[0].Job != first || m.Results[0].Return.I != 25 {
				t.Fatalf("results = %#v", m)
			}
		case *wire.JobDone:
			done = m.Job == first
		default:
			t.Fatalf("unexpected %#v", m)
		}
	}
}

// TestSingletonJobTravelsAsOneEntryBatches: a one-tasklet job crosses the
// stack in the batch frames, the only frames for its operations. The
// provider gets a one-entry assign_batch whose table carries the program's
// bytes, answers with a one-entry attempt_result_batch, and the consumer
// gets a one-entry result_push_batch, then job_done.
func TestSingletonJobTravelsAsOneEntryBatches(t *testing.T) {
	b := New(Options{MemoEntries: -1})
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	f := dialFakeProvider(t, addr, wire.Register{Slots: 1, Speed: 100}, 1)
	conn, cid := rawConsumer(t, addr)
	spec := compileJob(t, squareSrc, []int64{6})
	if err := conn.Send(submitMsg(spec)); err != nil {
		t.Fatal(err)
	}

	var ab *wire.AssignBatch
	select {
	case msg, ok := <-f.msgs:
		if !ok {
			t.Fatal("broker closed the provider connection")
		}
		if ab, ok = msg.(*wire.AssignBatch); !ok {
			t.Fatalf("provider got %s, want assign_batch", msg.Type())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no attempt arrived")
	}
	if len(ab.Assigns) != 1 || len(ab.Programs) != 1 || ab.Programs[0].ID != ab.Assigns[0].Program ||
		string(ab.Programs[0].Data) != string(spec.Program) {
		t.Fatalf("assign_batch %+v: want one attempt and the submitted program's bytes", ab)
	}
	a := ab.Assigns[0]
	f.report(wire.AttemptResult{
		Attempt: a.Attempt, Tasklet: a.Tasklet, Status: core.StatusOK,
		Return: tvm.Int(36), FuelUsed: 1, ExecNanos: 1000,
	})

	job := core.JobID(cid<<32 | 1)
	rb, ok := recvT(t, conn).(*wire.ResultPushBatch)
	if !ok || len(rb.Results) != 1 {
		t.Fatalf("consumer got %#v, want a one-entry result_push_batch", rb)
	}
	if r := rb.Results[0]; r.Job != job || r.Index != 0 || r.Status != core.StatusOK || r.Return.I != 36 {
		t.Fatalf("result = %#v, want job %d index 0 returning 36", r, job)
	}
	if done, ok := recvT(t, conn).(*wire.JobDone); !ok || done.Job != job || done.Completed != 1 {
		t.Fatalf("after the result: %#v, want job_done for job %d", done, job)
	}
}
