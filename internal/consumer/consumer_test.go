package consumer

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stdtasks"
	"repro/internal/tvm"
	"repro/internal/wire"
)

// fakeBroker accepts one consumer connection and lets the test script the
// broker side of the protocol.
type fakeBroker struct {
	t    *testing.T
	ln   net.Listener
	conn chan *wire.Conn
}

func newFakeBroker(t *testing.T) *fakeBroker {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fb := &fakeBroker{t: t, ln: ln, conn: make(chan *wire.Conn, 1)}
	t.Cleanup(func() { ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		conn := wire.NewConn(nc)
		msg, err := conn.Recv()
		if err != nil {
			return
		}
		hello, ok := msg.(*wire.Hello)
		if !ok || hello.Version != wire.ProtocolVersion {
			fb.t.Errorf("first message = %#v, want a version %d hello", msg, wire.ProtocolVersion)
			return
		}
		if err := conn.Send(&wire.Welcome{ID: 9}); err != nil {
			return
		}
		fb.conn <- conn
	}()
	return fb
}

func (fb *fakeBroker) addr() string { return fb.ln.Addr().String() }

// jobID is the ID of the n-th job submitted to the fake broker, whose
// Welcome names consumer 9.
func jobID(n uint64) core.JobID { return core.JobID(9<<32 | n) }

// push wraps one result in the only frame a broker delivers results in.
func push(r wire.ResultPush) *wire.ResultPushBatch {
	return &wire.ResultPushBatch{Results: []wire.ResultPush{r}}
}

func (fb *fakeBroker) accept() *wire.Conn {
	select {
	case c := <-fb.conn:
		return c
	case <-time.After(5 * time.Second):
		fb.t.Fatal("no consumer connected")
		return nil
	}
}

func spinSpec(rows int) core.JobSpec {
	data, err := stdtasks.Bytecode("spin")
	if err != nil {
		panic(err)
	}
	params := make([][]tvm.Value, rows)
	for i := range params {
		params[i] = []tvm.Value{tvm.Int(int64(i))}
	}
	return core.JobSpec{Program: data, Params: params, Seed: 1}
}

func TestConnectHandshake(t *testing.T) {
	fb := newFakeBroker(t)
	c, err := Connect(fb.addr(), "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.ID() != 9 {
		t.Fatalf("id = %d", c.ID())
	}
	fb.accept()
}

func TestSubmitValidatesLocally(t *testing.T) {
	fb := newFakeBroker(t)
	c, err := Connect(fb.addr(), "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fb.accept()
	// Garbage program never reaches the broker.
	if _, err := c.Submit(core.JobSpec{Program: []byte("junk"), Params: [][]tvm.Value{{}}}); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestSubmitDeliversResultsInCompletionOrder(t *testing.T) {
	fb := newFakeBroker(t)
	c, err := Connect(fb.addr(), "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn := fb.accept()

	go func() {
		msg, err := conn.Recv()
		if err != nil {
			return
		}
		if _, ok := msg.(*wire.SubmitJob); !ok {
			t.Errorf("got %T, want SubmitJob", msg)
			return
		}
		// Deliver results out of index order.
		for _, idx := range []int{2, 0, 1} {
			_ = conn.Send(push(wire.ResultPush{
				Job: jobID(1), Index: idx, Status: core.StatusOK,
				Return: tvm.Int(int64(idx * 10)),
			}))
		}
		_ = conn.Send(&wire.JobDone{Job: jobID(1), Completed: 3})
	}()

	job, err := c.Submit(spinSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if job.ID != jobID(1) || job.Tasklets != 3 {
		t.Fatalf("job = %+v, want ID %d (consumer 9, first job)", job, jobID(1))
	}
	res, err := job.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if res[i].Return.I != int64(i*10) {
			t.Fatalf("res[%d] = %+v (Collect must re-order by index)", i, res[i])
		}
	}
	completed, failed := job.Counts()
	if completed != 3 || failed != 0 {
		t.Fatalf("counts = %d/%d", completed, failed)
	}
}

func TestSubmitRejectionSurfacesError(t *testing.T) {
	fb := newFakeBroker(t)
	c, err := Connect(fb.addr(), "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn := fb.accept()
	go func() {
		if _, err := conn.Recv(); err != nil {
			return
		}
		// An untagged error names no job and is ignored; the tagged one
		// ends the job it names.
		_ = conn.Send(&wire.ErrorMsg{Code: wire.ErrCodeProtocol, Msg: "untagged"})
		_ = conn.Send(&wire.ErrorMsg{Code: wire.ErrCodeBadJob, Msg: "quota exceeded", Job: jobID(1)})
	}()
	job, err := c.Submit(spinSpec(1))
	if err != nil {
		t.Fatalf("submit: %v (a refusal surfaces at Collect)", err)
	}
	_, err = job.Collect(context.Background())
	if err == nil || !strings.Contains(err.Error(), "quota exceeded") {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(job.Err().Error(), "quota exceeded") {
		t.Fatalf("Err = %v", job.Err())
	}
}

func TestUnsendableSubmitKeepsJobNumbering(t *testing.T) {
	fb := newFakeBroker(t)
	c, err := Connect(fb.addr(), "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn := fb.accept()
	go func() {
		// The unencodable job never reaches the wire, so the first
		// SubmitJob read here is the good one: job 1 on both sides.
		if _, err := conn.Recv(); err != nil {
			return
		}
		_ = conn.Send(push(wire.ResultPush{Job: jobID(1), Index: 0, Status: core.StatusOK, Return: tvm.Int(7)}))
		_ = conn.Send(&wire.JobDone{Job: jobID(1), Completed: 1})
	}()

	bad := spinSpec(1)
	bad.Params[0][0] = tvm.Value{Kind: 200}
	if _, err := c.Submit(bad); err == nil {
		t.Fatal("unencodable param accepted")
	}
	job, err := c.Submit(spinSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if job.ID != jobID(1) {
		t.Fatalf("job ID = %d, want %d: a failed Submit must not use up a number", job.ID, jobID(1))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := job.Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Return.I != 7 {
		t.Fatalf("result = %+v", res[0])
	}
}

func TestBrokerDeathFailsOutstandingJobs(t *testing.T) {
	fb := newFakeBroker(t)
	c, err := Connect(fb.addr(), "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn := fb.accept()
	go func() {
		if _, err := conn.Recv(); err != nil {
			return
		}
		time.Sleep(50 * time.Millisecond)
		conn.Close() // broker dies mid-job
	}()
	job, err := c.Submit(spinSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = job.Collect(context.Background())
	if err == nil || !strings.Contains(err.Error(), "connection lost") {
		t.Fatalf("err = %v", err)
	}
}

func TestBrokerDeathFailsPendingSubmission(t *testing.T) {
	fb := newFakeBroker(t)
	c, err := Connect(fb.addr(), "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn := fb.accept()
	go func() {
		if _, err := conn.Recv(); err != nil {
			return
		}
		conn.Close() // die right after reading the submission
	}()
	job, err := c.Submit(spinSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = job.Collect(context.Background())
	if err == nil || !strings.Contains(err.Error(), "connection lost") {
		t.Fatalf("err = %v, want connection lost", err)
	}
	if _, err := c.Submit(spinSpec(1)); err == nil {
		t.Fatal("submission on a dead session accepted")
	}
}

func TestCollectRespectsContext(t *testing.T) {
	fb := newFakeBroker(t)
	c, err := Connect(fb.addr(), "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn := fb.accept()
	go func() {
		if _, err := conn.Recv(); err != nil {
			return
		}
		// Never deliver results.
	}()
	job, err := c.Submit(spinSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := job.Collect(ctx); err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestResultsChannelClosesAfterJobDone(t *testing.T) {
	fb := newFakeBroker(t)
	c, err := Connect(fb.addr(), "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn := fb.accept()
	go func() {
		if _, err := conn.Recv(); err != nil {
			return
		}
		_ = conn.Send(push(wire.ResultPush{Job: jobID(1), Index: 0, Status: core.StatusOK, Return: tvm.Int(1)}))
		_ = conn.Send(&wire.JobDone{Job: jobID(1), Completed: 1})
	}()
	job, err := c.Submit(spinSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	var got []TaskResult
	for r := range job.Results() {
		got = append(got, r)
	}
	if len(got) != 1 || job.Err() != nil {
		t.Fatalf("got %v, err %v", got, job.Err())
	}
	// Results after close returns a closed channel, not nil.
	if _, ok := <-job.Results(); ok {
		t.Fatal("drained job yielded another result")
	}
}

func TestCancelSendsCancelJob(t *testing.T) {
	fb := newFakeBroker(t)
	c, err := Connect(fb.addr(), "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn := fb.accept()
	recvd := make(chan wire.Message, 2)
	go func() {
		if _, err := conn.Recv(); err != nil {
			return
		}
		msg, err := conn.Recv()
		if err != nil {
			return
		}
		recvd <- msg
	}()
	job, err := c.Submit(spinSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(job); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-recvd:
		cj, ok := msg.(*wire.CancelJob)
		if !ok || cj.Job != jobID(1) {
			t.Fatalf("broker received %#v", msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel never reached broker")
	}
}

func TestConnectFailures(t *testing.T) {
	if _, err := Connect("127.0.0.1:1", "test"); err == nil {
		t.Fatal("unreachable broker accepted")
	}
}

func TestTaskResultOK(t *testing.T) {
	if !(TaskResult{Status: core.StatusOK}).OK() {
		t.Fatal("OK broken")
	}
	if (TaskResult{Status: core.StatusLost}).OK() {
		t.Fatal("lost reported OK")
	}
}

func TestLocalFallbackReplacesFailedResult(t *testing.T) {
	fb := newFakeBroker(t)
	c, err := Connect(fb.addr(), "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn := fb.accept()
	go func() {
		if _, err := conn.Recv(); err != nil {
			return
		}
		// Index 0 succeeds remotely; index 1 is lost and must be computed
		// locally by the consumer.
		_ = conn.Send(push(wire.ResultPush{Job: jobID(1), Index: 0, Status: core.StatusOK,
			Return: tvm.Int(stdtasks.RefSpin(0))}))
		_ = conn.Send(push(wire.ResultPush{Job: jobID(1), Index: 1, Status: core.StatusLost,
			FaultMsg: "all attempts lost"}))
		_ = conn.Send(&wire.JobDone{Job: jobID(1), Completed: 1, Failed: 1})
	}()

	spec := spinSpec(2)
	spec.QoC.LocalFallback = true
	job, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].OK() || res[0].Local {
		t.Fatalf("res[0] = %+v", res[0])
	}
	if !res[1].OK() || !res[1].Local {
		t.Fatalf("res[1] = %+v, want local fallback success", res[1])
	}
	if res[1].Return.I != stdtasks.RefSpin(1) {
		t.Fatalf("fallback computed %s, want %d", res[1].Return, stdtasks.RefSpin(1))
	}
	completed, failed := job.Counts()
	if completed != 2 || failed != 0 {
		t.Fatalf("counts = %d/%d, fallback should convert the failure", completed, failed)
	}
}

func TestLocalFallbackDisabledKeepsFailure(t *testing.T) {
	fb := newFakeBroker(t)
	c, err := Connect(fb.addr(), "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn := fb.accept()
	go func() {
		if _, err := conn.Recv(); err != nil {
			return
		}
		_ = conn.Send(push(wire.ResultPush{Job: jobID(1), Index: 0, Status: core.StatusLost}))
		_ = conn.Send(&wire.JobDone{Job: jobID(1), Failed: 1})
	}()
	job, err := c.Submit(spinSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res[0].OK() || res[0].Local {
		t.Fatalf("res = %+v, want remote failure preserved", res[0])
	}
}
