package broker

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/consumer"
	"repro/internal/core"
	"repro/internal/provider"
	"repro/internal/tvm"
	"repro/internal/wire"
)

// fnvPair returns the two pinned programs in testdata/fnvpair as one-tasklet
// jobs, and the value each returns when run locally. The programs differ
// only in a string constant chosen so that their bytecode has the same
// 64-bit FNV-1a hash; the test fails if the compiler's output stops
// colliding, since the pair would then prove nothing.
func fnvPair(t *testing.T) (jobs [2]core.JobSpec, want [2]int64) {
	t.Helper()
	for i, name := range []string{"a.tcl", "b.tcl"} {
		src, err := os.ReadFile(filepath.Join("testdata", "fnvpair", name))
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = compileJob(t, string(src), []int64{})
		var prog tvm.Program
		if err := prog.UnmarshalBinary(jobs[i].Program); err != nil {
			t.Fatal(err)
		}
		res, err := tvm.New(&prog, tvm.DefaultConfig()).Run()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Return.I
	}
	if a, b := jobs[0].Program, jobs[1].Program; string(a) == string(b) ||
		core.HashProgram(a) != core.HashProgram(b) || want[0] == want[1] {
		t.Fatalf("testdata/fnvpair no longer collides: hashes %d, %d; values %d, %d",
			core.HashProgram(a), core.HashProgram(b), want[0], want[1])
	}
	return jobs, want
}

// TestCollidingProgramsGetTheirOwnResults: on one provider with one slot,
// consumer A runs the first program of an FNV-colliding pair and consumer B
// then runs the second. Each gets the value its own program returns, with
// the result memo on and off.
func TestCollidingProgramsGetTheirOwnResults(t *testing.T) {
	jobs, want := fnvPair(t)
	for _, memo := range []int{0, -1} {
		t.Run(fmt.Sprintf("memo=%d", memo), func(t *testing.T) {
			addr := testStack(t, Options{MemoEntries: memo}, 1, func(int) provider.Options {
				return provider.Options{Slots: 1, Speed: 100}
			})
			for i, name := range []string{"A", "B"} {
				c, err := consumer.Connect(addr, name)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				job, err := c.Submit(jobs[i])
				if err != nil {
					t.Fatal(err)
				}
				res, err := job.Collect(ctxT(t))
				if err != nil {
					t.Fatal(err)
				}
				if r := res[0]; !r.OK() || r.Return.I != want[i] {
					t.Fatalf("consumer %s: %s (%s) returned %s, want %d", name, r.Status, r.Fault, r.Return, want[i])
				}
			}
		})
	}
}

// TestBrokerNamesEachProgramOnce: with the memo on, the two programs of an
// FNV-colliding pair reach a raw-wire provider under different program IDs,
// and the second is dispatched rather than served the first's cached value,
// so their memo keys differ too. The first program submitted again by
// another consumer keeps its ID (seen on a no-cache submission) and, cached,
// is served from the memo without reaching the provider.
func TestBrokerNamesEachProgramOnce(t *testing.T) {
	jobs, want := fnvPair(t)
	b := New(Options{})
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	f := dialFakeProvider(t, addr, wire.Register{Slots: 1, Speed: 100}, 1)

	// run submits spec from a fresh consumer. When dispatched is set it
	// waits for the assign, answers it with ret and returns the program ID
	// the frame named; otherwise the result must come from the memo.
	run := func(spec core.JobSpec, ret int64, dispatched bool) core.ProgramID {
		t.Helper()
		c, err := consumer.Connect(addr, "identity")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		job, err := c.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		var id core.ProgramID
		if dispatched {
			ab := recvAssign(t, f)
			a := ab.Assigns[0]
			if string(ab.Programs[0].Data) != string(spec.Program) {
				t.Fatalf("attempt %d does not carry the submitted program", a.Attempt)
			}
			id = a.Program
			f.report(wire.AttemptResult{
				Attempt: a.Attempt, Tasklet: a.Tasklet, Status: core.StatusOK,
				Return: tvm.Int(ret), FuelUsed: 1, ExecNanos: 1000,
			})
		}
		res, err := job.Collect(ctxT(t))
		if err != nil {
			t.Fatal(err)
		}
		if r := res[0]; !r.OK() || r.Return.I != ret || (r.Attempts > 0) != dispatched {
			t.Fatalf("result %+v, want %d after %v dispatch", r, ret, dispatched)
		}
		return id
	}

	idA := run(jobs[0], want[0], true)
	idB := run(jobs[1], want[1], true)
	if idA == idB {
		t.Fatalf("FNV-colliding programs share program ID %d", idA)
	}
	again := jobs[0]
	again.QoC.NoCache = true
	if id := run(again, want[0], true); id != idA {
		t.Fatalf("the same program submitted again got ID %d, first %d", id, idA)
	}
	run(jobs[0], want[0], false)
}

// TestConcurrentSubmitsNameProgramOnce: consumers submitting one new
// program at once race to name it; the table names it once. Without the
// re-check under the write lock this fails only when two submissions
// overlap in the decode window: a few runs in twenty on a 2-vCPU host, so
// run it with -count when touching the table.
func TestConcurrentSubmitsNameProgramOnce(t *testing.T) {
	const consumers = 8
	b := New(Options{MemoEntries: -1})
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	addProvider(t, addr, provider.Options{Slots: 2, Speed: 100})
	// A long constant makes the decode between the read-lock miss and the
	// write lock take long enough for the submissions to overlap in it.
	src := fmt.Sprintf(`func main(n int) int { if (n < 0) { return hash("%s"); } return n * n; }`,
		strings.Repeat("x", 1<<18))
	spec := compileJob(t, src, []int64{3})
	clients := make([]*consumer.Client, consumers)
	for i := range clients {
		c, err := consumer.Connect(addr, "racer")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}
	start := make(chan struct{})
	errs := make(chan error, consumers)
	for _, c := range clients {
		go func() {
			<-start
			job, err := c.Submit(spec)
			if err != nil {
				errs <- err
				return
			}
			res, err := job.Collect(ctxT(t))
			if err == nil && (!res[0].OK() || res[0].Return.I != 9) {
				err = fmt.Errorf("result %+v, want 9", res[0])
			}
			errs <- err
		}()
	}
	close(start)
	for i := 0; i < consumers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	b.progMu.RLock()
	named, entries := b.nextProgram, len(b.programs)
	b.progMu.RUnlock()
	if named != 1 || entries != 1 {
		t.Fatalf("one program submitted %d times at once was named %d times (%d entries)", consumers, named, entries)
	}
}

// recvAssign returns the next assign frame the broker sends f, which must
// hold one attempt and the program it names.
func recvAssign(t *testing.T, f *fakeProvider) *wire.AssignBatch {
	t.Helper()
	for {
		select {
		case msg, ok := <-f.msgs:
			if !ok {
				t.Fatal("broker closed the provider connection")
			}
			if m, ok := msg.(*wire.AssignBatch); ok {
				if len(m.Assigns) != 1 || len(m.Programs) != 1 || m.Programs[0].ID != m.Assigns[0].Program {
					t.Fatalf("batch %+v: want one attempt and its program", m)
				}
				return m
			}
		case <-time.After(10 * time.Second):
			t.Fatal("no attempt arrived")
		}
	}
}
