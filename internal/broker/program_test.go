package broker

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/consumer"
	"repro/internal/core"
	"repro/internal/provider"
)

// addSrc is a one-parameter program that differs for every k, so each k
// is a distinct program ID.
func addSrc(k int) string {
	return fmt.Sprintf("func main(n int) int { return n + %d; }", k)
}

// TestDistinctProgramsPastProviderCache: more distinct programs than a
// provider's decode cache holds, then the first one again. Every assign
// frame carries its program's bytes, so the evicted program is decoded
// again and the repeat runs once, on its first attempt, with one provider
// or two.
func TestDistinctProgramsPastProviderCache(t *testing.T) {
	for _, providers := range []int{1, 2} {
		t.Run(fmt.Sprintf("providers=%d", providers), func(t *testing.T) {
			addr := testStack(t, Options{MemoEntries: -1}, providers, nil)
			c, err := consumer.Connect(addr, "programs")
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			run := func(k int) consumer.TaskResult {
				t.Helper()
				job, err := c.Submit(compileJob(t, addSrc(k), []int64{1}))
				if err != nil {
					t.Fatal(err)
				}
				res, err := job.Collect(ctxT(t))
				if err != nil {
					t.Fatal(err)
				}
				return res[0]
			}
			for k := 0; k < 70; k++ {
				if r := run(k); !r.OK() || r.Return.I != int64(1+k) {
					t.Fatalf("program %d: %+v", k, r)
				}
			}
			r := run(0)
			if !r.OK() || r.Return.I != 1 || r.Attempts != 1 {
				t.Fatalf("first program again: status %s after %d attempt(s) (%s), want ok after 1",
					r.Status, r.Attempts, r.Fault)
			}
		})
	}
}

// TestProgramMemoBounded soaks the broker with 10 000 distinct one-row
// programs. Every job comes back right, the broker's program table ends no
// larger than its bound, and providerState holds no per-program state.
func TestProgramMemoBounded(t *testing.T) {
	const n = 10_000
	b := New(Options{MemoEntries: -1})
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	addProvider(t, addr, provider.Options{Slots: 2, Speed: 100})
	c, err := consumer.Connect(addr, "soak")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	jobs := make([]*consumer.Job, n)
	for k := range jobs {
		if jobs[k], err = c.Submit(compileJob(t, addSrc(k), []int64{1})); err != nil {
			t.Fatal(err)
		}
	}
	for k, job := range jobs {
		res, err := job.Collect(ctxT(t))
		if err != nil {
			t.Fatal(err)
		}
		if r := res[0]; !r.OK() || r.Return.I != int64(1+k) {
			t.Fatalf("program %d: %+v", k, r)
		}
	}

	b.progMu.RLock()
	memo := len(b.programs)
	b.progMu.RUnlock()
	if memo > maxProgramMemo {
		t.Fatalf("program table holds %d entries, bound %d", memo, maxProgramMemo)
	}
	programID := reflect.TypeOf(core.ProgramID(0)).String()
	for _, f := range reflect.VisibleFields(reflect.TypeOf(providerState{})) {
		if strings.Contains(f.Type.String(), programID) {
			t.Errorf("providerState.%s (%s) is per-provider program state", f.Name, f.Type)
		}
	}
}
