// Package repro's root bench harness regenerates the paper's evaluation
// artifacts: one benchmark per table/figure (E1–E7, see DESIGN.md §4),
// each reporting its headline metric via b.ReportMetric, plus
// micro-benchmarks for the hot paths (VM, codec, scheduler, simulator).
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The full experiment reports (complete series/tables) come from
// cmd/tasklet-bench; these benches track the same quantities in a form the
// Go tooling can diff across commits.
package repro

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/consumer"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/provider"
	"repro/internal/sim"
	"repro/internal/stdtasks"
	"repro/internal/tasklang"
	"repro/internal/tvm"
	"repro/internal/wire"
	"repro/internal/workload"
)

func quickOpts() experiments.Options { return experiments.Options{Quick: true, Seed: 42} }

// ---------- E1: Table 1 — middleware micro-overheads ----------

func BenchmarkE1_CompileMandelbrot(b *testing.B) {
	src := stdtasks.Sources["mandelbrot"]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tasklang.Compile(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1_VMDispatchNoop(b *testing.B) {
	prog := stdtasks.MustProgram("noop")
	cfg := tvm.DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tvm.New(prog, cfg).Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1_SpinVM(b *testing.B) {
	prog := stdtasks.MustProgram("spin")
	cfg := tvm.DefaultConfig()
	const iters = 100_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := tvm.New(prog, cfg).Run(tvm.Int(iters))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.FuelUsed)*float64(b.N), "fuel/op-total")
		}
	}
}

// E1's native side, BenchmarkE1_SpinNative, lives in internal/stdtasks/native,
// whose test binary links no interpreter.

func BenchmarkE1_Table(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE1(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// ---------- E2: Figure 2 — offload crossover ----------

func BenchmarkE2_OffloadCrossover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE2(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		// Headline: offload cost on the largest quick size (ms).
		remote := res.Series[1]
		b.ReportMetric(remote.Y[len(remote.Y)-1], "offload-ms@1e6")
	}
}

// ---------- E3: Figure 3 — speedup vs providers ----------

func BenchmarkE3_Speedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE3(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		speedup := res.Series[0]
		b.ReportMetric(speedup.Y[len(speedup.Y)-1],
			fmt.Sprintf("speedup@%.0fproviders", speedup.X[len(speedup.X)-1]))
	}
}

// ---------- E4: Figure 4 — heterogeneity & policy ----------

func BenchmarkE4_Heterogeneity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE4(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		// Headline: random/fastest latency ratio at max spread.
		var random, fastest float64
		for _, s := range res.Series {
			last := s.Y[len(s.Y)-1]
			switch {
			case s.Name == "random ms":
				random = last
			case s.Name == "fastest ms":
				fastest = last
			}
		}
		if fastest > 0 {
			b.ReportMetric(random/fastest, "random/fastest@spread16")
		}
	}
}

// ---------- E5: Figure 5 — churn ----------

func BenchmarkE5_Churn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE5(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		// Headline: redundant2 completion at the harshest MTBF.
		red := res.Series[2]
		b.ReportMetric(red.Y[len(red.Y)-1], "redundant2-%done@mtbf8s")
	}
}

// ---------- E6: Table 2 — QoC cost ----------

func BenchmarkE6_QoCCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE6(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 5 {
			b.Fatal("rows missing")
		}
	}
}

// ---------- E7: Figure 6 — broker throughput ----------

func BenchmarkE7_BrokerThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE7(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		tput := res.Series[0]
		var max float64
		for _, y := range tput.Y {
			if y > max {
				max = y
			}
		}
		b.ReportMetric(max, "tasklets/s-peak")
	}
}

// ---------- micro-benchmarks ----------

func BenchmarkVM_Fib20(b *testing.B) {
	prog, err := tasklang.Compile(`
func fib(n int) int {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
func main(n int) int { return fib(n); }`)
	if err != nil {
		b.Fatal(err)
	}
	cfg := tvm.DefaultConfig()
	vm := tvm.New(prog, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm.Reset(cfg)
		if _, err := vm.Run(tvm.Int(20)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVM_FusedDispatch exercises the superinstruction-dense inner loop
// shape (local/int compare-and-branch, arithmetic-on-locals with store):
// after the load-time pass the loop body executes as 4 dispatches instead
// of 13.
func BenchmarkVM_FusedDispatch(b *testing.B) {
	prog, err := tasklang.Compile(`
func main(n int) int {
	var acc int = 0;
	for (var i int = 0; i < n; i = i + 1) {
		acc = acc + (i * 3 + 7) % 11;
	}
	return acc;
}`)
	if err != nil {
		b.Fatal(err)
	}
	cfg := tvm.DefaultConfig()
	vm := tvm.New(prog, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm.Reset(cfg)
		if _, err := vm.Run(tvm.Int(100_000)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVM_ReusedSiblings runs the provider's slot-worker pattern: VMs made
// back to back (so their buffers are neighbours in memory), then each re-armed
// and run by its own goroutine. With a CPU per worker, ns/op at 2 workers must
// match 1 worker; when it does not, sibling VMs share cache lines (it read
// 1.8x before the VM's hot buffers were sized in whole cache lines).
func BenchmarkVM_ReusedSiblings(b *testing.B) {
	prog := stdtasks.MustProgram("spin")
	cfg := tvm.DefaultConfig()
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			vms := make([]*tvm.VM, workers)
			for i := range vms {
				vms[i] = tvm.New(prog, cfg)
				if _, err := vms[i].Run(tvm.Int(10)); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			for _, vm := range vms {
				wg.Add(1)
				go func(vm *tvm.VM) {
					defer wg.Done()
					for i := 0; i < b.N; i++ {
						vm.Reset(cfg)
						if _, err := vm.Run(tvm.Int(3000)); err != nil {
							b.Error(err)
							return
						}
					}
				}(vm)
			}
			wg.Wait()
		})
	}
}

func BenchmarkVM_ArrayHeavy(b *testing.B) {
	prog := stdtasks.MustProgram("matmul")
	cfg := tvm.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tvm.New(prog, cfg).Run(tvm.Int(1), tvm.Int(24)); err != nil {
			b.Fatal(err)
		}
	}
}

// wireAssign is the assign frame a lone tasklet travels in: a one-entry
// assign_batch whose table carries a noop-sized program.
func wireAssign() *wire.AssignBatch {
	return &wire.AssignBatch{
		Programs: []wire.ProgramBlob{{ID: 3, Data: make([]byte, 51)}},
		Assigns: []wire.Assign{{
			Attempt: 1, Tasklet: 2, Program: 3,
			Params: []tvm.Value{tvm.Int(1), tvm.Str("hello"), tvm.Float(2.5)},
			Fuel:   1000, Seed: 7,
		}},
	}
}

func BenchmarkWire_MarshalAssign(b *testing.B) {
	msg := wireAssign()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Marshal(msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWire_UnmarshalAssign(b *testing.B) {
	frame, err := wire.Marshal(wireAssign())
	if err != nil {
		b.Fatal(err)
	}
	payload := frame[5:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Unmarshal(wire.TypeAssignBatch, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSim_Batch512On16(b *testing.B) {
	devices := workload.PaperMix(16)
	tasks := workload.Batch(512, 10_000_000, core.QoC{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := sim.Run(sim.Config{
			Devices: devices, Tasks: tasks,
			Latency: 2 * time.Millisecond, Seed: uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if stats.Completed != 512 {
			b.Fatal("incomplete")
		}
	}
}

func BenchmarkSim_ChurnHeavy(b *testing.B) {
	devices := workload.WithChurn(workload.Homogeneous(16, core.ClassDesktop, 1),
		20*time.Second, 5*time.Second)
	tasks := workload.Batch(256, 100_000_000, core.QoC{Mode: core.QoCRedundant, Replicas: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sim.Config{
			Devices: devices, Tasks: tasks,
			DetectDelay: time.Second, Seed: uint64(i + 1),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashValue(b *testing.B) {
	v := tvm.Arr(tvm.Int(1), tvm.Str("result"), tvm.Float(3.14), tvm.Arr(tvm.Int(2)))
	for i := 0; i < b.N; i++ {
		_ = tvm.HashValue(v)
	}
}

// ---------- ablations (design choices called out in DESIGN.md) ----------

// benchAblationOptimize isolates the load-time optimization pass: the same
// spin workload with the fused fast-path stream enabled vs disabled
// (Config.NoOptimize). The pair demonstrates the pass — not unrelated VM
// changes — is responsible for the interpreter speedup.
func benchAblationOptimize(b *testing.B, disable bool) {
	prog := stdtasks.MustProgram("spin")
	cfg := tvm.DefaultConfig()
	cfg.NoOptimize = disable
	vm := tvm.New(prog, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm.Reset(cfg)
		if _, err := vm.Run(tvm.Int(100_000)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_OptimizeOn(b *testing.B)  { benchAblationOptimize(b, false) }
func BenchmarkAblation_OptimizeOff(b *testing.B) { benchAblationOptimize(b, true) }

// benchAblationMemo measures the result memo (internal/memo) on a live
// stack under a Zipf-repeated workload: 512 spin tasklets drawn from a pool
// of 64 distinct contents. With the memo on, repeated content is served
// from cache (or coalesced while in flight) instead of executing; the
// throughput gap is the ablation's headline.
func benchAblationMemo(b *testing.B, memoOn bool) {
	var opts broker.Options
	if !memoOn {
		// The broker memo is the only tier, so the baseline is "no
		// memoization anywhere".
		opts.MemoEntries, opts.MemoBytes, opts.MemoTTL = -1, -1, -1
	}
	br := newBrokerForBench(b, opts)
	defer br.Close()
	spin, err := stdtasks.Bytecode("spin")
	if err != nil {
		b.Fatal(err)
	}
	const nTasks, pool = 512, 64
	idx := workload.ZipfIndices(nTasks, pool, 1.1, 42)
	params := make([][]tvm.Value, nTasks)
	for i, ix := range idx {
		// Distinct iteration counts per content, so distinct results prove
		// the cache keys content correctly.
		params[i] = []tvm.Value{tvm.Int(int64(100_000 + ix))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := br.run(spin, params); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(nTasks*b.N)/b.Elapsed().Seconds(), "tasklets/s")
}

func BenchmarkAblation_MemoOn(b *testing.B)  { benchAblationMemo(b, true) }
func BenchmarkAblation_MemoOff(b *testing.B) { benchAblationMemo(b, false) }

// benchBrokerThroughput drives the submit→assign→result hot path at scale:
// 4 consumers × 4 providers on loopback, each consumer pushing a 256-tasklet
// noop job per iteration, so the broker handles bursts of assigns and result
// pushes on every connection.
func BenchmarkBrokerThroughput(b *testing.B) {
	const nConsumers, nProviders, perJob = 4, 4, 256
	// Memo off: repeated identical noop tasklets must traverse the full data
	// plane every iteration.
	br := broker.New(broker.Options{
		MemoEntries: -1, MemoBytes: -1, MemoTTL: -1,
	})
	defer br.Close()
	addr, err := br.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < nProviders; i++ {
		p, err := provider.Connect(provider.Options{BrokerAddr: addr, Slots: 8, Speed: 100})
		if err != nil {
			b.Fatal(err)
		}
		defer p.Close()
	}
	consumers := make([]*consumer.Client, nConsumers)
	for i := range consumers {
		c, err := consumer.Connect(addr, fmt.Sprintf("bench-%d", i))
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		consumers[i] = c
	}
	noop, err := stdtasks.Bytecode("noop")
	if err != nil {
		b.Fatal(err)
	}
	params := make([][]tvm.Value, perJob)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		errs := make(chan error, nConsumers)
		for _, c := range consumers {
			go func(c *consumer.Client) {
				job, err := c.Submit(core.JobSpec{Program: noop, Params: params, Seed: 1})
				if err != nil {
					errs <- err
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
				defer cancel()
				res, err := job.Collect(ctx)
				if err == nil {
					for _, r := range res {
						if !r.OK() {
							err = fmt.Errorf("tasklet %d failed: %s", r.Index, r.Fault)
							break
						}
					}
				}
				errs <- err
			}(c)
		}
		for range consumers {
			if err := <-errs; err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(nConsumers*perJob*b.N)/b.Elapsed().Seconds(), "tasklets/s")
}

// benchStack is a minimal live stack helper for ablation benches.
type benchStack struct {
	b      *broker.Broker
	provs  []*provider.Provider
	client *consumer.Client
}

func newBrokerForBench(tb testing.TB, opts broker.Options) *benchStack {
	tb.Helper()
	s := &benchStack{b: broker.New(opts)}
	addr, err := s.b.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		p, err := provider.Connect(provider.Options{BrokerAddr: addr, Slots: 4, Speed: 100})
		if err != nil {
			tb.Fatal(err)
		}
		s.provs = append(s.provs, p)
	}
	c, err := consumer.Connect(addr, "bench")
	if err != nil {
		tb.Fatal(err)
	}
	s.client = c
	return s
}

func (s *benchStack) run(prog []byte, params [][]tvm.Value) error {
	job, err := s.client.Submit(core.JobSpec{Program: prog, Params: params, Seed: 1})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	res, err := job.Collect(ctx)
	if err != nil {
		return err
	}
	for _, r := range res {
		if !r.OK() {
			return fmt.Errorf("tasklet %d failed: %s", r.Index, r.Fault)
		}
	}
	return nil
}

func (s *benchStack) Close() {
	s.client.Close()
	for _, p := range s.provs {
		p.Close()
	}
	s.b.Close()
}

func BenchmarkVM_NQueens8(b *testing.B) {
	prog := stdtasks.MustProgram("nqueens")
	cfg := tvm.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := tvm.New(prog, cfg).Run(tvm.Int(8))
		if err != nil {
			b.Fatal(err)
		}
		if res.Return.I != 92 {
			b.Fatal("wrong solution count")
		}
	}
}

func BenchmarkVM_SortCheck(b *testing.B) {
	prog := stdtasks.MustProgram("sortcheck")
	cfg := tvm.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tvm.New(prog, cfg).Run(tvm.Int(300), tvm.Int(7)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVM_WordCount is the interpreter's string path: split, lower,
// string compares and array indexing over a few thousand words. No
// end-to-end benchmark workload runs strings.
func BenchmarkVM_WordCount(b *testing.B) {
	prog := stdtasks.MustProgram("wordcount")
	text := strings.Repeat("The quick brown fox jumps over the lazy dog and THE cat ", 400)
	want := int64(stdtasks.RefWordCount(text, "the"))
	cfg := tvm.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := tvm.New(prog, cfg).Run(tvm.Str(text), tvm.Str("the"))
		if err != nil {
			b.Fatal(err)
		}
		if res.Return.I != want {
			b.Fatalf("counted %d, want %d", res.Return.I, want)
		}
	}
}
