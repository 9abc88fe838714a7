package tvm_test

import (
	"testing"

	"repro/internal/stdtasks"
	"repro/internal/tvm"
)

// TestReusedVMMatchesFreshOnStdtasks is the provider's slot-worker contract
// on realistic programs (loops, recursion, arrays, strings, rand, emit): a VM
// re-armed with Reset after any other run is indistinguishable from a new
// one.
func TestReusedVMMatchesFreshOnStdtasks(t *testing.T) {
	for _, name := range stdtasks.Names() {
		p, ok := stdtaskParams[name]
		if !ok {
			t.Errorf("%s: no parameters registered; add it to stdtaskParams", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			cfg := tvm.DefaultConfig()
			cfg.Seed = 7
			tvm.CheckReuse(t, stdtasks.MustProgram(name), tvm.ReuseRun{Cfg: cfg, Params: p})
		})
	}
}

// stdtaskParams is one realistic argument list per standard tasklet.
var stdtaskParams = map[string][]tvm.Value{
	"grep":       {tvm.Str("info ok\nerror bad\ninfo fine\nerror worse\n"), tvm.Str("error")},
	"mandelbrot": {tvm.Int(10), tvm.Int(32), tvm.Int(32), tvm.Int(50)},
	"matmul":     {tvm.Int(1), tvm.Int(12)},
	"montecarlo": {tvm.Int(5000)},
	"noop":       {},
	"nqueens":    {tvm.Int(6)},
	"primes":     {tvm.Int(0), tvm.Int(500)},
	"sortcheck":  {tvm.Int(64), tvm.Int(3)},
	"spin":       {tvm.Int(5000)},
	"wordcount":  {tvm.Str("the cat and the dog and the bird"), tvm.Str("the")},
}

// TestLoopMatchesStepOnStdtasks runs every standard tasklet three ways — the
// fused stream, the straight stream, and vm.step alone (no fast path at all)
// — and expects one outcome: the loop's fast paths, plain and fused, add
// speed and nothing else.
func TestLoopMatchesStepOnStdtasks(t *testing.T) {
	for name, p := range stdtaskParams {
		t.Run(name, func(t *testing.T) {
			prog := stdtasks.MustProgram(name)
			cfg := tvm.DefaultConfig()
			cfg.Seed = 7
			want, err := tvm.RunReference(prog, cfg, p...)
			if err != nil {
				t.Fatal(err)
			}
			for _, noOpt := range []bool{false, true} {
				cfg.NoOptimize = noOpt
				got, err := tvm.New(prog, cfg).Run(p...)
				if err != nil {
					t.Fatalf("NoOptimize=%v: %v", noOpt, err)
				}
				if got.Hash() != want.Hash() || got.FuelUsed != want.FuelUsed {
					t.Fatalf("NoOptimize=%v: hash %d fuel %d, step alone has hash %d fuel %d",
						noOpt, got.Hash(), got.FuelUsed, want.Hash(), want.FuelUsed)
				}
			}
		})
	}
}

// TestSpinLoopStaysFused is the deterministic guard behind the spin_compute
// benchmark: one iteration of spin's loop is two dispatches — the statement
// `acc = acc + i % 7`, and the increment with the back-edge, which runs the
// loop's compare-and-branch itself — both kind-proved twins
// (TestStdtasksGetTwins). A peephole edit that un-fuses any of them fails
// here, not in a timing.
func TestSpinLoopStaysFused(t *testing.T) {
	if got := tvm.FusedLoopLen(stdtasks.MustProgram("spin")); got != 2 {
		t.Fatalf("spin's loop is %d dispatches per iteration, want 2", got)
	}
}

// TestStdtasksGetTwins pins how many of each standard tasklet's statement
// superinstructions the kind analysis proves int-only: every loop-bearing
// tasklet gets at least one twin, and spin both of its loop's dispatches.
func TestStdtasksGetTwins(t *testing.T) {
	want := map[string]int{
		"grep": 1, "mandelbrot": 2, "matmul": 2, "montecarlo": 1, "noop": 0,
		"nqueens": 3, "primes": 1, "sortcheck": 4, "spin": 2, "wordcount": 1,
	}
	for _, name := range stdtasks.Names() {
		if got := tvm.Twins(stdtasks.MustProgram(name)); got != want[name] {
			t.Errorf("%s: %d kind-proved twins, want %d", name, got, want[name])
		}
	}
}
