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
	params := map[string][]tvm.Value{
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
	for _, name := range stdtasks.Names() {
		p, ok := params[name]
		if !ok {
			t.Errorf("%s: no parameters registered; add it to this test", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			cfg := tvm.DefaultConfig()
			cfg.Seed = 7
			tvm.CheckReuse(t, stdtasks.MustProgram(name), tvm.ReuseRun{Cfg: cfg, Params: p})
		})
	}
}
