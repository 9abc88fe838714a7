package tasklang

import (
	"fmt"
	"testing"

	"repro/internal/tvm"
)

// FuzzCompile feeds arbitrary text through the whole pipeline. Invariants:
// the compiler never panics; anything it accepts produces bytecode that
// passes tvm validation, survives a marshal round trip, and runs under a
// small fuel budget without panicking — with the same outcome on the fused
// stream (superinstructions, kind-proved twins) as on the straight one
// (tvm.Config.NoOptimize). Random bytecode rarely proves a kind; compiled
// loops do, so this is where the twins meet varied programs.
func FuzzCompile(f *testing.F) {
	for _, src := range []string{
		"func main() int { return 1; }",
		"func main(a int, b int) int { return a % b; }",
		"func f() void { } func main() int { var x arr = [1,[2],\"s\"]; return len(x); }",
		"func main() float { return sqrt(2.0) * rand(); }",
		"func main() int { for (var i int = 0; i < 10; i = i + 1) { emit(i); } return 0; }",
		"func main() bool { return !(1 < 2) || true && false; }",
		"func main() str { return \"\\x41\\n\"; }",
		"/* comment */ func main() int { while (true) { break; } return 0; }",
		"func main() int { var xs arr = []; xs = push(xs, 1); return xs[0]; }",
		"func main(n int) int { var acc int = 0; for (var i int = 0; i < n * 10; i = i + 2) { acc = acc - i % 7; } return acc; }",
		"func main(n int, d int) int { var acc int = 1; for (var i int = 0; i < n; i = i + 1) { acc = acc * 3 / (i + d); } return acc; }",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Compile(src)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if err := prog.Validate(); err != nil {
			t.Fatalf("compiler emitted invalid bytecode: %v\nsource: %q", err, src)
		}
		data, err := prog.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var decoded tvm.Program
		if err := decoded.UnmarshalBinary(data); err != nil {
			t.Fatalf("round trip: %v\nsource: %q", err, src)
		}
		// Run with tiny limits, with no parameters or with small ints (a
		// parameter of another type faults, alike in both streams); any
		// fault is acceptable, any panic or disagreement is a bug.
		n := prog.EntryFunc().NumParams
		args := [][]tvm.Value{make([]tvm.Value, n), make([]tvm.Value, n)}
		for i := range n {
			args[0][i], args[1][i] = tvm.Int(int64(i+3)), tvm.Int(int64(len(src)%5-i))
		}
		for _, params := range args {
			cfg := tvm.Config{
				Fuel: 10_000, MaxStack: 1024, MaxCall: 64,
				MaxHeap: 4096, MaxEmit: 64, MaxPrint: 8, Seed: 1,
			}
			fused, fusedErr := tvm.New(prog, cfg).Run(params...)
			cfg.NoOptimize = true
			straight, straightErr := tvm.New(prog, cfg).Run(params...)
			if d := diffOutcome(fused, fusedErr, straight, straightErr); d != "" {
				t.Fatalf("fused and straight streams disagree on %v: %s\nsource: %q\n%s",
					params, d, src, prog.Disassemble())
			}
		}
	})
}

// diffOutcome describes how two runs' outcomes differ — result hash and
// FuelUsed, or fault code, message, function and pc — or returns "".
func diffOutcome(a *tvm.Result, aErr error, b *tvm.Result, bErr error) string {
	af, aFault := tvm.AsFault(aErr)
	bf, bFault := tvm.AsFault(bErr)
	switch {
	case aErr == nil && bErr == nil:
		if a.Hash() != b.Hash() || a.FuelUsed != b.FuelUsed {
			return fmt.Sprintf("hash %d fuel %d vs hash %d fuel %d", a.Hash(), a.FuelUsed, b.Hash(), b.FuelUsed)
		}
	case aFault && bFault:
		if af.Code != bf.Code || af.Msg != bf.Msg || af.Func != bf.Func || af.PC != bf.PC {
			return fmt.Sprintf("fault %v at %s pc %d vs %v at %s pc %d", af, af.Func, af.PC, bf, bf.Func, bf.PC)
		}
	default:
		return fmt.Sprintf("%v vs %v", aErr, bErr)
	}
	return ""
}
