package tvm

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// runBothModes executes prog with the fused fast path, with
// Config.NoOptimize, and by vm.step alone (RunReference: no fast path of any
// kind), and asserts the observable outcomes are identical: Result.Hash,
// FuelUsed, Return, and for faults the code, message, function and pc. It
// returns the optimized-mode outcome for further assertions.
func runBothModes(t *testing.T, prog *Program, cfg Config, params ...Value) (*Result, error) {
	t.Helper()
	prog.Optimize()

	optCfg := cfg
	optCfg.NoOptimize = false
	optRes, optErr := New(prog, optCfg).Run(params...)

	refCfg := cfg
	refCfg.NoOptimize = true
	refRes, refErr := New(prog, refCfg).Run(params...)
	sameOutcome(t, prog, "optimized", optRes, optErr, "reference", refRes, refErr)

	stepRes, stepErr := RunReference(prog, cfg, params...)
	sameOutcome(t, prog, "reference", refRes, refErr, "step alone", stepRes, stepErr)
	return optRes, optErr
}

func sameOutcome(t *testing.T, prog *Program, aName string, aRes *Result, aErr error, bName string, bRes *Result, bErr error) {
	t.Helper()
	switch {
	case aErr == nil && bErr == nil:
		if aRes.Hash() != bRes.Hash() {
			t.Fatalf("hash mismatch: %s %d vs %s %d\n%s",
				aName, aRes.Hash(), bName, bRes.Hash(), prog.Disassemble())
		}
		if aRes.FuelUsed != bRes.FuelUsed {
			t.Fatalf("fuel mismatch: %s %d vs %s %d\n%s",
				aName, aRes.FuelUsed, bName, bRes.FuelUsed, prog.Disassemble())
		}
		if !aRes.Return.Equal(bRes.Return) {
			t.Fatalf("return mismatch: %s %s vs %s %s", aName, aRes.Return, bName, bRes.Return)
		}
	case aErr != nil && bErr != nil:
		af, ok1 := AsFault(aErr)
		bf, ok2 := AsFault(bErr)
		if !ok1 || !ok2 {
			t.Fatalf("non-fault errors: %v vs %v", aErr, bErr)
		}
		if af.Code != bf.Code || af.Msg != bf.Msg || af.Func != bf.Func || af.PC != bf.PC {
			t.Fatalf("fault mismatch:\n%s %v (code=%s func=%s pc=%d)\n%s %v (code=%s func=%s pc=%d)\n%s",
				aName, af, af.Code, af.Func, af.PC, bName, bf, bf.Code, bf.Func, bf.PC, prog.Disassemble())
		}
	default:
		t.Fatalf("outcome mismatch: %s err=%v, %s err=%v\n%s",
			aName, aErr, bName, bErr, prog.Disassemble())
	}
}

func mainProg(numParams, numLocals int, code []Instr, consts ...Value) *Program {
	p := &Program{
		Consts: consts,
		Funcs: []FuncProto{{
			Name: "main", NumParams: numParams, NumLocals: numLocals, Code: code,
		}},
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

// optOps returns the fused-stream opcode at each reachable slot of the entry
// function, skipping superinstruction interiors.
func optOps(p *Program) []Op {
	p.Optimize()
	var ops []Op
	stream := p.EntryFunc().opt
	for i := 0; i < len(stream); {
		ops = append(ops, stream[i].op)
		n := int(stream[i].n)
		if n == 0 {
			n = 1
		}
		i += n
	}
	return ops
}

func TestFusionPatterns(t *testing.T) {
	cases := []struct {
		name string
		prog *Program
		want []Op
	}{
		{
			"loc-int-arith",
			mainProg(1, 1, []Instr{{OpLoadLocal, 0}, {OpPushInt, 5}, {OpAdd, 0}, {OpReturn, 0}}),
			[]Op{opLocIntArith, OpReturn},
		},
		{
			"loc-const-arith",
			mainProg(1, 1, []Instr{{OpLoadLocal, 0}, {OpPushConst, 0}, {OpMul, 0}, {OpReturn, 0}}, Float(2.5)),
			[]Op{opLocConstArith, OpReturn},
		},
		{
			"loc-loc-arith",
			mainProg(2, 2, []Instr{{OpLoadLocal, 0}, {OpLoadLocal, 1}, {OpSub, 0}, {OpReturn, 0}}),
			[]Op{opLocLocArith, OpReturn},
		},
		{
			"loc-int-arith-store",
			mainProg(1, 2, []Instr{
				{OpLoadLocal, 0}, {OpPushInt, 1}, {OpAdd, 0}, {OpStoreLocal, 1},
				{OpLoadLocal, 1}, {OpReturn, 0},
			}),
			[]Op{opLocIntArithStore, OpLoadLocal, OpReturn},
		},
		{
			"arith-store",
			mainProg(0, 1, []Instr{
				{OpPushInt, 2}, {OpPushInt, 3}, {OpMul, 0}, {OpStoreLocal, 0},
				{OpLoadLocal, 0}, {OpReturn, 0},
			}),
			[]Op{OpPushInt, OpPushInt, opArithStore, OpLoadLocal, OpReturn},
		},
		{
			"loc-int-cmp-br",
			mainProg(1, 1, []Instr{
				{OpLoadLocal, 0}, {OpPushInt, 10}, {OpLt, 0}, {OpJumpIfFalse, 6},
				{OpPushTrue, 0}, {OpReturn, 0},
				{OpPushFalse, 0}, {OpReturn, 0},
			}),
			[]Op{opLocIntCmpBr, OpPushTrue, OpReturn, OpPushFalse, OpReturn},
		},
		{
			"cmp-br",
			mainProg(0, 0, []Instr{
				{OpPushInt, 1}, {OpPushInt, 2}, {OpEq, 0}, {OpJumpIfTrue, 5},
				{OpReturn0, 0}, {OpPushTrue, 0}, {OpReturn, 0},
			}),
			[]Op{OpPushInt, OpPushInt, opCmpBr, OpReturn0, OpPushTrue, OpReturn},
		},
		{
			// A builtin call has no fast path to fuse its argument into.
			"loc-callb-stays-plain",
			mainProg(1, 1, []Instr{
				{OpLoadLocal, 0}, {OpCallB, int32(BSqrt)<<8 | 1}, {OpReturn, 0},
			}),
			[]Op{OpLoadLocal, OpCallB, OpReturn},
		},
		{
			"loc-loc-int-arith2-store",
			mainProg(2, 3, []Instr{
				{OpLoadLocal, 0}, {OpLoadLocal, 1}, {OpPushInt, 7}, {OpMod, 0}, {OpAdd, 0}, {OpStoreLocal, 2},
				{OpReturn0, 0},
			}),
			[]Op{opLocLocIntArith2Store, OpReturn0},
		},
		{
			"loc-int-arith-store-jmp",
			mainProg(1, 1, []Instr{
				{OpLoadLocal, 0}, {OpPushInt, 1}, {OpAdd, 0}, {OpStoreLocal, 0}, {OpJump, 5},
				{OpReturn0, 0},
			}),
			[]Op{opLocIntArithStoreJmp, OpReturn0},
		},
		{
			// A jump target inside the window must block fusion.
			"jump-into-window",
			mainProg(1, 1, []Instr{
				{OpJump, 1},
				{OpLoadLocal, 0}, {OpPushInt, 5}, {OpAdd, 0}, {OpReturn, 0},
			}),
			[]Op{OpJump, opLocIntArith, OpReturn},
		},
		{
			"jump-into-interior-blocks-fusion",
			mainProg(1, 1, []Instr{
				{OpJump, 2},
				{OpLoadLocal, 0},
				{OpPushInt, 5}, // jump target: pc 2 is a leader
				{OpAdd, 0}, {OpReturn, 0},
			}),
			[]Op{OpJump, OpLoadLocal, OpPushInt, OpAdd, OpReturn},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := optOps(tc.prog)
			if len(got) != len(tc.want) {
				t.Fatalf("stream ops = %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("stream ops = %v, want %v", got, tc.want)
				}
			}
		})
	}
}

func TestOptimizeDifferentialHandBuilt(t *testing.T) {
	// acc = 0; for (i = 0; i < n; i = i + 1) { acc = acc + i % 7 }
	loop := mainProg(1, 3, []Instr{
		{OpPushInt, 0}, {OpStoreLocal, 1}, // 0,1: acc = 0
		{OpPushInt, 0}, {OpStoreLocal, 2}, // 2,3: i = 0
		{OpLoadLocal, 2}, {OpLoadLocal, 0}, {OpLt, 0}, {OpJumpIfFalse, 19}, // 4..7
		{OpLoadLocal, 1}, {OpLoadLocal, 2}, {OpPushInt, 7}, {OpMod, 0}, // 8..11
		{OpAdd, 0}, {OpStoreLocal, 1}, // 12,13
		{OpLoadLocal, 2}, {OpPushInt, 1}, {OpAdd, 0}, {OpStoreLocal, 2}, // 14..17
		{OpJump, 4},                     // 18
		{OpLoadLocal, 1}, {OpReturn, 0}, // 19,20
	})

	divZero := mainProg(2, 2, []Instr{
		{OpLoadLocal, 0}, {OpLoadLocal, 1}, {OpDiv, 0}, {OpReturn, 0},
	})
	strCat := mainProg(1, 1, []Instr{
		{OpLoadLocal, 0}, {OpPushConst, 0}, {OpAdd, 0}, {OpReturn, 0},
	}, Str("-suffix"))
	typeErr := mainProg(1, 2, []Instr{
		{OpLoadLocal, 0}, {OpPushInt, 3}, {OpMul, 0}, {OpStoreLocal, 1},
		{OpLoadLocal, 1}, {OpReturn, 0},
	})
	sqrtCall := mainProg(1, 1, []Instr{
		{OpLoadLocal, 0}, {OpCallB, int32(BSqrt)<<8 | 1}, {OpReturn, 0},
	})

	cfg := DefaultConfig()
	cases := []struct {
		name   string
		prog   *Program
		params []Value
	}{
		{"loop-sum", loop, []Value{Int(1000)}},
		{"loop-zero-iter", loop, []Value{Int(0)}},
		{"div-ok", divZero, []Value{Int(84), Int(2)}},
		{"div-zero-fault", divZero, []Value{Int(84), Int(0)}},
		{"str-concat", strCat, []Value{Str("pre")}},
		{"str-concat-type-fault", strCat, []Value{Int(1)}},
		{"mul-type-fault", typeErr, []Value{Str("oops")}},
		{"mul-ok", typeErr, []Value{Int(14)}},
		{"sqrt", sqrtCall, []Value{Float(2.0)}},
		{"sqrt-type-fault", sqrtCall, []Value{Str("x")}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runBothModes(t, tc.prog, cfg, tc.params...)
		})
	}

	t.Run("loop-sum-value", func(t *testing.T) {
		res, err := runBothModes(t, loop, cfg, Int(1000))
		if err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		for i := int64(0); i < 1000; i++ {
			want += i % 7
		}
		if res.Return.I != want {
			t.Fatalf("loop sum = %d, want %d", res.Return.I, want)
		}
	})
}

// TestOptimizeFuelExhaustionMidBlock sweeps the fuel budget across every
// possible exhaustion point of a fused-heavy loop and asserts the optimized
// interpreter deoptimizes to the exact reference fault (same pc) or the
// exact reference success (same FuelUsed).
func TestOptimizeFuelExhaustionMidBlock(t *testing.T) {
	prog := mainProg(1, 2, []Instr{
		{OpPushInt, 0}, {OpStoreLocal, 1}, // 0,1: i = 0
		{OpLoadLocal, 1}, {OpLoadLocal, 0}, {OpLt, 0}, {OpJumpIfFalse, 11}, // 2..5
		{OpLoadLocal, 1}, {OpPushInt, 1}, {OpAdd, 0}, {OpStoreLocal, 1}, // 6..9
		{OpJump, 2},                     // 10
		{OpLoadLocal, 1}, {OpReturn, 0}, // 11,12
	})
	prog.Optimize()
	base := DefaultConfig()
	// Sweep every fuel budget from 0 to the full run's cost + 2, so the
	// meter runs dry at every possible pc at least once.
	res, err := New(prog, base).Run(Int(3))
	if err != nil {
		t.Fatal(err)
	}
	for fuel := uint64(0); fuel <= res.FuelUsed+2; fuel++ {
		cfg := base
		cfg.Fuel = fuel
		runBothModes(t, prog, cfg, Int(3))
	}
}

// TestOptimizeStackLimitDeopt pins the stack-margin deoptimization: with a
// MaxStack too small for a fused block's transient growth, the optimized
// interpreter must report the reference interpreter's overflow fault at the
// reference pc.
func TestOptimizeStackLimitDeopt(t *testing.T) {
	prog := mainProg(1, 1, []Instr{
		{OpLoadLocal, 0}, {OpPushInt, 5}, {OpAdd, 0}, {OpReturn, 0},
	})
	for _, maxStack := range []int{1, 2, 3} {
		cfg := DefaultConfig()
		cfg.MaxStack = maxStack
		runBothModes(t, prog, cfg, Int(1))
	}
}

// TestOptimizeRecursion checks fused streams across call frames and that the
// locals free list recycles cleanly over deep call trees.
func TestOptimizeRecursion(t *testing.T) {
	// fib(n): if n < 2 return n; return fib(n-1) + fib(n-2)
	p := &Program{
		Funcs: []FuncProto{
			{Name: "main", NumParams: 1, NumLocals: 1, Code: []Instr{
				{OpLoadLocal, 0}, {OpCall, 1}, {OpReturn, 0},
			}},
			{Name: "fib", NumParams: 1, NumLocals: 1, Code: []Instr{
				{OpLoadLocal, 0}, {OpPushInt, 2}, {OpLt, 0}, {OpJumpIfFalse, 6}, // 0..3
				{OpLoadLocal, 0}, {OpReturn, 0}, // 4,5
				{OpLoadLocal, 0}, {OpPushInt, 1}, {OpSub, 0}, {OpCall, 1}, // 6..9
				{OpLoadLocal, 0}, {OpPushInt, 2}, {OpSub, 0}, {OpCall, 1}, // 10..13
				{OpAdd, 0}, {OpReturn, 0}, // 14,15
			}},
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := runBothModes(t, p, DefaultConfig(), Int(15))
	if err != nil {
		t.Fatal(err)
	}
	if res.Return.I != 610 {
		t.Fatalf("fib(15) = %d, want 610", res.Return.I)
	}

	// Reset-reuse must reproduce the identical result without allocating new
	// state.
	p.Optimize()
	vm := New(p, DefaultConfig())
	var last *Result
	for i := 0; i < 3; i++ {
		vm.Reset(DefaultConfig())
		r, err := vm.Run(Int(15))
		if err != nil {
			t.Fatal(err)
		}
		if last != nil && (r.Return.I != 610 || r.FuelUsed != last.FuelUsed) {
			t.Fatalf("reset-reuse run %d diverged: %d fuel %d vs %d", i, r.Return.I, r.FuelUsed, last.FuelUsed)
		}
		cp := *r
		last = &cp
	}
}

// TestOptimizeSanitizesUnknownOpcodes ensures a hostile wire program cannot
// dispatch into superinstruction handlers: unknown opcodes (which Validate
// accepts) execute as illegal-opcode faults in both modes, even when their
// byte value collides with an internal superinstruction.
func TestOptimizeSanitizesUnknownOpcodes(t *testing.T) {
	for _, raw := range []Op{opWireMax + 1, opLocIntArith, opLocLocCmpBr, opIllegal, 255} {
		prog := mainProg(0, 0, []Instr{{OpNop, 0}, {raw, 0}, {OpReturn0, 0}})
		_, err := runBothModes(t, prog, DefaultConfig())
		f, ok := AsFault(err)
		if !ok {
			t.Fatalf("op %d: want illegal-opcode fault, got err=%v", uint8(raw), err)
		}
		if f.Code != FaultBadProgram || f.PC != 1 {
			t.Fatalf("op %d: fault %v (code=%s pc=%d), want bad-program at pc 1", uint8(raw), f, f.Code, f.PC)
		}
	}
}

// TestOptimizeDifferentialCorpus replays every fuzz-corpus program through
// both interpreters. Corpus entries are arbitrary fuzz-found byte strings;
// any that decode must behave identically in both modes.
func TestOptimizeDifferentialCorpus(t *testing.T) {
	cfg := Config{
		Fuel: 5_000, MaxStack: 512, MaxCall: 32,
		MaxHeap: 2048, MaxEmit: 32, MaxPrint: 4, Seed: 1,
	}
	progs := corpusPrograms(t)
	if len(progs) == 0 {
		t.Fatal("no corpus entry decoded to a runnable program; expected at least the checked-in seeds")
	}
	for name, p := range progs {
		params := make([]Value, p.EntryFunc().NumParams)
		t.Run(name, func(t *testing.T) {
			runBothModes(t, p, cfg, params...)
		})
	}
}

// corpusPrograms decodes the checked-in fuzz corpus, by file name. Entries
// the decoder rejects (fuzz-found inputs that exercise just that) are left
// out.
func corpusPrograms(t *testing.T) map[string]*Program {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzProgramUnmarshal")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading corpus dir: %v", err)
	}
	progs, parsed := map[string]*Program{}, 0
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		raw, ok := parseCorpusEntry(t, string(data))
		if !ok {
			continue
		}
		parsed++
		p := new(Program)
		if p.UnmarshalBinary(raw) == nil {
			progs[e.Name()] = p
		}
	}
	if parsed == 0 {
		t.Fatal("no corpus entries parsed; corpus missing?")
	}
	return progs
}

// parseCorpusEntry decodes one Go fuzz corpus file ("go test fuzz v1"
// followed by one []byte(...) literal per fuzz argument).
func parseCorpusEntry(t *testing.T, s string) ([]byte, bool) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) < 2 || strings.TrimSpace(lines[0]) != "go test fuzz v1" {
		return nil, false
	}
	arg := strings.TrimSpace(lines[1])
	arg = strings.TrimPrefix(arg, "[]byte(")
	arg = strings.TrimSuffix(arg, ")")
	str, err := strconv.Unquote(arg)
	if err != nil {
		t.Fatalf("bad corpus entry: %v", err)
	}
	return []byte(str), true
}
