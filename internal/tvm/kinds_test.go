package tvm

import (
	"math"
	"runtime"
	"testing"
)

// Tests for the kind analysis (intLocals) and the kind-proved twins it lets
// the fuser emit. Each program keeps its locals apart: local 0 is the
// parameter, 1 is i, 2 is x and 3 is y.

// incWin is the back-edge window `c = a op k; jmp at+5`, placed at pc at.
func incWin(at int, a, c int32, op Op, k int32) []Instr {
	return []Instr{{OpLoadLocal, a}, {OpPushInt, k}, {op, 0}, {OpStoreLocal, c}, {OpJump, int32(at + 5)}}
}

// stmtWin is the statement window `c = a outer (b inner k)`.
func stmtWin(a, b, c int32, inner, outer Op, k int32) []Instr {
	return []Instr{{OpLoadLocal, a}, {OpLoadLocal, b}, {OpPushInt, k}, {inner, 0}, {outer, 0}, {OpStoreLocal, c}}
}

// withWindows appends the two windows, over locals a, b and c, to prologue,
// and a return of c.
func withWindows(prologue []Instr, a, b, c int32) []Instr {
	code := seq(prologue, stmtWin(a, b, c, OpMod, OpAdd, 7))
	code = append(code, incWin(len(code), a, c, OpAdd, 1)...)
	return append(code, Instr{OpLoadLocal, c}, Instr{OpReturn, 0})
}

// xyInts sets x and y to int constants.
var xyInts = []Instr{{OpPushInt, 5}, {OpStoreLocal, 2}, {OpPushInt, 9}, {OpStoreLocal, 3}}

func seq(parts ...[]Instr) []Instr {
	var code []Instr
	for _, p := range parts {
		code = append(code, p...)
	}
	return code
}

// TestKindProofRefusals runs programs in which one thing keeps a window from
// being proved: each must get exactly the twins listed — none where the one
// thing touches the window — and agree with the straight stream and with
// vm.step alone.
func TestKindProofRefusals(t *testing.T) {
	// loopOver is `i = 0; while (i < 3) { body; i = i + 1 }; return x` with
	// the increment as a back-edge window, which is provable in every case.
	loopOver := func(prologue, body []Instr) []Instr {
		code := seq(prologue, []Instr{{OpPushInt, 0}, {OpStoreLocal, 1}})
		test := len(code)
		code = append(code, Instr{OpLoadLocal, 1}, Instr{OpPushInt, 3}, Instr{OpLt, 0}, Instr{OpJumpIfFalse, 0})
		code = append(code, body...)
		code = append(code, incWin(len(code), 1, 1, OpAdd, 1)...)
		code[len(code)-1].Arg = int32(test)
		code[test+3].Arg = int32(len(code))
		return append(code, Instr{OpLoadLocal, 2}, Instr{OpReturn, 0})
	}
	xPlusIMod3 := stmtWin(2, 1, 2, OpMod, OpAdd, 3)
	callee := FuncProto{Name: "f", Code: []Instr{{OpPushInt, 4}, {OpReturn, 0}}}
	// y = the operand pushed under a call
	underCall := withWindows(seq(xyInts, []Instr{{OpPushInt, 1}, {OpCall, 1}, {OpPop, 0}, {OpStoreLocal, 3}}), 3, 3, 2)

	cases := []struct {
		name   string
		code   []Instr
		consts []Value
		twins  int
	}{
		{"all ints", withWindows(xyInts, 3, 3, 2), nil, 2},
		{"parameter read", withWindows(xyInts, 0, 3, 2), nil, 0},
		// x then holds a sum with the parameter, so the increment is not proved.
		{"parameter as b", withWindows(xyInts, 3, 0, 2), nil, 0},
		// x is nil until the statement makes it an int, which proves the increment.
		{"written local nil", withWindows(xyInts[2:], 3, 3, 2), nil, 1},
		{"from a call", withWindows(seq(xyInts, []Instr{{OpCall, 1}, {OpStoreLocal, 3}}), 3, 3, 2), nil, 0},
		{"under a call", underCall, nil, 0},
		{"from a builtin", withWindows(seq(xyInts, []Instr{{OpPushInt, 5}, {OpCallB, int32(BAbs)<<8 | 1}, {OpStoreLocal, 3}}), 3, 3, 2), nil, 0},
		{"from an index", withWindows(seq(xyInts, []Instr{{OpPushInt, 7}, {OpNewArray, 1}, {OpPushInt, 0}, {OpIndex, 0}, {OpStoreLocal, 3}}), 3, 3, 2), nil, 0},
		{"from a float", withWindows(seq(xyInts, []Instr{{OpPushConst, 0}, {OpStoreLocal, 3}}), 3, 3, 2), []Value{Float(1.5)}, 0},
		{"from a string", withWindows(seq(xyInts, []Instr{{OpPushConst, 0}, {OpStoreLocal, 3}}), 3, 3, 2), []Value{Str("s")}, 0},
		{"from an int const", withWindows(seq(xyInts, []Instr{{OpPushConst, 0}, {OpStoreLocal, 3}}), 3, 3, 2), []Value{Int(math.MinInt64)}, 2},
		{"from len", withWindows(seq(xyInts, []Instr{{OpPushConst, 0}, {OpLen, 0}, {OpStoreLocal, 3}}), 3, 3, 2), []Value{Str("abc")}, 2},
		{"from int arithmetic", withWindows(seq(xyInts, []Instr{{OpLoadLocal, 2}, {OpPushInt, 3}, {OpMul, 0}, {OpStoreLocal, 3}}), 3, 3, 2), nil, 2},
		{"from mixed arithmetic", withWindows(seq(xyInts, []Instr{{OpLoadLocal, 2}, {OpPushConst, 0}, {OpMul, 0}, {OpStoreLocal, 3}}), 3, 3, 2), []Value{Float(2)}, 0},
		{"from a dup", withWindows(seq(xyInts, []Instr{{OpPushInt, 1}, {OpDup, 0}, {OpStoreLocal, 3}, {OpPop, 0}}), 3, 3, 2), nil, 0},
		{"from a compare", withWindows(seq(xyInts, []Instr{{OpPushInt, 1}, {OpPushInt, 2}, {OpLt, 0}, {OpStoreLocal, 3}}), 3, 3, 2), nil, 0},

		// x is an int on the fall-through into the loop and a string on the
		// branch that skips its assignment: the body's statement on x is
		// not proved; the increment of i is.
		{"int on one path into a loop", loopOver(seq(xyInts, []Instr{
			{OpLoadLocal, 0}, {OpPushInt, 0}, {OpGt, 0}, {OpJumpIfFalse, 10},
			{OpPushConst, 0}, {OpStoreLocal, 2}, // x = "s" when the parameter is > 0
		}), xPlusIMod3), []Value{Str("s")}, 1},
		{"int on both paths into a loop", loopOver(seq(xyInts, []Instr{
			{OpLoadLocal, 0}, {OpPushInt, 0}, {OpGt, 0}, {OpJumpIfFalse, 10},
			{OpPushInt, 8}, {OpStoreLocal, 2},
		}), xPlusIMod3), nil, 2},
		// x enters the loop an int and leaves each trip a float.
		{"turns float in the body", loopOver(xyInts, seq(xPlusIMod3, []Instr{{OpPushConst, 0}, {OpStoreLocal, 2}})), []Value{Float(1.5)}, 1},
		{"stays int in the body", loopOver(xyInts, seq(xPlusIMod3, []Instr{{OpPushInt, 2}, {OpStoreLocal, 2}})), nil, 2},

		{"div by pushi 0", seq(xyInts, incWin(4, 3, 2, OpDiv, 0), []Instr{{OpLoadLocal, 2}, {OpReturn, 0}}), nil, 0},
		{"mod by pushi 0", seq(xyInts, incWin(4, 3, 2, OpMod, 0), []Instr{{OpLoadLocal, 2}, {OpReturn, 0}}), nil, 0},
		{"div by pushi -1", seq(xyInts, incWin(4, 3, 2, OpDiv, -1), []Instr{{OpLoadLocal, 2}, {OpReturn, 0}}), nil, 1},
		{"inner div by pushi 0", seq(xyInts, stmtWin(3, 3, 2, OpDiv, OpAdd, 0), []Instr{{OpLoadLocal, 2}, {OpReturn, 0}}), nil, 0},
		{"inner mod by pushi 0", seq(xyInts, stmtWin(3, 3, 2, OpMod, OpAdd, 0), []Instr{{OpLoadLocal, 2}, {OpReturn, 0}}), nil, 0},
		{"inner mod by pushi 7", seq(xyInts, stmtWin(3, 3, 2, OpMod, OpAdd, 7), []Instr{{OpLoadLocal, 2}, {OpReturn, 0}}), nil, 1},
		{"div by a local", seq(xyInts, stmtWin(3, 3, 2, OpAdd, OpDiv, 1), []Instr{{OpLoadLocal, 2}, {OpReturn, 0}}), nil, 0},
		{"mod by a local", seq(xyInts, stmtWin(3, 3, 2, OpAdd, OpMod, 1), []Instr{{OpLoadLocal, 2}, {OpReturn, 0}}), nil, 0},
		{"mul by a local", seq(xyInts, stmtWin(3, 3, 2, OpAdd, OpMul, 1), []Instr{{OpLoadLocal, 2}, {OpReturn, 0}}), nil, 1},

		// pc 7 joins a path with an operand on the stack and one without:
		// no compiled program does that, so the function gets no twins.
		{"stack height mismatch", seq(xyInts, []Instr{{OpPushTrue, 0}, {OpJumpIfTrue, 7}, {OpPushInt, 1}},
			incWin(7, 3, 2, OpAdd, 1), []Instr{{OpLoadLocal, 2}, {OpReturn, 0}}), nil, 0},
		{"stack heights agree", seq(xyInts, []Instr{{OpPushTrue, 0}, {OpJumpIfTrue, 7}, {OpNop, 0}},
			incWin(7, 3, 2, OpAdd, 1), []Instr{{OpLoadLocal, 2}, {OpReturn, 0}}), nil, 1},
		// A pop that underflows (at pc 6, and faults there at run time)
		// gives up too.
		{"stack underflow", seq(xyInts, []Instr{{OpLoadLocal, 0}, {OpJumpIfFalse, 8}, {OpPop, 0}, {OpPop, 0}},
			incWin(8, 3, 2, OpAdd, 1), []Instr{{OpLoadLocal, 2}, {OpReturn, 0}}), nil, 0},
	}
	check := func(t *testing.T, prog *Program, twins int) {
		if err := prog.Validate(); err != nil {
			t.Fatal(err)
		}
		if got := Twins(prog); got != twins {
			t.Fatalf("%d twins, want %d: %v", got, twins, optOps(prog))
		}
		for _, p := range []Value{Int(0), Int(2), Float(1), Str("p"), Nil()} {
			runBothModes(t, prog, DefaultConfig(), p)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			check(t, &Program{Consts: tc.consts, Funcs: []FuncProto{
				{Name: "main", NumParams: 1, NumLocals: 4, Code: tc.code}, callee,
			}}, tc.twins)
		})
	}

	// The callee pops below its frame and leaves a string in the caller's
	// slot under the call, which then reaches y: the VM checks a pop
	// against the bottom of the whole stack, not of the frame, so no
	// operand the caller pushed is proved past a call.
	t.Run("under a hostile call", func(t *testing.T) {
		hostile := FuncProto{Name: "f", Code: []Instr{{OpPop, 0}, {OpPushConst, 0}, {OpPushInt, 0}, {OpReturn, 0}}}
		check(t, &Program{Consts: []Value{Str("s")}, Funcs: []FuncProto{
			{Name: "main", NumParams: 1, NumLocals: 4, Code: underCall}, hostile,
		}}, 0)
	})
}

// TestTwinsAgreeOnEveryOperator runs both windows, proved, over every
// operator pair, with the immediates that matter and int operands at the
// edges of the range, against the straight stream and vm.step alone; a twin
// must appear exactly where its arithmetic cannot fail.
func TestTwinsAgreeOnEveryOperator(t *testing.T) {
	vals := []Value{Int(0), Int(-1), Int(13), Int(math.MinInt64), Int(math.MaxInt64)}
	for _, k := range []int32{0, 1, -1, 7} {
		for _, inner := range arithOps {
			for _, a := range vals {
				for _, b := range vals {
					load := []Instr{{OpPushConst, 0}, {OpStoreLocal, 2}, {OpPushConst, 1}, {OpStoreLocal, 3}, {OpPushInt, 0}, {OpStoreLocal, 1}}
					inc := mainProg(0, 4, seq(load, incWin(len(load), 2, 1, inner, k), []Instr{{OpLoadLocal, 1}, {OpReturn, 0}}), a, b)
					if got, want := Twins(inc) == 1, cannotFail(inner, k); got != want {
						t.Fatalf("c = a %s %d; jmp: twin %v, want %v", inner, k, got, want)
					}
					runBothModes(t, inc, DefaultConfig())
					for _, outer := range arithOps {
						stmt := mainProg(0, 4, seq(load, stmtWin(2, 3, 1, inner, outer, k), []Instr{{OpLoadLocal, 1}, {OpReturn, 0}}), a, b)
						if got, want := Twins(stmt) == 1, cannotFail(inner, k) && outer <= OpMul; got != want {
							t.Fatalf("c = a %s (b %s %d): twin %v, want %v", outer, inner, k, got, want)
						}
						runBothModes(t, stmt, DefaultConfig())
					}
				}
			}
		}
	}
}

// TestKindProofBudget gives Optimize functions whose analysis would cost far
// more than kindBudget — MaxLocals locals with long code, code that piles up
// a deep operand stack, code that needs a pass per pc, and many functions
// that each fit the budget but together do not — each full of windows that
// are provable: past the budget
// it must emit no twins and allocate no more than the budget allows, while
// the same code in a small frame gets its twins.
func TestKindProofBudget(t *testing.T) {
	long := []Instr{{OpPushInt, 0}, {OpStoreLocal, 1}}
	for len(long) < 4000 {
		long = append(long, incWin(len(long), 1, 1, OpAdd, 1)...)
	}
	long = append(long, Instr{OpLoadLocal, 1}, Instr{OpReturn, 0})
	deep := []Instr{{OpPushInt, 0}, {OpStoreLocal, 1}}
	for len(deep) < 20000 {
		deep = append(deep, Instr{OpPushInt, 1})
	}
	deep = append(deep, incWin(len(deep), 1, 1, OpAdd, 1)...)
	deep = append(deep, Instr{OpLoadLocal, 1}, Instr{OpReturn, 0})

	// chain jumps to the last of links jumps that each go back one pc, so
	// the analysis reaches the next only in a new pass over the whole code,
	// and the first jumps to a window.
	chain := func(links int32) []Instr {
		code := []Instr{{OpPushInt, 0}, {OpStoreLocal, 1}, {OpJump, 2 + links}, {OpJump, 3 + links}}
		for int32(len(code)) < 3+links {
			code = append(code, Instr{OpJump, int32(len(code) - 1)})
		}
		code = append(code, incWin(len(code), 1, 1, OpAdd, 1)...)
		return append(code, Instr{OpLoadLocal, 1}, Instr{OpReturn, 0})
	}

	// A 1 000-deep stack costs about a quarter of 4 × kindBudget to
	// analyse (two cells per slot per pc), so the first four of sixteen
	// such functions get their twin and the rest none.
	many := mainProg(0, 2, seq(deep[:1000], incWin(1000, 1, 1, OpAdd, 1), []Instr{{OpLoadLocal, 1}, {OpReturn, 0}}))
	for len(many.Funcs) < 16 {
		many.Funcs = append(many.Funcs, many.Funcs[0])
	}

	cases := []struct {
		name  string
		prog  *Program
		twins int
	}{
		{"MaxLocals", mainProg(0, MaxLocals, long), 0},
		{"small frame", mainProg(0, 2, long), (len(long) - 4) / 5},
		{"deep stack", mainProg(0, 2, deep), 0},
		{"backward chain", mainProg(0, 2, chain(4000)), 0},
		{"short backward chain", mainProg(0, 2, chain(100)), 1},
		{"many functions", many, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := tc.prog
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			prog.Optimize()
			runtime.ReadMemStats(&after)
			if got := Twins(prog); got != tc.twins {
				t.Fatalf("%d twins, want %d", got, tc.twins)
			}
			// Two streams, the leader set, and the analysis' cells, each
			// at most a byte, that 4 × kindBudget visits can allocate.
			var streams uint64
			for _, f := range prog.Funcs {
				streams += uint64(2*len(f.Code)) * 24
			}
			if got, limit := after.TotalAlloc-before.TotalAlloc, streams+5*kindBudget; got > limit {
				t.Fatalf("Optimize allocated %d bytes, budget allows %d", got, limit)
			}
			cfg := DefaultConfig()
			cfg.Fuel = 200_000
			runBothModes(t, prog, cfg)
		})
	}
}
