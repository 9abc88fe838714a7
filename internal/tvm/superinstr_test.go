package tvm

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

// The two statement-level superinstructions, as the windows the compiler
// emits them in, each followed by `loadl c; ret` so that the stored value is
// the program's result.
//
// stmtProg:  c = a arith₂ (b arith₁ k)      window at pcs 0..5
// incProg:   c = a arith k; jmp T           window at pcs 0..4, T = 6
func stmtProg(inner, outer Op, k int32) *Program {
	return mainProg(2, 3, []Instr{
		{OpLoadLocal, 0}, {OpLoadLocal, 1}, {OpPushInt, k}, {inner, 0}, {outer, 0}, {OpStoreLocal, 2},
		{OpLoadLocal, 2}, {OpReturn, 0},
	})
}

func incProg(op Op, k int32) *Program {
	return mainProg(1, 2, []Instr{
		{OpLoadLocal, 0}, {OpPushInt, k}, {op, 0}, {OpStoreLocal, 1}, {OpJump, 6},
		{OpReturn0, 0}, // skipped by the jump
		{OpLoadLocal, 1}, {OpReturn, 0},
	})
}

var arithOps = []Op{OpAdd, OpSub, OpMul, OpDiv, OpMod}

// operandKinds is one value of every kind an arithmetic operand can have:
// int, float, string (legal only for add/add), and two that never are.
var operandKinds = []Value{Int(17), Int(-5), Float(2.5), Str("s"), Bool(true), Nil()}

func TestStatementSuperinstructionsFuse(t *testing.T) {
	if got := optOps(stmtProg(OpMod, OpAdd, 7)); len(got) != 3 || got[0] != opLocLocIntArith2Store {
		t.Fatalf("c = a + b %% 7 fused as %v, want [%s loadl ret]", got, opLocLocIntArith2Store)
	}
	if got := optOps(incProg(OpAdd, 1)); len(got) != 4 || got[0] != opLocIntArithStoreJmp {
		t.Fatalf("c = a + 1; jmp fused as %v, want [%s ret0 loadl ret]", got, opLocIntArithStoreJmp)
	}
}

// TestStatementSuperinstructionOperands runs both windows over every operator
// pair, every operand kind in every operand position, and the constants that
// matter (zero, one, minus one), fused against straight.
func TestStatementSuperinstructionOperands(t *testing.T) {
	cfg := DefaultConfig()
	for _, k := range []int32{0, 1, -1, 7} {
		for _, inner := range arithOps {
			for _, a := range operandKinds {
				runBothModes(t, incProg(inner, k), cfg, a)
				for _, outer := range arithOps {
					for _, b := range operandKinds {
						runBothModes(t, stmtProg(inner, outer, k), cfg, a, b)
					}
				}
			}
		}
	}
}

// TestStatementSuperinstructionFaultPCs pins where a fault inside a window is
// reported: at the pc of the component instruction that raised it.
func TestStatementSuperinstructionFaultPCs(t *testing.T) {
	cases := []struct {
		name   string
		prog   *Program
		params []Value
		code   FaultCode
		pc     int
	}{
		{"stmt inner div by zero", stmtProg(OpDiv, OpAdd, 0), []Value{Int(1), Int(2)}, FaultDivByZero, 3},
		{"stmt inner mod by zero", stmtProg(OpMod, OpAdd, 0), []Value{Int(1), Int(2)}, FaultDivByZero, 3},
		{"stmt outer div by zero", stmtProg(OpSub, OpDiv, 2), []Value{Int(1), Int(2)}, FaultDivByZero, 4},
		{"stmt outer mod by zero", stmtProg(OpMul, OpMod, 0), []Value{Int(1), Int(2)}, FaultDivByZero, 4},
		{"stmt inner mismatch", stmtProg(OpMul, OpAdd, 3), []Value{Int(1), Str("b")}, FaultTypeMismatch, 3},
		{"stmt outer mismatch", stmtProg(OpMul, OpAdd, 3), []Value{Str("a"), Int(2)}, FaultTypeMismatch, 4},
		{"stmt float mod", stmtProg(OpMod, OpAdd, 3), []Value{Int(1), Float(2)}, FaultTypeMismatch, 3},
		{"inc div by zero", incProg(OpDiv, 0), []Value{Int(1)}, FaultDivByZero, 2},
		{"inc mod by zero", incProg(OpMod, 0), []Value{Int(1)}, FaultDivByZero, 2},
		{"inc mismatch", incProg(OpAdd, 1), []Value{Str("a")}, FaultTypeMismatch, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := runBothModes(t, tc.prog, DefaultConfig(), tc.params...)
			f, ok := AsFault(err)
			if !ok || f.Code != tc.code || f.PC != tc.pc {
				t.Fatalf("got %v, want %s at pc %d", err, tc.code, tc.pc)
			}
		})
	}
}

// TestIntFastPathMinIntByMinusOne pins the one int/int division the hardware
// traps on and Go defines: MinInt64 / -1 = MinInt64 and MinInt64 % -1 = 0, on
// every route an int division can take through the loop.
func TestIntFastPathMinIntByMinusOne(t *testing.T) {
	minInt := Int(math.MinInt64)
	plain := func(op Op) *Program {
		return mainProg(2, 2, []Instr{{OpLoadLocal, 0}, {OpNop, 0}, {OpLoadLocal, 1}, {op, 0}, {OpReturn, 0}})
	}
	cases := []struct {
		name   string
		prog   *Program
		params []Value
		want   int64
	}{
		{"plain div", plain(OpDiv), []Value{minInt, Int(-1)}, math.MinInt64},
		{"plain mod", plain(OpMod), []Value{minInt, Int(-1)}, 0},
		{"inc div", incProg(OpDiv, -1), []Value{minInt}, math.MinInt64},
		{"inc mod", incProg(OpMod, -1), []Value{minInt}, 0},
		{"stmt inner div", stmtProg(OpDiv, OpAdd, -1), []Value{Int(0), minInt}, math.MinInt64},
		{"stmt inner mod", stmtProg(OpMod, OpAdd, -1), []Value{Int(5), minInt}, 5},
		{"stmt outer div", stmtProg(OpMul, OpDiv, -1), []Value{minInt, Int(1)}, math.MinInt64},
		{"stmt outer mod", stmtProg(OpMul, OpMod, -1), []Value{minInt, Int(1)}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := runBothModes(t, tc.prog, DefaultConfig(), tc.params...)
			if err != nil {
				t.Fatal(err)
			}
			if res.Return.Kind != KindInt || res.Return.I != tc.want {
				t.Fatalf("got %s, want %d", res.Return, tc.want)
			}
		})
	}
}

// TestStatementSuperinstructionsRespectJumpTargets lands a jump on every
// interior slot of both windows: the window must then not fuse as a whole,
// and the program must still agree with the straight stream.
func TestStatementSuperinstructionsRespectJumpTargets(t *testing.T) {
	windows := []struct {
		name string
		op   Op
		code []Instr
	}{
		{"stmt", opLocLocIntArith2Store, []Instr{
			{OpLoadLocal, 0}, {OpLoadLocal, 1}, {OpPushInt, 7}, {OpMod, 0}, {OpAdd, 0}, {OpStoreLocal, 2},
		}},
		{"inc", opLocIntArithStoreJmp, []Instr{
			{OpLoadLocal, 0}, {OpPushInt, 1}, {OpAdd, 0}, {OpStoreLocal, 2}, {OpJump, 0 /* patched */},
		}},
	}
	for _, w := range windows {
		for target := 0; target < len(w.code); target++ {
			t.Run(fmt.Sprintf("%s/target=%d", w.name, target), func(t *testing.T) {
				// pc 0: pushtrue; pc 1: jnz → window slot `target` (always
				// taken; the fall-through keeps the window's head reachable);
				// the window at pcs 2..; then loadl 2; ret. Slots entered
				// past the head find fewer operands than they pop, so most
				// targets fault — identically in both streams.
				const at = 2
				code := []Instr{{OpPushTrue, 0}, {OpJumpIfTrue, int32(at + target)}}
				code = append(code, w.code...)
				end := int32(len(code))
				if w.op == opLocIntArithStoreJmp {
					code[len(code)-1].Arg = end
				}
				code = append(code, Instr{OpLoadLocal, 2}, Instr{OpReturn, 0})
				prog := mainProg(2, 3, code)
				prog.Optimize()
				fusedWhole := prog.EntryFunc().opt[at].op == w.op
				if fusedWhole != (target == 0) {
					t.Fatalf("jump to window slot %d: fused whole = %v", target, fusedWhole)
				}
				runBothModes(t, prog, DefaultConfig(), Int(40), Int(9))
			})
		}
	}
}

// spinLoop is stdtasks' spin as bytecode: a counting loop whose body is one
// stmt window and whose increment and back-edge are one inc window.
func spinLoop() *Program {
	return mainProg(1, 3, []Instr{
		{OpPushInt, 0}, {OpStoreLocal, 1}, // 0,1: acc = 0
		{OpPushInt, 0}, {OpStoreLocal, 2}, // 2,3: i = 0
		{OpLoadLocal, 2}, {OpLoadLocal, 0}, {OpLt, 0}, {OpJumpIfFalse, 19}, // 4..7
		{OpLoadLocal, 1}, {OpLoadLocal, 2}, {OpPushInt, 7}, {OpMod, 0}, {OpAdd, 0}, {OpStoreLocal, 1}, // 8..13
		{OpLoadLocal, 2}, {OpPushInt, 1}, {OpAdd, 0}, {OpStoreLocal, 2}, {OpJump, 4}, // 14..18
		{OpLoadLocal, 1}, {OpReturn, 0}, // 19,20
	})
}

// TestStatementSuperinstructionLimits lets the fuel run out, and the operand
// stack fill up, at every point of a loop made of the two windows: the fused
// stream must deoptimize to the reference fault (same pc) or the reference
// success (same FuelUsed).
func TestStatementSuperinstructionLimits(t *testing.T) {
	prog := spinLoop()
	full, err := runBothModes(t, prog, DefaultConfig(), Int(3))
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(15*3 + 10); full.FuelUsed != want {
		t.Fatalf("spin(3) used %d fuel, want %d", full.FuelUsed, want)
	}
	for fuel := uint64(0); fuel <= full.FuelUsed+2; fuel++ {
		cfg := DefaultConfig()
		cfg.Fuel = fuel
		runBothModes(t, prog, cfg, Int(3))
	}
	for maxStack := 0; maxStack <= 4; maxStack++ {
		cfg := DefaultConfig()
		cfg.MaxStack = maxStack
		_, err := runBothModes(t, prog, cfg, Int(3))
		if f, ok := AsFault(err); (maxStack < 3) != (ok && f.Code == FaultStackOverflow) {
			t.Fatalf("MaxStack %d: got %v; the stmt window needs three slots", maxStack, err)
		}
	}
}

// TestCancelMidRun sets Cancel while the loop is inside the fused spin loop
// (and, for the oracle, the straight one).
func TestCancelMidRun(t *testing.T) {
	prog := spinLoop()
	prog.Optimize()
	for _, noOpt := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Fuel = math.MaxUint64
		cfg.NoOptimize = noOpt
		cfg.Cancel = &atomic.Bool{}
		timer := time.AfterFunc(2*time.Millisecond, func() { cfg.Cancel.Store(true) })
		_, err := New(prog, cfg).Run(Int(math.MaxInt64))
		timer.Stop()
		f, ok := AsFault(err)
		if !ok || f.Code != FaultCancelled || f.Func != "main" || f.PC < 4 || f.PC > 18 {
			t.Fatalf("NoOptimize=%v: got %v, want a cancelled fault inside the loop", noOpt, err)
		}
	}
}

// TestStatementSuperinstructionsReuse re-arms a VM after each kind of run the
// tests above make — success, a fault inside a window, fuel and stack
// exhaustion inside a window — and expects a fresh VM's outcome every time.
func TestStatementSuperinstructionsReuse(t *testing.T) {
	starved, shallow := DefaultConfig(), DefaultConfig()
	starved.Fuel = 30
	shallow.MaxStack = 2
	cases := []struct {
		name string
		prog *Program
		run  ReuseRun
	}{
		{"spin", spinLoop(), ReuseRun{DefaultConfig(), []Value{Int(500)}}},
		{"spin out of fuel", spinLoop(), ReuseRun{starved, []Value{Int(500)}}},
		{"spin stack limit", spinLoop(), ReuseRun{shallow, []Value{Int(500)}}},
		{"spin float bound", spinLoop(), ReuseRun{DefaultConfig(), []Value{Float(9.5)}}},
		{"stmt div by zero", stmtProg(OpMul, OpMod, 0), ReuseRun{DefaultConfig(), []Value{Int(1), Int(2)}}},
		{"stmt strings", stmtProg(OpAdd, OpAdd, 1), ReuseRun{DefaultConfig(), []Value{Str("a"), Str("b")}}},
		{"stmt min int", stmtProg(OpDiv, OpAdd, -1), ReuseRun{DefaultConfig(), []Value{Int(0), Int(math.MinInt64)}}},
		{"inc mismatch", incProg(OpSub, 1), ReuseRun{DefaultConfig(), []Value{Bool(true)}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.prog.Optimize()
			CheckReuse(t, tc.prog, tc.run)
		})
	}
}

// countLoop is `i = i0; while (i <cmp> bound) { i = i + 1; }; return i` as
// the compiler emits it, with the test at pc 2 and the back-edge at the end
// of the body. Local 0 is the bound, local 1 is i0, local 2 is i. The two
// back-edge shapes are a `for` loop's, whose increment fuses with the jmp
// (loc.int.arith.store.jmp), and a `while` loop's whose body ends in a
// statement that does not, which leaves a plain jmp.
//
//	local:  the test compares i with the bound local (loc.loc.cmp.br), else
//	        with the immediate 5 (loc.int.cmp.br)
//	jnz:    the test branches out of the loop on true instead of on false
//	plain:  a nop ahead of the jmp keeps the increment and the jmp apart, so
//	        the back-edge is a plain jmp (the `while` shape)
func countLoop(cmp Op, local, jnz, plain bool) *Program {
	bound := Instr{OpPushInt, 5}
	if local {
		bound = Instr{OpLoadLocal, 0}
	}
	branch := Instr{OpJumpIfFalse, 0}
	if jnz {
		branch.Op = OpJumpIfTrue
	}
	code := []Instr{
		{OpLoadLocal, 1}, {OpStoreLocal, 2}, // 0,1: i = i0
		{OpLoadLocal, 2}, bound, {cmp, 0}, branch, // 2..5: the test
		{OpLoadLocal, 2}, {OpPushInt, 1}, {OpAdd, 0}, {OpStoreLocal, 2}, // 6..9: i = i + 1
	}
	if plain {
		code = append(code, Instr{OpNop, 0})
	}
	code = append(code, Instr{OpJump, 2})
	code[5].Arg = int32(len(code))
	code = append(code, Instr{OpLoadLocal, 2}, Instr{OpReturn, 0})
	return mainProg(2, 3, code)
}

// TestBackEdgeRunsLoopTest checks that both back-edge shapes run the loop
// test themselves, and that they agree with the straight stream and with
// vm.step alone for every comparison, branch sense and bound, and for
// operands of every kind — which the back-edge declines, leaving the test to
// run, unfused, at its own pcs.
func TestBackEdgeRunsLoopTest(t *testing.T) {
	kinds := []Value{Int(3), Int(-2), Float(2.5), Str("s"), Bool(true), Nil()}
	for _, cmp := range []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe} {
		for _, local := range []bool{false, true} {
			for _, jnz := range []bool{false, true} {
				for _, plain := range []bool{false, true} {
					name := fmt.Sprintf("%s/local=%v/jnz=%v/plain=%v", cmp, local, jnz, plain)
					t.Run(name, func(t *testing.T) {
						prog := countLoop(cmp, local, jnz, plain)
						// The test, then the increment with the back-edge —
						// or the increment, the nop and the jmp.
						want := 1
						if plain {
							want = 3
						}
						if got := FusedLoopLen(prog); got != want {
							t.Fatalf("loop is %d dispatches per trip, want %d: %v", got, want, optOps(prog))
						}
						cfg := DefaultConfig()
						cfg.Fuel = 2_000
						for _, bound := range kinds {
							for _, i0 := range kinds {
								runBothModes(t, prog, cfg, bound, i0)
							}
						}
					})
				}
			}
		}
	}
}

// TestBackEdgeLimits lets the fuel run out, and the operand stack fill up,
// at every point of both loop shapes: the back-edge charges the test's block
// itself, and must leave a block it cannot pay for to the loop head, which
// deoptimizes to the reference fault.
func TestBackEdgeLimits(t *testing.T) {
	for _, plain := range []bool{false, true} {
		prog := countLoop(OpLt, true, false, plain)
		full, err := runBothModes(t, prog, DefaultConfig(), Int(4), Int(0))
		if err != nil {
			t.Fatal(err)
		}
		for fuel := uint64(0); fuel <= full.FuelUsed+2; fuel++ {
			cfg := DefaultConfig()
			cfg.Fuel = fuel
			runBothModes(t, prog, cfg, Int(4), Int(0))
		}
		for maxStack := 0; maxStack <= 4; maxStack++ {
			cfg := DefaultConfig()
			cfg.MaxStack = maxStack
			runBothModes(t, prog, cfg, Int(4), Int(0))
		}
	}
	// A body that leaves an operand behind on every trip runs out of stack
	// at a back-edge, not on the first entry to the test.
	leaky := mainProg(2, 3, []Instr{
		{OpLoadLocal, 1}, {OpStoreLocal, 2}, // 0,1: i = i0
		{OpLoadLocal, 2}, {OpLoadLocal, 0}, {OpLt, 0}, {OpJumpIfFalse, 12}, // 2..5: the test
		{OpLoadLocal, 2}, {OpPushInt, 1}, {OpAdd, 0}, {OpStoreLocal, 2}, // 6..9: i = i + 1
		{OpPushInt, 9}, {OpJump, 2}, // 10,11: 9 is left on the stack
		{OpLoadLocal, 2}, {OpReturn, 0},
	})
	for maxStack := 0; maxStack <= 7; maxStack++ {
		cfg := DefaultConfig()
		cfg.MaxStack = maxStack
		runBothModes(t, leaky, cfg, Int(4), Int(0))
	}
}

// TestCancelInBackEdgeLoops cancels a run inside each loop shape, whose
// trips run their test from the back-edge and charge it there.
func TestCancelInBackEdgeLoops(t *testing.T) {
	for _, plain := range []bool{false, true} {
		prog := countLoop(OpLt, true, false, plain)
		prog.Optimize()
		cfg := DefaultConfig()
		cfg.Fuel = math.MaxUint64
		cfg.Cancel = &atomic.Bool{}
		timer := time.AfterFunc(2*time.Millisecond, func() { cfg.Cancel.Store(true) })
		_, err := New(prog, cfg).Run(Int(math.MaxInt64), Int(0))
		timer.Stop()
		if f, ok := AsFault(err); !ok || f.Code != FaultCancelled {
			t.Fatalf("plain=%v: got %v, want a cancelled fault", plain, err)
		}
	}
}

// nestedLoop counts, from acc = 0, the trips of
//
//	for (i = 0; i < n;) { i = i + 1; for (j = 0; j < i; j = j + 1) { acc = acc + 1; } }
//
// with the inner loop's exit branching straight to the outer loop's head, as
// a jump-threading compiler would emit it. Local 0 is n, 1 is i, 2 is j, 3 is
// acc.
func nestedLoop() *Program {
	return mainProg(1, 4, []Instr{
		{OpPushInt, 0}, {OpStoreLocal, 3}, {OpPushInt, 0}, {OpStoreLocal, 1}, // 0..3: acc = 0; i = 0
		{OpLoadLocal, 1}, {OpLoadLocal, 0}, {OpLt, 0}, {OpJumpIfFalse, 27}, // 4..7: outer test
		{OpLoadLocal, 1}, {OpPushInt, 1}, {OpAdd, 0}, {OpStoreLocal, 1}, // 8..11: i = i + 1
		{OpPushInt, 0}, {OpStoreLocal, 2}, // 12,13: j = 0
		{OpLoadLocal, 2}, {OpLoadLocal, 1}, {OpLt, 0}, {OpJumpIfFalse, 4}, // 14..17: inner test, exit to the outer test
		{OpLoadLocal, 3}, {OpPushInt, 1}, {OpAdd, 0}, {OpStoreLocal, 3}, // 18..21: acc = acc + 1
		{OpLoadLocal, 2}, {OpPushInt, 1}, {OpAdd, 0}, {OpStoreLocal, 2}, {OpJump, 14}, // 22..26: inner back-edge
		{OpLoadLocal, 3}, {OpReturn, 0}, // 27,28
	})
}

// TestBackEdgeNestedLoops runs the nested loops, whose inner back-edge exits
// onto the outer loop's test, for a correct count, at every fuel budget and
// stack limit, and with a bound of every kind.
func TestBackEdgeNestedLoops(t *testing.T) {
	prog := nestedLoop()
	if got := FusedLoopLen(prog); got != 2 {
		t.Fatalf("inner loop is %d dispatches per trip, want 2: %v", got, optOps(prog))
	}
	// j is int on both ways into the inner loop: its back-edge is a twin.
	if got := Twins(prog); got != 1 {
		t.Fatalf("%d kind-proved twins, want the inner back-edge: %v", got, optOps(prog))
	}
	full, err := runBothModes(t, prog, DefaultConfig(), Int(5))
	if err != nil {
		t.Fatal(err)
	}
	if full.Return.I != 15 {
		t.Fatalf("nested loops counted %s trips, want 15", full.Return)
	}
	for fuel := uint64(0); fuel <= full.FuelUsed+2; fuel++ {
		cfg := DefaultConfig()
		cfg.Fuel = fuel
		runBothModes(t, prog, cfg, Int(5))
	}
	for maxStack := 0; maxStack <= 4; maxStack++ {
		cfg := DefaultConfig()
		cfg.MaxStack = maxStack
		runBothModes(t, prog, cfg, Int(5))
	}
	for _, n := range operandKinds {
		runBothModes(t, prog, DefaultConfig(), n)
	}
}
