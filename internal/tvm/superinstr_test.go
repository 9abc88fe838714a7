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
