package tvm

import (
	"slices"
	"sync"
)

// This file implements the TVM's load-time bytecode optimization pass.
//
// Programs execute from an internal instruction stream ([]optInstr) rather
// than directly from FuncProto.Code. Every function has a "straight" stream
// (fast): a 1:1 translation of Code that reproduces the reference
// interpreter's semantics exactly — same fuel charging order, same fault
// codes, messages and pcs. Program.Optimize additionally builds a fused
// stream (opt) per function:
//
//   - Peephole superinstruction fusion replaces the dominant 2–6 instruction
//     sequences (arithmetic on locals, compare-and-branch, and the two whole
//     statements `c = a ⊕ (b ⊗ k)` and `c = a ⊗ k; jmp T` that make up a
//     counting loop's body and back-edge) with single internal opcodes.
//     Fusion happens in place: the fused instruction occupies the slot of
//     the sequence's first instruction and advances the pc by the original
//     sequence length, so jump targets stay valid. The slots behind it keep
//     their straight translation. A superinstruction is a fast path for
//     int operands only; given anything else it declines, and the
//     interpreter runs its window unfused from those slots (vm.go, loop).
//   - Per-basic-block fuel and stack-effect precomputation: the interpreter
//     charges a block's exact total fuel once at block entry and verifies
//     the block's maximum stack growth once.
//   - A loop's back-edge runs the loop test: a jump (plain, or the tail of
//     `c = a ⊗ k; jmp T`) whose target is a compare-and-branch
//     superinstruction charges that one-instruction block and evaluates it
//     in the same dispatch (vm.go, loop). This needs nothing from the pass
//     beyond the fused test itself.
//   - Kind-proved twins: a forward dataflow over Code (intLocals) proves
//     which locals hold an int at each pc, and where it proves every local
//     of one of the two statement windows an int, and the window's
//     arithmetic cannot fail (add, sub, mul, or div/mod by a non-zero
//     pushi), the fuser emits the statement's twin opcode instead, which
//     runs with no kind checks at all.
//
// Invariants (differentially tested against the straight stream):
//
//   - Result.Hash() and Result.FuelUsed are identical. Block fuel totals are
//     the exact sum of the per-instruction costs the reference charges.
//   - Fault codes, messages and pcs are identical. A superinstruction never
//     faults: whatever would, it leaves to the unfused window, whose
//     instructions fault at their own pcs. A kind-proved twin never faults
//     and never declines either: it is emitted only where its window
//     provably cannot fault. When a block's fuel or stack
//     margin cannot be pre-verified the VM deoptimizes to the straight
//     stream at the block leader, which reproduces the reference fault
//     exactly.
//   - Config.NoOptimize disables the fused stream per run for differential
//     testing; Optimize itself never mutates FuncProto.Code, so marshaling
//     and disassembly are unaffected.
//
// A sequence is only fused when no jump target lands inside it, and fused
// streams are produced exclusively by this pass (wire programs cannot inject
// superinstructions: unknown wire opcodes are sanitized to opIllegal during
// translation), so superinstruction operands are trusted.

// optInstr is one instruction of the internal executed stream. For plain
// (unfused) instructions, op/a mirror Instr and n is 1. Fused instructions
// use sub for the underlying arithmetic/comparison opcode, a/b/c for
// operands, flag for the branch sense, and n for the number of original
// instructions the superinstruction covers. The two statement-level
// superinstructions need more operands than that; they read the rest from
// the tail slots of their own window, so optInstr stays 24 bytes.
//
// Block metadata lives on block-leader slots: blockFuel is the exact fuel
// the whole block charges, and blockGrow the block's maximum transient
// operand-stack growth. Every other slot of a fused stream has blockFuel 0,
// which is how the interpreter tells a leader from the rest. In straight
// streams every instruction is its own block (blockFuel = fuelCost), which
// reproduces per-instruction charging.
type optInstr struct {
	op   Op
	sub  Op
	flag uint8 // branch sense for fused compare-branches: 1 = jump-if-true
	n    uint8 // original instructions covered; pc advances by n

	a, b, c int32

	blockFuel uint32
	blockGrow int32
}

// prepareMu serializes stream construction. Compile-time and provider
// load-time paths call Optimize before sharing a program; the mutex also
// makes the lazy New-time fallback for hand-built programs safe when such a
// program is shared across goroutines.
var prepareMu sync.Mutex

// prepare builds the straight streams for all functions. Idempotent.
func (p *Program) prepare() {
	prepareMu.Lock()
	defer prepareMu.Unlock()
	p.prepareLocked()
}

func (p *Program) prepareLocked() {
	if p.prepped {
		return
	}
	for i := range p.Funcs {
		f := &p.Funcs[i]
		f.fast = straighten(f.Code)
	}
	p.prepped = true
}

// straighten translates Code 1:1 into the executed form, preserving
// reference semantics. Opcodes outside the wire set are sanitized to
// opIllegal so a hostile program can never dispatch into a superinstruction
// handler with unvalidated operands.
func straighten(code []Instr) []optInstr {
	out := make([]optInstr, len(code))
	for pc, in := range code {
		oi := optInstr{op: in.Op, a: in.Arg, n: 1}
		if in.Op > opWireMax {
			oi.op = opIllegal
			oi.a = int32(uint8(in.Op))
		}
		oi.blockFuel = uint32(fuelCost(oi.op))
		out[pc] = oi
	}
	return out
}

// Optimize runs the load-time optimization pass over the whole program,
// building the fused fast-path stream for every function. It must be called
// before the program is shared with concurrently running VMs (the compiler
// and the provider's program-cache insert both do); it never mutates
// Consts, Funcs metadata or Code. Idempotent.
func (p *Program) Optimize() {
	prepareMu.Lock()
	defer prepareMu.Unlock()
	p.prepareLocked()
	if p.optimized {
		return
	}
	work := 0 // the kind analysis' cell visits, over all functions
	for i := range p.Funcs {
		f := &p.Funcs[i]
		f.opt = fuse(f.Code, f.fast, p.intLocals(f, &work))
		annotateBlocks(f.opt)
	}
	p.optimized = true
}

func isArith(op Op) bool { return op >= OpAdd && op <= OpMod }
func isCmp(op Op) bool   { return op >= OpEq && op <= OpGe }
func isBranch(op Op) bool {
	return op == OpJumpIfFalse || op == OpJumpIfTrue
}

// isTerminator reports whether the instruction ends a basic block. Calls
// terminate blocks so that a frame always resumes at a block leader.
func isTerminator(op Op) bool {
	switch op {
	case OpJump, OpJumpIfFalse, OpJumpIfTrue, OpCall, OpReturn, OpReturn0,
		opCmpBr, opLocIntCmpBr, opLocLocCmpBr, opLocIntArithStoreJmp, opLocIntArithStoreJmpInt:
		return true
	}
	return false
}

// leaders computes the block-leader set: the function entry, every jump
// target, and every instruction after a terminator.
func leaders(code []Instr) []bool {
	l := make([]bool, len(code)+1)
	if len(code) > 0 {
		l[0] = true
	}
	for pc, in := range code {
		switch in.Op {
		case OpJump, OpJumpIfFalse, OpJumpIfTrue:
			l[in.Arg] = true // Validate bounds targets to [0, len]
			l[pc+1] = true
		case OpCall, OpReturn, OpReturn0:
			l[pc+1] = true
		}
	}
	return l
}

// fuse builds the fused stream from the original code. Slots covered by the
// tail of a superinstruction keep their straight translation: no jump target
// lands inside a fused window and the leading superinstruction steps over
// them, but they hold the operands that do not fit in it, and they are what
// runs when it declines its operands. ints is the kind analysis' proof
// (intLocals; nil proves nothing): a statement window whose locals are all
// proved ints at its head, and whose arithmetic cannot fail, becomes the
// statement's kind-proved twin.
func fuse(code []Instr, straight []optInstr, ints [][]bool) []optInstr {
	out := make([]optInstr, len(straight))
	copy(out, straight)
	lead := leaders(code)

	// interiorFree reports whether (i, i+n) contains no jump target.
	interiorFree := func(i, n int) bool {
		for j := i + 1; j < i+n; j++ {
			if lead[j] {
				return false
			}
		}
		return true
	}

	for i := 0; i < len(code); {
		in := code[i]
		var fi optInstr
		n := 0

		// Whole statements first, then 4-wide patterns, 3-wide, 2-wide.
		if in.Op == OpLoadLocal && i+6 <= len(code) && interiorFree(i, 6) &&
			code[i+1].Op == OpLoadLocal && code[i+2].Op == OpPushInt &&
			isArith(code[i+3].Op) && isArith(code[i+4].Op) && code[i+5].Op == OpStoreLocal {
			// k and arith₂ stay in tail slots i+2 and i+4.
			fi = optInstr{op: opLocLocIntArith2Store, sub: code[i+3].Op, a: in.Arg, b: code[i+1].Arg, c: code[i+5].Arg}
			n = 6
			if provedInts(ints, i, fi.a, fi.b, fi.c) && cannotFail(fi.sub, code[i+2].Arg) && code[i+4].Op <= OpMul {
				fi.op = opLocLocIntArith2StoreInt
			}
		}
		if n == 0 && in.Op == OpLoadLocal && i+5 <= len(code) && interiorFree(i, 5) &&
			code[i+1].Op == OpPushInt && isArith(code[i+2].Op) &&
			code[i+3].Op == OpStoreLocal && code[i+4].Op == OpJump {
			// The jump target stays in tail slot i+4.
			fi = optInstr{op: opLocIntArithStoreJmp, sub: code[i+2].Op, a: in.Arg, b: code[i+1].Arg, c: code[i+3].Arg}
			n = 5
			if provedInts(ints, i, fi.a, fi.c) && cannotFail(fi.sub, fi.b) {
				fi.op = opLocIntArithStoreJmpInt
			}
		}
		if n == 0 && in.Op == OpLoadLocal && i+4 <= len(code) && interiorFree(i, 4) {
			i1, i2, i3 := code[i+1], code[i+2], code[i+3]
			switch {
			case i1.Op == OpPushInt && isCmp(i2.Op) && isBranch(i3.Op):
				fi = optInstr{op: opLocIntCmpBr, sub: i2.Op, a: in.Arg, b: i1.Arg, c: i3.Arg}
				if i3.Op == OpJumpIfTrue {
					fi.flag = 1
				}
				n = 4
			case i1.Op == OpLoadLocal && isCmp(i2.Op) && isBranch(i3.Op):
				fi = optInstr{op: opLocLocCmpBr, sub: i2.Op, a: in.Arg, b: i1.Arg, c: i3.Arg}
				if i3.Op == OpJumpIfTrue {
					fi.flag = 1
				}
				n = 4
			case i1.Op == OpPushInt && isArith(i2.Op) && i3.Op == OpStoreLocal:
				fi = optInstr{op: opLocIntArithStore, sub: i2.Op, a: in.Arg, b: i1.Arg, c: i3.Arg}
				n = 4
			}
		}
		if n == 0 && in.Op == OpLoadLocal && i+3 <= len(code) && interiorFree(i, 3) {
			i1, i2 := code[i+1], code[i+2]
			switch {
			case i1.Op == OpPushInt && isArith(i2.Op):
				fi = optInstr{op: opLocIntArith, sub: i2.Op, a: in.Arg, b: i1.Arg}
				n = 3
			case i1.Op == OpPushConst && isArith(i2.Op):
				fi = optInstr{op: opLocConstArith, sub: i2.Op, a: in.Arg, b: i1.Arg}
				n = 3
			case i1.Op == OpLoadLocal && isArith(i2.Op):
				fi = optInstr{op: opLocLocArith, sub: i2.Op, a: in.Arg, b: i1.Arg}
				n = 3
			case i1.Op == OpPushInt && isCmp(i2.Op):
				fi = optInstr{op: opLocIntCmp, sub: i2.Op, a: in.Arg, b: i1.Arg}
				n = 3
			case i1.Op == OpLoadLocal && isCmp(i2.Op):
				fi = optInstr{op: opLocLocCmp, sub: i2.Op, a: in.Arg, b: i1.Arg}
				n = 3
			}
		}
		if n == 0 && i+2 <= len(code) && interiorFree(i, 2) {
			i1 := code[i+1]
			switch {
			case isCmp(in.Op) && isBranch(i1.Op):
				fi = optInstr{op: opCmpBr, sub: in.Op, a: i1.Arg}
				if i1.Op == OpJumpIfTrue {
					fi.flag = 1
				}
				n = 2
			case isArith(in.Op) && i1.Op == OpStoreLocal:
				fi = optInstr{op: opArithStore, sub: in.Op, a: i1.Arg}
				n = 2
			}
		}

		if n == 0 {
			i++
			continue
		}
		fi.n = uint8(n)
		out[i] = fi
		i += n
	}
	return out
}

// kindBudget bounds the kind analysis. It gives up once it has visited four
// times that many local and operand-stack cells, counting each pass' scan
// of the code as one cell per pc, over all passes and all of a program's
// functions: a frame may have MaxLocals locals, and hostile code may be long
// and need a pass per pc, so unbounded it would make Optimize quadratic.
// Compiled loops need a few passes over a few hundred cells.
const kindBudget = 1 << 20

// intLocals is the kind analysis: a forward dataflow over f.Code that
// returns, for every pc it reaches, which locals provably hold an int
// whenever that instruction runs (unreached pcs are nil), or nil when it
// proves nothing. Its state is one flag per local and per operand-stack
// slot, int or other. At entry every local is other: parameters are wire
// input, and the rest start as nil. pushi, an int pushc and len push int,
// and add/sub/mul/div/mod of two ints push int (or fault); loadl and storel
// move a flag between stack and local; everything else pushes other, and a
// call also makes every operand under its arguments other. At a join a slot
// is int only if it is int on every incoming edge. A stack underflow or a
// stack-height mismatch at a join, which no compiled program has, gives up,
// as does kindBudget; work counts the cells visited.
func (p *Program) intLocals(f *FuncProto, work *int) [][]bool {
	code, nl := f.Code, f.NumLocals
	if len(code) == 0 {
		return nil
	}
	in := make([][]bool, len(code))
	dirty := make([]bool, len(code))
	in[0], dirty[0] = make([]bool, nl), true
	var s []bool // the state on the way out of the instruction at pc
	pc, again := 0, true
	// join merges s into the state on entry to pc t and marks t for a visit,
	// in this pass or, behind pc, the next; it fails on a stack-height
	// mismatch.
	join := func(t int) bool {
		*work += len(s)
		if t == len(code) { // the implicit ret0
			return true
		}
		d := in[t]
		if d == nil {
			d = slices.Clone(s)
			in[t], dirty[t] = d, true
		}
		if len(d) != len(s) {
			return false
		}
		for i, k := range s {
			if d[i] && !k {
				d[i], dirty[t] = false, true
			}
		}
		again = again || dirty[t] && t <= pc
		return true
	}
	for again {
		again = false
		*work += len(code)
		for pc = range code {
			ins := code[pc]
			if !dirty[pc] {
				continue
			}
			dirty[pc] = false
			if *work += len(in[pc]); *work > 4*kindBudget {
				return nil
			}
			s = append(s[:0], in[pc]...)
			need, pops, push := 0, 0, -1 // push: -1 nothing, 0 other, 1 int
			next, target := true, -1
			switch ins.Op {
			case OpNop:
			case OpPushConst:
				push = b2i(p.Consts[ins.Arg].Kind == KindInt)
			case OpPushInt:
				push = 1
			case OpPushNil, OpPushTrue, OpPushFalse:
				push = 0
			case OpPop, OpStoreLocal:
				pops = 1
			case OpDup:
				need, push = 1, 0
			case OpLoadLocal:
				push = b2i(s[ins.Arg])
			case OpAdd, OpSub, OpMul, OpDiv, OpMod:
				pops, push = 2, 0
				if n := len(s); n-nl >= 2 && s[n-2] && s[n-1] {
					push = 1
				}
			case OpNeg, OpNot:
				pops, push = 1, 0
			case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpIndex, OpAppend:
				pops, push = 2, 0
			case OpLen:
				pops, push = 1, 1
			case OpJump:
				next, target = false, int(ins.Arg)
			case OpJumpIfFalse, OpJumpIfTrue:
				pops, target = 1, int(ins.Arg)
			case OpCall:
				// The VM checks a pop against the bottom of the whole
				// stack, not of the frame, so a hostile callee can pop
				// below its frame and leave anything in the caller's
				// slots: none stays proved past a call.
				pops, push = p.Funcs[ins.Arg].NumParams, 0
				clear(s[nl:])
			case OpCallB:
				pops, push = int(ins.Arg&0xff), 0
			case OpNewArray:
				pops, push = int(ins.Arg), 0
			case OpSetIndex:
				pops = 3
			case OpReturn:
				need, next = 1, false
			default: // ret0, and unknown opcodes, which fault
				next = false
			}
			if len(s)-nl < max(need, pops) {
				return nil
			}
			if ins.Op == OpStoreLocal {
				s[ins.Arg] = s[len(s)-1]
			}
			s = s[:len(s)-pops]
			if push >= 0 {
				s = append(s, push == 1)
			}
			if next && !join(pc+1) || target >= 0 && !join(target) {
				return nil
			}
		}
	}
	return in
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// provedInts reports whether the kind analysis proved every one of locals
// an int on entry to pc.
func provedInts(ints [][]bool, pc int, locals ...int32) bool {
	if ints == nil || ints[pc] == nil {
		return false
	}
	for _, l := range locals {
		if !ints[pc][l] {
			return false
		}
	}
	return true
}

// cannotFail reports whether int arithmetic op with the immediate right
// operand k always succeeds: add, sub and mul do, and div and mod do when k
// is not 0 (Go defines MinInt64 / -1).
func cannotFail(op Op, k int32) bool { return op <= OpMul || k != 0 }

// stackEffect returns the maximum transient operand-stack growth an
// instruction can cause and its net stack delta. Overestimating grow is
// safe (it only forces a deoptimization that re-checks exactly);
// underestimating is not. A kind-proved twin touches no stack, but it is
// charged its window's growth, which the straight stream would make.
func stackEffect(oi *optInstr) (grow, net int) {
	switch oi.op {
	case OpPushConst, OpPushInt, OpPushNil, OpPushTrue, OpPushFalse,
		OpLoadLocal, OpDup:
		return 1, 1
	case OpPop, OpStoreLocal, OpJumpIfFalse, OpJumpIfTrue,
		OpReturn, OpIndex, OpAppend:
		return 0, -1
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return 0, -1
	case OpNewArray:
		if oi.a == 0 {
			return 1, 1
		}
		return 0, 1 - int(oi.a)
	case OpSetIndex:
		return 0, -3
	case OpCallB:
		argc := int(oi.a & 0xff)
		g := 1 - argc
		if g < 0 {
			g = 0
		}
		return g, 1 - argc
	case OpCall:
		// The call terminates its block; the callee's effects are charged
		// in the callee's own blocks and the return push is depth-checked.
		return 0, 0
	case opLocIntArith, opLocConstArith, opLocLocArith, opLocIntCmp, opLocLocCmp:
		return 2, 1
	case opLocIntArithStore, opLocIntArithStoreJmp, opLocIntArithStoreJmpInt, opLocIntCmpBr, opLocLocCmpBr:
		return 2, 0
	case opLocLocIntArith2Store, opLocLocIntArith2StoreInt:
		return 3, 0
	case opArithStore, opCmpBr:
		return 0, -2
	default: // nop, neg, not, len, jump, return0, illegal
		return 0, 0
	}
}

// instrFuel returns the exact fuel an executed-stream instruction charges:
// for superinstructions, the sum of the covered instructions' costs.
func instrFuel(oi *optInstr) uint64 {
	switch oi.op {
	case opLocIntArith, opLocConstArith, opLocLocArith, opLocIntCmp, opLocLocCmp,
		opLocIntArithStore, opArithStore, opCmpBr, opLocIntCmpBr, opLocLocCmpBr,
		opLocLocIntArith2Store, opLocIntArithStoreJmp, opLocLocIntArith2StoreInt, opLocIntArithStoreJmpInt:
		return uint64(oi.n)
	default:
		return fuelCost(oi.op)
	}
}

// annotateBlocks walks the fused stream, delimits basic blocks, and stores
// each block's exact fuel total and maximum transient stack growth on the
// leader slot; every other slot is left without a charge.
func annotateBlocks(stream []optInstr) {
	for i := range stream {
		stream[i].blockFuel, stream[i].blockGrow = 0, 0
	}
	// Recompute leaders on the fused stream: every slot reachable as a
	// block start. Fusion preserved original jump targets, so the original
	// leader set projected onto the fused stream is exactly the set of pcs
	// control can transfer to.
	lead := make([]bool, len(stream)+1)
	if len(stream) > 0 {
		lead[0] = true
	}
	for i := 0; i < len(stream); {
		oi := &stream[i]
		switch oi.op {
		case OpJump, OpJumpIfFalse, OpJumpIfTrue:
			lead[oi.a] = true
		case opCmpBr:
			lead[oi.a] = true
		case opLocIntCmpBr, opLocLocCmpBr:
			lead[oi.c] = true
		case opLocIntArithStoreJmp, opLocIntArithStoreJmpInt:
			lead[stream[i+4].a] = true
		}
		n := int(oi.n)
		if isTerminator(oi.op) {
			lead[i+n] = true
		}
		i += n
	}

	for i := 0; i < len(stream); {
		var fuel uint64
		grow, s := 0, 0
		j := i
		for {
			oi := &stream[j]
			g, net := stackEffect(oi)
			if s+g > grow {
				grow = s + g
			}
			s += net
			fuel += instrFuel(oi)
			j += int(oi.n)
			if isTerminator(oi.op) || j >= len(stream) || lead[j] {
				break
			}
		}
		stream[i].blockFuel = uint32(fuel)
		stream[i].blockGrow = int32(grow)
		i = j
	}
}
