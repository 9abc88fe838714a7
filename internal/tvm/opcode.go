package tvm

import "fmt"

// Op is a TVM opcode. The instruction set is a conventional stack-machine
// ISA: operands are pushed, operators pop and push. Each instruction has one
// 32-bit immediate argument (unused by most ops).
type Op uint8

// Opcodes. The numeric values are part of the wire format; append only.
const (
	OpNop Op = iota

	// Stack & constants.
	OpPushConst // push consts[arg]
	OpPushInt   // push Int(arg)
	OpPushNil   // push nil
	OpPushTrue  // push true
	OpPushFalse // push false
	OpPop       // discard top of stack
	OpDup       // duplicate top of stack

	// Locals. Slot 0..NumParams-1 are the function parameters.
	OpLoadLocal  // push locals[arg]
	OpStoreLocal // locals[arg] = pop

	// Arithmetic. Numeric ops accept int/int, float/float, or mixed
	// (promoting to float); OpAdd additionally concatenates str/str.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod // ints only
	OpNeg

	// Comparison: push bool.
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe

	// Logic.
	OpNot

	// Control flow. Targets are absolute instruction indexes within the
	// current function.
	OpJump        // pc = arg
	OpJumpIfFalse // if !pop { pc = arg }
	OpJumpIfTrue  // if pop { pc = arg }

	// Calls.
	OpCall    // call funcs[arg]; callee pops its own params
	OpCallB   // call builtin: arg = builtin<<8 | argc
	OpReturn  // return pop from current function
	OpReturn0 // return nil from current function

	// Arrays & strings.
	OpNewArray // pop arg elements (in push order) and push an array
	OpIndex    // a[i]: pop i, pop a, push element / byte (as int) for str
	OpSetIndex // a[i] = v: pop v, pop i, pop a
	OpLen      // push length of array or string
	OpAppend   // pop v, pop a (array); append v to a; push a
)

// opWireMax is the highest opcode that may appear in the wire format. Ops
// above it are internal superinstructions produced by the load-time
// optimization pass (see optimize.go); they never appear in Program.Code and
// never cross the wire.
const opWireMax = OpAppend

// Superinstructions. Each fuses a short sequence of wire opcodes that the
// TCL compiler emits back to back on hot paths. They exist only in the
// optimized instruction stream: the fuser is the sole producer, so their
// operands are trusted (bounds were validated on the original instructions).
// The `sub` field of an optimized instruction carries the underlying
// arithmetic/comparison opcode.
const (
	opLocIntArith      Op = 200 + iota // loadl a; pushi b; arith            → push
	opLocConstArith                    // loadl a; pushc b; arith            → push
	opLocLocArith                      // loadl a; loadl b; arith            → push
	opLocIntArithStore                 // loadl a; pushi b; arith; storel c  → locals[c]
	opArithStore                       // arith; storel a                    → locals[a]
	opLocIntCmp                        // loadl a; pushi b; cmp              → push bool
	opLocLocCmp                        // loadl a; loadl b; cmp              → push bool
	opCmpBr                            // cmp; jz/jnz a                      → branch
	opLocIntCmpBr                      // loadl a; pushi b; cmp; jz/jnz c    → branch
	opLocLocCmpBr                      // loadl a; loadl b; cmp; jz/jnz c    → branch
	// Statement-level: the two extra operands are read from the window's
	// tail slots, which keep their straight translation.
	opLocLocIntArith2Store // loadl a; loadl b; pushi k; arith₁; arith₂; storel c → locals[c] = a arith₂ (b arith₁ k)
	opLocIntArithStoreJmp  // loadl a; pushi b; arith; storel c; jmp T          → locals[c], pc = T
	opIllegal              // sanitized unknown opcode (a = original byte)
)

var fusedNames = map[Op]string{
	opLocIntArith:      "loc.int.arith",
	opLocConstArith:    "loc.const.arith",
	opLocLocArith:      "loc.loc.arith",
	opLocIntArithStore: "loc.int.arith.store",
	opArithStore:       "arith.store",
	opLocIntCmp:        "loc.int.cmp",
	opLocLocCmp:        "loc.loc.cmp",
	opCmpBr:            "cmp.br",
	opLocIntCmpBr:      "loc.int.cmp.br",
	opLocLocCmpBr:      "loc.loc.cmp.br",

	opLocLocIntArith2Store: "loc.loc.int.arith2.store",
	opLocIntArithStoreJmp:  "loc.int.arith.store.jmp",
	opIllegal:              "illegal",
}

var opNames = map[Op]string{
	OpNop:         "nop",
	OpPushConst:   "pushc",
	OpPushInt:     "pushi",
	OpPushNil:     "pushnil",
	OpPushTrue:    "pushtrue",
	OpPushFalse:   "pushfalse",
	OpPop:         "pop",
	OpDup:         "dup",
	OpLoadLocal:   "loadl",
	OpStoreLocal:  "storel",
	OpAdd:         "add",
	OpSub:         "sub",
	OpMul:         "mul",
	OpDiv:         "div",
	OpMod:         "mod",
	OpNeg:         "neg",
	OpEq:          "eq",
	OpNe:          "ne",
	OpLt:          "lt",
	OpLe:          "le",
	OpGt:          "gt",
	OpGe:          "ge",
	OpNot:         "not",
	OpJump:        "jmp",
	OpJumpIfFalse: "jz",
	OpJumpIfTrue:  "jnz",
	OpCall:        "call",
	OpCallB:       "callb",
	OpReturn:      "ret",
	OpReturn0:     "ret0",
	OpNewArray:    "newarr",
	OpIndex:       "index",
	OpSetIndex:    "setindex",
	OpLen:         "len",
	OpAppend:      "append",
}

// String returns the assembler mnemonic for the opcode.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	if s, ok := fusedNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Instr is one decoded instruction.
type Instr struct {
	Op  Op
	Arg int32
}

// String renders the instruction in assembler form.
func (i Instr) String() string {
	switch i.Op {
	case OpPushConst, OpPushInt, OpLoadLocal, OpStoreLocal, OpJump,
		OpJumpIfFalse, OpJumpIfTrue, OpCall, OpNewArray:
		return fmt.Sprintf("%s %d", i.Op, i.Arg)
	case OpCallB:
		return fmt.Sprintf("%s %s/%d", i.Op, Builtin(i.Arg>>8), i.Arg&0xff)
	default:
		return i.Op.String()
	}
}

// fuelCost returns the fuel consumed by executing the instruction. Calls and
// allocations cost more than plain stack traffic so that fuel tracks real
// work at least roughly.
func fuelCost(op Op) uint64 {
	switch op {
	case OpCall, OpCallB:
		return 4
	case OpNewArray, OpAppend:
		return 2
	default:
		return 1
	}
}
