package tvm

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Config bounds a single tasklet execution. Limits exist because providers
// run untrusted bytecode: a tasklet cannot spin, recurse, allocate or emit
// beyond its budget. The zero value is not usable; call DefaultConfig.
type Config struct {
	Fuel     uint64 // total instruction budget (weighted by fuelCost)
	MaxStack int    // operand stack depth limit
	MaxCall  int    // call stack depth limit
	MaxHeap  int    // total array elements a run may allocate
	MaxEmit  int    // maximum number of emitted results
	MaxPrint int    // maximum retained print() lines
	Seed     uint64 // seed for the deterministic rand() builtin

	// NoOptimize forces the VM onto the straight (unfused) instruction
	// stream even when the program has been through Program.Optimize.
	// The two streams are semantically identical — NoOptimize exists for
	// differential testing and ablation benchmarks.
	NoOptimize bool

	// Cancel, when non-nil, is polled periodically by the interpreter;
	// setting it aborts the run with a FaultCancelled fault. Providers use
	// this to stop tasklets on shutdown or job cancellation.
	Cancel *atomic.Bool
}

// DefaultConfig returns generous but finite limits suitable for the standard
// workloads: ~100M fuel executes a few seconds of work on a modern core.
func DefaultConfig() Config {
	return Config{
		Fuel:     100_000_000,
		MaxStack: 64 << 10,
		MaxCall:  1 << 10,
		MaxHeap:  8 << 20,
		MaxEmit:  1 << 16,
		MaxPrint: 256,
		Seed:     1,
	}
}

// Result is the outcome of a successful run.
type Result struct {
	Return   Value    // value returned by the entry function
	Emitted  []Value  // values the program passed to emit(), in order
	Printed  []string // debug log lines from print()
	FuelUsed uint64
}

// Hash returns a deterministic hash over the semantically relevant outputs
// (return value and emitted values, not the debug log). Redundant executions
// of a deterministic tasklet produce equal hashes.
func (r *Result) Hash() uint64 {
	return HashValues(append([]Value{r.Return}, r.Emitted...))
}

// frame is one activation record.
type frame struct {
	fn     *FuncProto
	pc     int
	locals []Value
	base   int // operand stack height at entry; restored on return
}

// VM executes one tasklet program. A VM is not safe for concurrent use; the
// enclosing provider keeps one VM per slot worker. After a run completes —
// normally or with a fault — Reset re-arms the VM for another run of the same
// program under a new Config, reusing the operand stack, call frames and
// locals free list so that steady-state re-execution is allocation-free.
type VM struct {
	prog    *Program
	cfg     Config
	stack   []Value
	frames  []frame
	fuel    uint64
	heap    int
	rng     uint64
	emitted []Value
	printed []string

	// localsPool recycles call-frame locals slices so OpCall does not
	// allocate on re-entrant workloads. Bounded by the maximum call depth.
	localsPool [][]Value

	// deopt forces the straight stream for the rest of the run. It is set
	// when a block's fuel or stack margin cannot be verified up front; the
	// straight stream then reproduces the reference fault exactly.
	deopt bool

	// res backs the *Result returned by Run; reusing it keeps the
	// steady-state (Reset + Run) path allocation-free. It is invalidated
	// by the next Reset.
	res Result

	// stack0 and frames0 are the first operand stack and call frames. They
	// sit inside the VM so that a fresh VM is one allocation, and one of
	// whole cache lines (see lineValues).
	stack0  [lineValues]Value
	frames0 [lineValues]frame
}

// lineValues is the allocation quantum of the memory a run writes on every
// instruction — the VM itself, operand stack, locals, call frames: Value and
// frame are 48 bytes, so four of them fill three 64-byte cache lines exactly,
// and the allocator aligns size classes that are multiples of 64 to it (the
// VM struct lands in the 768-byte class). A provider keeps one long-lived VM
// per slot worker; without this, buffers that two VMs allocated back to back
// share a cache line, and two workers running on different CPUs interpret
// ~1.8x slower (BenchmarkVM_ReusedSiblings). A VM made fresh for every run
// never met the problem: its neighbours in memory are the garbage of the same
// CPU's previous run.
const lineValues = 4

// lineCap rounds a buffer capacity up to whole cache lines.
func lineCap(n int) int { return (n + lineValues - 1) &^ (lineValues - 1) }

// New creates a VM for prog under the given limits. The program must have
// been validated (Program.UnmarshalBinary validates; hand-built programs
// should call Validate explicitly).
func New(prog *Program, cfg Config) *VM {
	if !prog.prepped {
		// Compile- and wire-loaded programs are prepared (and usually
		// optimized) before they are shared; this fallback covers
		// hand-built programs. prepare serializes internally.
		prog.prepare()
	}
	vm := &VM{prog: prog, cfg: cfg, fuel: cfg.Fuel, rng: seedRNG(cfg.Seed)}
	vm.stack, vm.frames = vm.stack0[:0], vm.frames0[:0]
	return vm
}

// seedRNG maps a Config seed to the generator's initial state, which must be
// non-zero.
func seedRNG(seed uint64) uint64 {
	if seed == 0 {
		return 0x9e3779b97f4a7c15 // splitmix-style non-zero default
	}
	return seed
}

// Reset returns the VM to the state New(prog, cfg) would create, so the same
// program can be run again under cfg — typically the next attempt's fuel,
// seed and cancel flag. Internal buffers (operand stack, frame stack, locals
// free list) are retained, making repeated Reset+Run cycles allocation-free
// for programs that do not emit or print. The Result struct returned by the
// previous Run is invalidated; the Emitted and Printed slices it carried are
// never written again, so a caller that copied them out may keep them.
func (vm *VM) Reset(cfg Config) {
	vm.cfg = cfg
	for i := range vm.frames {
		fr := &vm.frames[i]
		if cap(fr.locals) > 0 {
			vm.localsPool = append(vm.localsPool, fr.locals)
		}
		*fr = frame{}
	}
	vm.frames = vm.frames[:0]
	// Clear retained Values (stack slack and pooled locals) so arrays from
	// the previous run are not kept alive across runs.
	clear(vm.stack[:cap(vm.stack)])
	vm.stack = vm.stack[:0]
	for _, s := range vm.localsPool {
		clear(s[:cap(s)])
	}
	vm.fuel = cfg.Fuel
	vm.heap = 0
	vm.rng = seedRNG(cfg.Seed)
	vm.emitted = nil
	vm.printed = nil
	vm.deopt = false
	vm.res = Result{}
}

// nextRand advances the xorshift64* generator. Deterministic across
// platforms, which keeps redundant executions vote-compatible.
func (vm *VM) nextRand() uint64 {
	x := vm.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	vm.rng = x
	return x * 0x2545f4914f6cdd1d
}

// alloc charges n array elements against the heap budget.
func (vm *VM) alloc(n int) *Fault {
	vm.heap += n
	if vm.heap > vm.cfg.MaxHeap {
		return newFault(FaultOutOfMemory, "heap limit %d elements exceeded", vm.cfg.MaxHeap)
	}
	return nil
}

// getLocals returns a locals slice of length n, reusing the free list when
// possible. Slices too small to fit are discarded.
func (vm *VM) getLocals(n int) []Value {
	for k := len(vm.localsPool); k > 0; k-- {
		s := vm.localsPool[k-1]
		vm.localsPool = vm.localsPool[:k-1]
		if cap(s) >= n {
			return s[:n]
		}
	}
	return make([]Value, n, lineCap(n))
}

// Run executes the program's entry function with the given parameters.
// It returns a *Fault (as error) on any runtime fault; the fault carries the
// function name and pc where execution stopped. The returned Result is
// owned by the VM and invalidated by the next Reset.
func (vm *VM) Run(params ...Value) (*Result, error) {
	entry := vm.prog.EntryFunc()
	if len(params) != entry.NumParams {
		return nil, newFault(FaultBadProgram, "entry %s wants %d params, got %d",
			entry.Name, entry.NumParams, len(params))
	}
	locals := vm.getLocals(entry.NumLocals)
	n := copy(locals, params)
	for i := n; i < len(locals); i++ {
		locals[i] = Value{}
	}
	vm.frames = append(vm.frames, frame{fn: entry, locals: locals})

	ret, fault := vm.loop()
	if fault != nil {
		return nil, fault
	}
	vm.res = Result{
		Return:   ret,
		Emitted:  vm.emitted,
		Printed:  vm.printed,
		FuelUsed: vm.cfg.Fuel - vm.fuel,
	}
	return &vm.res, nil
}

// push grows the operand stack, enforcing the depth limit.
func (vm *VM) push(v Value) *Fault {
	if len(vm.stack) >= vm.cfg.MaxStack {
		return newFault(FaultStackOverflow, "operand stack limit %d exceeded", vm.cfg.MaxStack)
	}
	vm.stack = append(vm.stack, v)
	return nil
}

// underflowFault is the shared operand-stack underflow fault, used uniformly
// by plain pops, OpDup, and fused ops that consume stack operands.
func underflowFault() *Fault {
	return newFault(FaultBadProgram, "pop from empty stack")
}

// pop removes and returns the top of the operand stack.
func (vm *VM) pop() (Value, *Fault) {
	if len(vm.stack) == 0 {
		return Value{}, underflowFault()
	}
	v := vm.stack[len(vm.stack)-1]
	vm.stack = vm.stack[:len(vm.stack)-1]
	return v, nil
}

// stream selects the instruction stream for a function: the fused fast path
// when available and enabled, otherwise the straight translation.
func (vm *VM) stream(fn *FuncProto) ([]optInstr, bool) {
	if fn.opt != nil && !vm.cfg.NoOptimize && !vm.deopt {
		return fn.opt, true
	}
	return fn.fast, false
}

// faultAt annotates a fault with the current location unless a deeper
// handler already did.
func faultAt(ft *Fault, f *frame, pc int) *Fault {
	if ft.Func == "" {
		ft.Func = f.fn.Name
		ft.PC = pc
	}
	return ft
}

// loop is the interpreter core. It returns the entry function's return
// value, or a fault annotated with the faulting location.
//
// The hot-path state — current frame, instruction stream, pc and the next
// fuel-charge pc — is cached in locals and written back only on frame
// switches. In fused streams fuel and stack headroom are verified once per
// basic block (nextCharge tracks the next block leader); if a block's
// margin cannot be verified the VM deoptimizes to the straight stream at
// the block leader, which reproduces the reference interpreter's fault
// exactly.
func (vm *VM) loop() (Value, *Fault) {
	f := &vm.frames[len(vm.frames)-1]
	code, fused := vm.stream(f.fn)
	pc := f.pc
	nextCharge := pc
	maxStack := vm.cfg.MaxStack

	const cancelPollMask = 4095 // poll Cancel every 4096 dispatches
	var steps uint64
	for {
		steps++
		if steps&cancelPollMask == 0 && vm.cfg.Cancel != nil && vm.cfg.Cancel.Load() {
			return Value{}, faultAt(newFault(FaultCancelled, "execution cancelled by host"), f, pc)
		}
		if pc >= len(code) {
			// Falling off the end of a function returns nil.
			ret, fault := vm.unwind(Nil())
			if fault != nil {
				return Value{}, faultAt(fault, f, pc)
			}
			if len(vm.frames) == 0 {
				return ret, nil
			}
			f = &vm.frames[len(vm.frames)-1]
			code, fused = vm.stream(f.fn)
			pc = f.pc
			nextCharge = pc
			continue
		}
		if pc == nextCharge {
			oi := &code[pc]
			if fused {
				if vm.fuel < uint64(oi.blockFuel) || len(vm.stack)+int(oi.blockGrow) > maxStack {
					// Deoptimize: replay this block per-instruction on the
					// straight stream so the inevitable fault lands exactly
					// where the reference interpreter puts it.
					vm.deopt = true
					code, fused = f.fn.fast, false
					continue
				}
				vm.fuel -= uint64(oi.blockFuel)
				nextCharge = int(oi.blockEnd)
			} else {
				cost := uint64(oi.blockFuel) // per-instruction cost
				if vm.fuel < cost {
					return Value{}, faultAt(newFault(FaultOutOfFuel, "fuel budget %d exhausted", vm.cfg.Fuel), f, pc)
				}
				vm.fuel -= cost
				nextCharge = pc + 1
			}
		}

		oi := &code[pc]
		npc := pc + int(oi.n)
		var fault *Fault
		faultOff := 0

		switch oi.op {
		case OpNop:

		case OpPushConst:
			fault = vm.push(vm.prog.Consts[oi.a])
		case OpPushInt:
			fault = vm.push(Int(int64(oi.a)))
		case OpPushNil:
			fault = vm.push(Nil())
		case OpPushTrue:
			fault = vm.push(Bool(true))
		case OpPushFalse:
			fault = vm.push(Bool(false))
		case OpPop:
			_, fault = vm.pop()
		case OpDup:
			if len(vm.stack) == 0 {
				fault = underflowFault()
			} else {
				fault = vm.push(vm.stack[len(vm.stack)-1])
			}

		case OpLoadLocal:
			fault = vm.push(f.locals[oi.a])
		case OpStoreLocal:
			var v Value
			if v, fault = vm.pop(); fault == nil {
				f.locals[oi.a] = v
			}

		case OpAdd, OpSub, OpMul, OpDiv, OpMod:
			fault = vm.binaryArith(oi.op)
		case OpNeg:
			var v Value
			if v, fault = vm.pop(); fault == nil {
				switch v.Kind {
				case KindInt:
					fault = vm.push(Int(-v.I))
				case KindFloat:
					fault = vm.push(Float(-v.F))
				default:
					fault = newFault(FaultTypeMismatch, "neg wants a number, got %s", v.Kind)
				}
			}

		case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
			fault = vm.compare(oi.op)

		case OpNot:
			var v Value
			if v, fault = vm.pop(); fault == nil {
				if v.Kind != KindBool {
					fault = newFault(FaultTypeMismatch, "not wants a bool, got %s", v.Kind)
				} else {
					fault = vm.push(Bool(v.I == 0))
				}
			}

		case OpJump:
			npc = int(oi.a)
			nextCharge = npc
		case OpJumpIfFalse, OpJumpIfTrue:
			var v Value
			if v, fault = vm.pop(); fault == nil {
				if v.Kind != KindBool {
					fault = newFault(FaultTypeMismatch, "branch wants a bool, got %s", v.Kind)
				} else if v.AsBool() == (oi.op == OpJumpIfTrue) {
					npc = int(oi.a)
					nextCharge = npc
				}
			}

		case OpCall:
			if len(vm.frames) >= vm.cfg.MaxCall {
				fault = newFault(FaultStackOverflow, "call depth limit %d exceeded", vm.cfg.MaxCall)
				break
			}
			callee := &vm.prog.Funcs[oi.a]
			if len(vm.stack) < callee.NumParams {
				fault = newFault(FaultBadProgram, "call %s: %d args on stack, want %d",
					callee.Name, len(vm.stack), callee.NumParams)
				break
			}
			base := len(vm.stack) - callee.NumParams
			locals := vm.getLocals(callee.NumLocals)
			copy(locals, vm.stack[base:])
			for i := callee.NumParams; i < len(locals); i++ {
				locals[i] = Value{}
			}
			vm.stack = vm.stack[:base]
			f.pc = npc
			vm.frames = append(vm.frames, frame{fn: callee, locals: locals, base: base})
			f = &vm.frames[len(vm.frames)-1]
			code, fused = vm.stream(callee)
			npc = 0
			nextCharge = 0

		case OpCallB:
			id := Builtin(oi.a >> 8)
			argc := int(oi.a & 0xff)
			spec, ok := builtinTable[id]
			if !ok {
				fault = newFault(FaultBadBuiltin, "unknown builtin %d", int(id))
				break
			}
			if argc != spec.arity {
				fault = newFault(FaultBadBuiltin, "%s wants %d args, got %d", spec.name, spec.arity, argc)
				break
			}
			if len(vm.stack) < argc {
				fault = newFault(FaultBadProgram, "builtin %s: stack underflow", spec.name)
				break
			}
			args := vm.stack[len(vm.stack)-argc:]
			var ret Value
			ret, fault = spec.fn(vm, args)
			if fault == nil {
				vm.stack = vm.stack[:len(vm.stack)-argc]
				fault = vm.push(ret)
			}

		case OpReturn, OpReturn0:
			ret := Nil()
			if oi.op == OpReturn {
				if ret, fault = vm.pop(); fault != nil {
					break
				}
			}
			var done Value
			done, fault = vm.unwind(ret)
			if fault == nil && len(vm.frames) == 0 {
				return done, nil
			}
			if fault == nil {
				f = &vm.frames[len(vm.frames)-1]
				code, fused = vm.stream(f.fn)
				npc = f.pc
				nextCharge = npc
			}

		case OpNewArray:
			n := int(oi.a)
			if len(vm.stack) < n {
				fault = newFault(FaultBadProgram, "newarr %d: stack underflow", n)
				break
			}
			if fault = vm.alloc(n); fault != nil {
				break
			}
			elems := make([]Value, n)
			copy(elems, vm.stack[len(vm.stack)-n:])
			vm.stack = vm.stack[:len(vm.stack)-n]
			fault = vm.push(Value{Kind: KindArr, A: &Array{Elems: elems}})

		case OpIndex:
			fault = vm.index()
		case OpSetIndex:
			fault = vm.setIndex()
		case OpLen:
			var v Value
			if v, fault = vm.pop(); fault == nil {
				switch v.Kind {
				case KindArr:
					fault = vm.push(Int(int64(len(v.A.Elems))))
				case KindStr:
					fault = vm.push(Int(int64(len(v.S))))
				default:
					fault = newFault(FaultTypeMismatch, "len wants arr or str, got %s", v.Kind)
				}
			}
		case OpAppend:
			var v, a Value
			if v, fault = vm.pop(); fault != nil {
				break
			}
			if a, fault = vm.pop(); fault != nil {
				break
			}
			if a.Kind != KindArr {
				fault = newFault(FaultTypeMismatch, "append wants an arr, got %s", a.Kind)
				break
			}
			if fault = vm.alloc(1); fault != nil {
				break
			}
			a.A.Elems = append(a.A.Elems, v)
			fault = vm.push(a)

		// ---- superinstructions (fused streams only; operands trusted,
		// stack headroom verified at block entry) ----

		case opLocIntArith, opLocConstArith, opLocLocArith:
			x := f.locals[oi.a]
			var y Value
			switch oi.op {
			case opLocIntArith:
				y = Value{Kind: KindInt, I: int64(oi.b)}
			case opLocConstArith:
				y = vm.prog.Consts[oi.b]
			default:
				y = f.locals[oi.b]
			}
			if x.Kind == KindInt && y.Kind == KindInt && oi.sub <= OpMul {
				var r int64
				switch oi.sub {
				case OpAdd:
					r = x.I + y.I
				case OpSub:
					r = x.I - y.I
				default:
					r = x.I * y.I
				}
				vm.stack = append(vm.stack, Value{Kind: KindInt, I: r})
				break
			}
			var v Value
			if v, fault = arithVals(oi.sub, x, y); fault != nil {
				faultOff = 2
				break
			}
			vm.stack = append(vm.stack, v)

		case opLocIntArithStore:
			x := f.locals[oi.a]
			if x.Kind == KindInt && oi.sub <= OpMul {
				var r int64
				switch oi.sub {
				case OpAdd:
					r = x.I + int64(oi.b)
				case OpSub:
					r = x.I - int64(oi.b)
				default:
					r = x.I * int64(oi.b)
				}
				f.locals[oi.c] = Value{Kind: KindInt, I: r}
				break
			}
			var v Value
			if v, fault = arithVals(oi.sub, x, Int(int64(oi.b))); fault != nil {
				faultOff = 2
				break
			}
			f.locals[oi.c] = v

		case opArithStore:
			n := len(vm.stack)
			if n < 2 {
				fault = underflowFault()
				break
			}
			x, y := vm.stack[n-2], vm.stack[n-1]
			vm.stack = vm.stack[:n-2]
			var v Value
			if v, fault = arithVals(oi.sub, x, y); fault != nil {
				break
			}
			f.locals[oi.a] = v

		case opLocIntCmp, opLocLocCmp:
			x := f.locals[oi.a]
			var y Value
			if oi.op == opLocIntCmp {
				y = Value{Kind: KindInt, I: int64(oi.b)}
			} else {
				y = f.locals[oi.b]
			}
			var v Value
			if x.Kind == KindInt && y.Kind == KindInt {
				v = Bool(intCmp(oi.sub, x.I, y.I))
			} else if v, fault = cmpVals(oi.sub, x, y); fault != nil {
				faultOff = 2
				break
			}
			vm.stack = append(vm.stack, v)

		case opCmpBr:
			n := len(vm.stack)
			if n < 2 {
				fault = underflowFault()
				break
			}
			x, y := vm.stack[n-2], vm.stack[n-1]
			vm.stack = vm.stack[:n-2]
			var cond bool
			if x.Kind == KindInt && y.Kind == KindInt {
				cond = intCmp(oi.sub, x.I, y.I)
			} else {
				var v Value
				if v, fault = cmpVals(oi.sub, x, y); fault != nil {
					break
				}
				cond = v.I != 0
			}
			if cond == (oi.flag == 1) {
				npc = int(oi.a)
				nextCharge = npc
			}

		case opLocIntCmpBr, opLocLocCmpBr:
			x := f.locals[oi.a]
			var y Value
			if oi.op == opLocIntCmpBr {
				y = Value{Kind: KindInt, I: int64(oi.b)}
			} else {
				y = f.locals[oi.b]
			}
			var cond bool
			if x.Kind == KindInt && y.Kind == KindInt {
				cond = intCmp(oi.sub, x.I, y.I)
			} else {
				var v Value
				if v, fault = cmpVals(oi.sub, x, y); fault != nil {
					faultOff = 2
					break
				}
				cond = v.I != 0
			}
			if cond == (oi.flag == 1) {
				npc = int(oi.c)
				nextCharge = npc
			}

		case opLocCallB:
			vm.stack = append(vm.stack, f.locals[oi.a])
			id := Builtin(oi.b >> 8)
			argc := int(oi.b & 0xff)
			spec := builtinTable[id] // fusion guaranteed existence and arity
			if len(vm.stack) < argc {
				fault = newFault(FaultBadProgram, "builtin %s: stack underflow", spec.name)
				faultOff = 1
				break
			}
			args := vm.stack[len(vm.stack)-argc:]
			var ret Value
			if ret, fault = spec.fn(vm, args); fault != nil {
				faultOff = 1
				break
			}
			vm.stack = vm.stack[:len(vm.stack)-argc]
			vm.stack = append(vm.stack, ret)

		case opIllegal:
			fault = newFault(FaultBadProgram, "illegal opcode %d", uint8(oi.a))

		default:
			fault = newFault(FaultBadProgram, "illegal opcode %d", uint8(oi.op))
		}

		if fault != nil {
			fault.Func = f.fn.Name
			fault.PC = pc + faultOff
			return Value{}, fault
		}
		pc = npc
	}
}

// unwind pops the current frame, truncates the operand stack to the frame's
// base, recycles the frame's locals, and pushes ret for the caller. When the
// last frame returns, ret is the program result and is returned via the
// first return value.
func (vm *VM) unwind(ret Value) (Value, *Fault) {
	fr := vm.frames[len(vm.frames)-1]
	vm.frames = vm.frames[:len(vm.frames)-1]
	vm.stack = vm.stack[:fr.base]
	if cap(fr.locals) > 0 {
		vm.localsPool = append(vm.localsPool, fr.locals)
	}
	if len(vm.frames) == 0 {
		return ret, nil
	}
	return Value{}, vm.push(ret)
}

// intCmp evaluates an int/int comparison.
func intCmp(op Op, a, b int64) bool {
	switch op {
	case OpEq:
		return a == b
	case OpNe:
		return a != b
	case OpLt:
		return a < b
	case OpLe:
		return a <= b
	case OpGt:
		return a > b
	default:
		return a >= b
	}
}

// binaryArith implements add/sub/mul/div/mod over the operand stack.
func (vm *VM) binaryArith(op Op) *Fault {
	b, fault := vm.pop()
	if fault != nil {
		return fault
	}
	a, fault := vm.pop()
	if fault != nil {
		return fault
	}
	v, fault := arithVals(op, a, b)
	if fault != nil {
		return fault
	}
	return vm.push(v)
}

// arithVals implements add/sub/mul/div/mod with int/float promotion and
// string concatenation for add. Shared by the plain stack ops and the fused
// superinstructions so both report identical faults.
func arithVals(op Op, a, b Value) (Value, *Fault) {
	if op == OpAdd && a.Kind == KindStr && b.Kind == KindStr {
		return Str(a.S + b.S), nil
	}
	if !isNum(a) || !isNum(b) {
		return Value{}, newFault(FaultTypeMismatch, "%s wants numbers, got %s, %s", op, a.Kind, b.Kind)
	}
	if a.Kind == KindInt && b.Kind == KindInt {
		switch op {
		case OpAdd:
			return Int(a.I + b.I), nil
		case OpSub:
			return Int(a.I - b.I), nil
		case OpMul:
			return Int(a.I * b.I), nil
		case OpDiv:
			if b.I == 0 {
				return Value{}, newFault(FaultDivByZero, "integer division by zero")
			}
			return Int(a.I / b.I), nil
		case OpMod:
			if b.I == 0 {
				return Value{}, newFault(FaultDivByZero, "modulo by zero")
			}
			return Int(a.I % b.I), nil
		}
	}
	if op == OpMod {
		return Value{}, newFault(FaultTypeMismatch, "mod wants ints, got %s, %s", a.Kind, b.Kind)
	}
	x, y := a.AsFloat(), b.AsFloat()
	switch op {
	case OpAdd:
		return Float(x + y), nil
	case OpSub:
		return Float(x - y), nil
	case OpMul:
		return Float(x * y), nil
	case OpDiv:
		// IEEE semantics: float division by zero yields ±Inf/NaN, which is
		// deterministic and therefore allowed.
		return Float(x / y), nil
	}
	return Value{}, newFault(FaultBadProgram, "unreachable arithmetic op %s", op)
}

// compare implements the six comparison ops over the operand stack.
func (vm *VM) compare(op Op) *Fault {
	b, fault := vm.pop()
	if fault != nil {
		return fault
	}
	a, fault := vm.pop()
	if fault != nil {
		return fault
	}
	v, fault := cmpVals(op, a, b)
	if fault != nil {
		return fault
	}
	return vm.push(v)
}

// cmpVals implements the six comparison ops. Equality works on any pair of
// kinds (cross-kind is false, except int/float which compare numerically);
// ordering requires two numbers or two strings. Shared by plain and fused
// ops so both report identical faults.
func cmpVals(op Op, a, b Value) (Value, *Fault) {
	if op == OpEq || op == OpNe {
		var eq bool
		if isNum(a) && isNum(b) && a.Kind != b.Kind {
			eq = a.AsFloat() == b.AsFloat()
		} else {
			eq = a.Equal(b)
		}
		return Bool(eq == (op == OpEq)), nil
	}
	var cmp int
	switch {
	case isNum(a) && isNum(b):
		if a.Kind == KindInt && b.Kind == KindInt {
			switch {
			case a.I < b.I:
				cmp = -1
			case a.I > b.I:
				cmp = 1
			}
		} else {
			x, y := a.AsFloat(), b.AsFloat()
			switch {
			case x < y:
				cmp = -1
			case x > y:
				cmp = 1
			}
		}
	case a.Kind == KindStr && b.Kind == KindStr:
		switch {
		case a.S < b.S:
			cmp = -1
		case a.S > b.S:
			cmp = 1
		}
	default:
		return Value{}, newFault(FaultTypeMismatch, "%s wants two numbers or two strings, got %s, %s", op, a.Kind, b.Kind)
	}
	var r bool
	switch op {
	case OpLt:
		r = cmp < 0
	case OpLe:
		r = cmp <= 0
	case OpGt:
		r = cmp > 0
	case OpGe:
		r = cmp >= 0
	}
	return Bool(r), nil
}

func (vm *VM) index() *Fault {
	i, fault := vm.pop()
	if fault != nil {
		return fault
	}
	a, fault := vm.pop()
	if fault != nil {
		return fault
	}
	if i.Kind != KindInt {
		return newFault(FaultTypeMismatch, "index wants an int, got %s", i.Kind)
	}
	switch a.Kind {
	case KindArr:
		if i.I < 0 || i.I >= int64(len(a.A.Elems)) {
			return newFault(FaultIndexRange, "index %d out of range for arr of len %d", i.I, len(a.A.Elems))
		}
		return vm.push(a.A.Elems[i.I])
	case KindStr:
		if i.I < 0 || i.I >= int64(len(a.S)) {
			return newFault(FaultIndexRange, "index %d out of range for str of len %d", i.I, len(a.S))
		}
		return vm.push(Int(int64(a.S[i.I])))
	default:
		return newFault(FaultTypeMismatch, "cannot index %s", a.Kind)
	}
}

func (vm *VM) setIndex() *Fault {
	v, fault := vm.pop()
	if fault != nil {
		return fault
	}
	i, fault := vm.pop()
	if fault != nil {
		return fault
	}
	a, fault := vm.pop()
	if fault != nil {
		return fault
	}
	if a.Kind != KindArr {
		return newFault(FaultTypeMismatch, "cannot assign into %s", a.Kind)
	}
	if i.Kind != KindInt {
		return newFault(FaultTypeMismatch, "index wants an int, got %s", i.Kind)
	}
	if i.I < 0 || i.I >= int64(len(a.A.Elems)) {
		return newFault(FaultIndexRange, "index %d out of range for arr of len %d", i.I, len(a.A.Elems))
	}
	a.A.Elems[i.I] = v
	return nil
}

// Execute is a convenience wrapper: validate, run with cfg, and map the
// fault into an error. It is the API the provider runtime uses.
func Execute(prog *Program, cfg Config, params ...Value) (*Result, error) {
	if prog == nil {
		return nil, errors.New("tvm: nil program")
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	return New(prog, cfg).Run(params...)
}

// AsFault extracts the *Fault from an error returned by Run/Execute, if any.
func AsFault(err error) (*Fault, bool) {
	var f *Fault
	if errors.As(err, &f) {
		return f, true
	}
	return nil, false
}

var _ fmt.Stringer = Op(0) // interface compliance documentation
