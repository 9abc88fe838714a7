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
	return HashResult(r.Return, r.Emitted)
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

// underflowFault is the shared operand-stack underflow fault.
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

// set, setInt and setBool overwrite a Value field by field, which is how the
// interpreter moves every Value on its hot paths. A struct assignment copies
// with 16-byte loads, and a composite literal is first built in a temporary
// and then copied the same way; a 16-byte load of bytes that narrower stores
// wrote just before — Kind and I always are — cannot be store-forwarded and
// waits for those stores to retire, which costs more than the rest of a
// dispatch.
func (v *Value) set(o *Value) {
	v.Kind, v.I, v.F, v.S, v.A = o.Kind, o.I, o.F, o.S, o.A
}

func (v *Value) setInt(i int64) {
	v.Kind, v.I, v.F, v.S, v.A = KindInt, i, 0, "", nil
}

func (v *Value) setBool(b bool) {
	v.setInt(0)
	v.Kind = KindBool
	if b {
		v.I = 1
	}
}

// stream selects the instruction stream for a function: the fused fast path
// when available and enabled, otherwise the straight translation.
func (vm *VM) stream(fn *FuncProto) ([]optInstr, bool) {
	if fn.opt != nil && !vm.cfg.NoOptimize && !vm.deopt {
		return fn.opt, true
	}
	return fn.fast, false
}

// faultAt annotates a fault with the location it was raised at.
func faultAt(ft *Fault, f *frame, pc int) *Fault {
	ft.Func = f.fn.Name
	ft.PC = pc
	return ft
}

// hotStack returns the VM's operand stack with its capacity cut to MaxStack,
// so that the loop's pushes need only one test — room in the slice — to
// respect the depth limit too.
func (vm *VM) hotStack() []Value {
	if s, limit := vm.stack, max(vm.cfg.MaxStack, 0); cap(s) > limit {
		return s[:len(s):limit]
	}
	return vm.stack
}

// loop is the interpreter core. It returns the entry function's return
// value, or a fault annotated with the faulting location.
//
// The loop is two halves. The switch holds a fast path for every instruction
// that loops spend their time in: it works only on loop locals — the current
// frame, its instruction stream and locals, pc, the next fuel-charge pc and
// the operand stack as a slice — takes operands by pointer, writes results in
// place, covers only the common operand kinds (ints everywhere; floats in
// plain arithmetic and ordering; bools in branches; arrays in indexing) and
// calls nothing, so the compiler keeps that state in registers across
// dispatches instead of spilling it around calls. A fast path that applies ends in `continue`; one that does not — another
// operand kind, a zero divisor, an empty or full stack — falls out of the
// switch, as does every instruction without one. What follows the switch is
// the complete, plain implementation: a declined superinstruction first
// steps down to the straight instruction in its head slot (the rest of its
// window still holds the straight translation, already paid for and not a
// block leader, so the window simply runs unfused and faults at its own
// pcs), and then vm.step executes that one instruction on the VM's own
// state. Only step grows the stack's backing array, so vm.stack and the
// loop-local slice always share it; they differ in length, and vm.stack's is
// brought up to date for step alone.
//
// Fuel and stack headroom are verified once per basic block (nextCharge
// tracks the next block leader). In a straight stream every instruction is
// its own block, which is per-instruction charging. In a fused stream, a
// block whose margin cannot be verified deoptimizes the VM to the straight
// stream at the block leader, which reproduces the reference fault exactly.
func (vm *VM) loop() (Value, *Fault) {
	f := &vm.frames[len(vm.frames)-1]
	code, fused := vm.stream(f.fn)
	pc := f.pc
	nextCharge := pc
	stack, locals := vm.hotStack(), f.locals
	maxStack := vm.cfg.MaxStack

	const cancelPollMask = 4095 // poll Cancel every 4096 dispatches
	var steps uint64
next:
	for {
		steps++
		if steps&cancelPollMask == 0 && vm.cfg.Cancel != nil && vm.cfg.Cancel.Load() {
			return Value{}, faultAt(newFault(FaultCancelled, "execution cancelled by host"), f, pc)
		}
		if uint(pc) < uint(len(code)) {
			oi := &code[pc]
			if pc == nextCharge {
				if vm.fuel < uint64(oi.blockFuel) || len(stack)+int(oi.blockGrow) > maxStack {
					if !fused {
						return Value{}, faultAt(newFault(FaultOutOfFuel, "fuel budget %d exhausted", vm.cfg.Fuel), f, pc)
					}
					// Deoptimize: replay this block per-instruction on the
					// straight stream so the inevitable fault lands exactly
					// where the reference interpreter puts it.
					vm.deopt = true
					code, fused = f.fn.fast, false
					continue
				}
				vm.fuel -= uint64(oi.blockFuel)
				nextCharge = int(oi.blockEnd)
			}

			for {
				switch oi.op {
				case OpPushConst:
					if n := len(stack); n < cap(stack) {
						stack = stack[:n+1]
						stack[n].set(&vm.prog.Consts[oi.a])
						pc++
						continue next
					}
				case OpPushInt:
					if n := len(stack); n < cap(stack) {
						stack = stack[:n+1]
						stack[n].setInt(int64(oi.a))
						pc++
						continue next
					}
				case OpLoadLocal:
					if n := len(stack); n < cap(stack) {
						stack = stack[:n+1]
						stack[n].set(&locals[oi.a])
						pc++
						continue next
					}
				case OpStoreLocal:
					if n := len(stack); n > 0 {
						locals[oi.a].set(&stack[n-1])
						stack = stack[:n-1]
						pc++
						continue next
					}
				case OpPop:
					if n := len(stack); n > 0 {
						stack = stack[:n-1]
						pc++
						continue next
					}

				case OpAdd, OpSub, OpMul, OpDiv, OpMod:
					if n := len(stack); n >= 2 {
						x, y := &stack[n-2], &stack[n-1]
						if x.Kind == KindInt && y.Kind == KindInt {
							if r, ok := intArith(oi.op, x.I, y.I); ok {
								x.I = r
								stack = stack[:n-1]
								pc++
								continue next
							}
						} else if x.Kind == KindFloat && y.Kind == KindFloat && oi.op != OpMod {
							x.F = floatArith(oi.op, x.F, y.F)
							stack = stack[:n-1]
							pc++
							continue next
						}
					}
				case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
					if n := len(stack); n >= 2 {
						x, y := &stack[n-2], &stack[n-1]
						if x.Kind == KindInt && y.Kind == KindInt {
							x.setBool(intCmp(oi.op, x.I, y.I))
							stack = stack[:n-1]
							pc++
							continue next
						} else if x.Kind == KindFloat && y.Kind == KindFloat && oi.op >= OpLt {
							x.setBool(floatCmp(oi.op, x.F, y.F))
							stack = stack[:n-1]
							pc++
							continue next
						}
					}
				case OpNot:
					if n := len(stack); n > 0 && stack[n-1].Kind == KindBool {
						stack[n-1].setBool(stack[n-1].I == 0)
						pc++
						continue next
					}

				case OpJump:
					pc = int(oi.a)
					nextCharge = pc
					continue next
				case OpJumpIfFalse, OpJumpIfTrue:
					if n := len(stack); n > 0 && stack[n-1].Kind == KindBool {
						taken := stack[n-1].AsBool() == (oi.op == OpJumpIfTrue)
						stack = stack[:n-1]
						pc++
						if taken {
							pc = int(oi.a)
							nextCharge = pc
						}
						continue next
					}

				case OpIndex:
					if n := len(stack); n >= 2 {
						a, i := &stack[n-2], &stack[n-1]
						if a.Kind == KindArr && i.Kind == KindInt && uint64(i.I) < uint64(len(a.A.Elems)) {
							a.set(&a.A.Elems[i.I])
							stack = stack[:n-1]
							pc++
							continue next
						}
					}
				case OpSetIndex:
					if n := len(stack); n >= 3 {
						a, i := &stack[n-3], &stack[n-2]
						if a.Kind == KindArr && i.Kind == KindInt && uint64(i.I) < uint64(len(a.A.Elems)) {
							a.A.Elems[i.I].set(&stack[n-1])
							stack = stack[:n-3]
							pc++
							continue next
						}
					}

				// ---- superinstructions (fused streams only; operands
				// trusted, stack depth verified at block entry) ----

				case opLocIntArith:
					if x, n := &locals[oi.a], len(stack); x.Kind == KindInt && n < cap(stack) {
						if r, ok := intArith(oi.sub, x.I, int64(oi.b)); ok {
							stack = stack[:n+1]
							stack[n].setInt(r)
							pc += 3
							continue next
						}
					}
				case opLocConstArith:
					x, y, n := &locals[oi.a], &vm.prog.Consts[oi.b], len(stack)
					if x.Kind == KindInt && y.Kind == KindInt && n < cap(stack) {
						if r, ok := intArith(oi.sub, x.I, y.I); ok {
							stack = stack[:n+1]
							stack[n].setInt(r)
							pc += 3
							continue next
						}
					}
				case opLocLocArith:
					x, y, n := &locals[oi.a], &locals[oi.b], len(stack)
					if x.Kind == KindInt && y.Kind == KindInt && n < cap(stack) {
						if r, ok := intArith(oi.sub, x.I, y.I); ok {
							stack = stack[:n+1]
							stack[n].setInt(r)
							pc += 3
							continue next
						}
					}
				case opLocIntArithStore, opLocIntArithStoreJmp:
					if x := &locals[oi.a]; x.Kind == KindInt {
						if r, ok := intArith(oi.sub, x.I, int64(oi.b)); ok {
							locals[oi.c].setInt(r)
							pc += 4
							if oi.op == opLocIntArithStoreJmp {
								pc = int(code[pc].a) // the window's jmp
								nextCharge = pc
							}
							continue next
						}
					}
				case opLocLocIntArith2Store:
					// c = a arith₂ (b arith₁ k): arith₁ is sub; k and arith₂
					// are read from the window's pushi and second arith.
					x, y := &locals[oi.a], &locals[oi.b]
					if x.Kind == KindInt && y.Kind == KindInt {
						if t, ok := intArith(oi.sub, y.I, int64(code[pc+2].a)); ok {
							if r, ok := intArith(code[pc+4].op, x.I, t); ok {
								locals[oi.c].setInt(r)
								pc += 6
								continue next
							}
						}
					}
				case opArithStore:
					if n := len(stack); n >= 2 {
						x, y := &stack[n-2], &stack[n-1]
						if x.Kind == KindInt && y.Kind == KindInt {
							if r, ok := intArith(oi.sub, x.I, y.I); ok {
								locals[oi.a].setInt(r)
								stack = stack[:n-2]
								pc += 2
								continue next
							}
						}
					}

				case opLocIntCmp:
					if x, n := &locals[oi.a], len(stack); x.Kind == KindInt && n < cap(stack) {
						stack = stack[:n+1]
						stack[n].setBool(intCmp(oi.sub, x.I, int64(oi.b)))
						pc += 3
						continue next
					}
				case opLocLocCmp:
					x, y, n := &locals[oi.a], &locals[oi.b], len(stack)
					if x.Kind == KindInt && y.Kind == KindInt && n < cap(stack) {
						stack = stack[:n+1]
						stack[n].setBool(intCmp(oi.sub, x.I, y.I))
						pc += 3
						continue next
					}
				case opCmpBr:
					if n := len(stack); n >= 2 {
						x, y := &stack[n-2], &stack[n-1]
						if x.Kind == KindInt && y.Kind == KindInt {
							stack = stack[:n-2]
							pc += 2
							if intCmp(oi.sub, x.I, y.I) == (oi.flag == 1) {
								pc = int(oi.a)
								nextCharge = pc
							}
							continue next
						}
					}
				case opLocIntCmpBr:
					if x := &locals[oi.a]; x.Kind == KindInt {
						pc += 4
						if intCmp(oi.sub, x.I, int64(oi.b)) == (oi.flag == 1) {
							pc = int(oi.c)
							nextCharge = pc
						}
						continue next
					}
				case opLocLocCmpBr:
					x, y := &locals[oi.a], &locals[oi.b]
					if x.Kind == KindInt && y.Kind == KindInt {
						pc += 4
						if intCmp(oi.sub, x.I, y.I) == (oi.flag == 1) {
							pc = int(oi.c)
							nextCharge = pc
						}
						continue next
					}
				}
				if so := &f.fn.fast[pc]; oi.op != so.op {
					oi = so // a superinstruction declined: run its window unfused
					continue
				}
				break
			}
		}

		vm.stack = stack
		jumped, fault := vm.step(f, pc)
		if fault != nil {
			return Value{}, faultAt(fault, f, pc)
		}
		if len(vm.frames) == 0 {
			return vm.stack[0], nil
		}
		stack = vm.hotStack()
		pc++
		if jumped {
			f = &vm.frames[len(vm.frames)-1]
			code, fused = vm.stream(f.fn)
			locals = f.locals
			pc = f.pc
			nextCharge = pc
		}
	}
}

// step executes the instruction at pc of the current frame f — past the end
// of the code, an implicit ret0 — the plain way, on the VM's own state. It
// is the complete implementation of the wire instruction set (fuel aside,
// which the loop charges) and the only place an instruction faults; the loop
// calls it for whatever its fast paths decline. It reports whether control
// moved: then the frame now on top of vm.frames holds the pc to resume at,
// and when no frame is left the program's result is the one operand on the
// stack.
func (vm *VM) step(f *frame, pc int) (jumped bool, fault *Fault) {
	if pc >= len(f.fn.fast) {
		return true, vm.unwind(Nil())
	}
	switch in := &f.fn.fast[pc]; in.op {
	case OpNop:

	case OpPushConst:
		fault = vm.push(vm.prog.Consts[in.a])
	case OpPushInt:
		fault = vm.push(Int(int64(in.a)))
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
		fault = vm.push(f.locals[in.a])
	case OpStoreLocal:
		var v Value
		if v, fault = vm.pop(); fault == nil {
			f.locals[in.a] = v
		}

	case OpAdd, OpSub, OpMul, OpDiv, OpMod:
		fault = vm.binaryArith(in.op)
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
		fault = vm.compare(in.op)

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
		f.pc = int(in.a)
		return true, nil
	case OpJumpIfFalse, OpJumpIfTrue:
		var v Value
		if v, fault = vm.pop(); fault == nil {
			if v.Kind != KindBool {
				fault = newFault(FaultTypeMismatch, "branch wants a bool, got %s", v.Kind)
			} else if v.AsBool() == (in.op == OpJumpIfTrue) {
				f.pc = int(in.a)
				return true, nil
			}
		}

	case OpCall:
		if len(vm.frames) >= vm.cfg.MaxCall {
			return false, newFault(FaultStackOverflow, "call depth limit %d exceeded", vm.cfg.MaxCall)
		}
		callee := &vm.prog.Funcs[in.a]
		base := len(vm.stack) - callee.NumParams
		if base < 0 {
			return false, newFault(FaultBadProgram, "call %s: %d args on stack, want %d",
				callee.Name, len(vm.stack), callee.NumParams)
		}
		locals := vm.getLocals(callee.NumLocals)
		for i := range vm.stack[base:] {
			locals[i].set(&vm.stack[base+i])
		}
		clear(locals[callee.NumParams:])
		vm.stack = vm.stack[:base]
		f.pc = pc + 1
		vm.frames = append(vm.frames, frame{fn: callee, locals: locals, base: base})
		return true, nil

	case OpCallB:
		id := Builtin(in.a >> 8)
		argc := int(in.a & 0xff)
		spec := lookupBuiltin(id)
		if spec == nil {
			return false, newFault(FaultBadBuiltin, "unknown builtin %d", int(id))
		}
		if argc != spec.arity {
			return false, newFault(FaultBadBuiltin, "%s wants %d args, got %d", spec.name, spec.arity, argc)
		}
		if len(vm.stack) < argc {
			return false, newFault(FaultBadProgram, "builtin %s: stack underflow", spec.name)
		}
		var ret Value
		if ret, fault = spec.fn(vm, vm.stack[len(vm.stack)-argc:]); fault == nil {
			vm.stack = vm.stack[:len(vm.stack)-argc]
			fault = vm.push(ret)
		}

	case OpReturn:
		if len(vm.stack) == 0 {
			return false, underflowFault()
		}
		return true, vm.unwind(vm.stack[len(vm.stack)-1])
	case OpReturn0:
		return true, vm.unwind(Nil())

	case OpNewArray:
		n := int(in.a)
		if len(vm.stack) < n {
			return false, newFault(FaultBadProgram, "newarr %d: stack underflow", n)
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
			return false, newFault(FaultTypeMismatch, "append wants an arr, got %s", a.Kind)
		}
		if fault = vm.alloc(1); fault != nil {
			break
		}
		a.A.Elems = append(a.A.Elems, v)
		fault = vm.push(a)

	case opIllegal:
		fault = newFault(FaultBadProgram, "illegal opcode %d", uint8(in.a))
	default:
		fault = newFault(FaultBadProgram, "illegal opcode %d", uint8(in.op))
	}
	return false, fault
}

// unwind pops the current frame, truncates the operand stack to the frame's
// base, recycles the frame's locals, and pushes ret for the caller. When the
// last frame returns, ret is the program result and is left as the only
// operand, whatever the depth limit.
func (vm *VM) unwind(ret Value) *Fault {
	fr := vm.frames[len(vm.frames)-1]
	vm.frames = vm.frames[:len(vm.frames)-1]
	vm.stack = vm.stack[:fr.base]
	if cap(fr.locals) > 0 {
		vm.localsPool = append(vm.localsPool, fr.locals)
	}
	if len(vm.frames) == 0 {
		vm.stack = append(vm.stack, ret)
		return nil
	}
	return vm.push(ret)
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

// intArith evaluates an int/int arithmetic op. ok is false for a zero
// divisor, which is left to arithVals and its fault. Go defines
// MinInt64 / -1 (= MinInt64) and MinInt64 % -1 (= 0), so nothing else traps.
func intArith(op Op, a, b int64) (r int64, ok bool) {
	switch op {
	case OpAdd:
		return a + b, true
	case OpSub:
		return a - b, true
	case OpMul:
		return a * b, true
	case OpDiv:
		if b != 0 {
			return a / b, true
		}
	case OpMod:
		if b != 0 {
			return a % b, true
		}
	}
	return 0, false
}

// floatArith evaluates a float/float add, sub, mul or div, IEEE semantics.
func floatArith(op Op, a, b float64) float64 {
	switch op {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	default:
		return a / b
	}
}

// floatCmp evaluates a float/float ordering the way cmpVals does: whatever
// is neither less nor greater — a NaN on either side included — is equal.
func floatCmp(op Op, a, b float64) bool {
	switch op {
	case OpLt:
		return a < b
	case OpLe:
		return !(a > b)
	case OpGt:
		return a > b
	default:
		return !(a < b)
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
