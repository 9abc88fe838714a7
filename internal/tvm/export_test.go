package tvm

// Test-only views of the package's internals, for the tests in package
// tvm_test that need stdtasks (which imports tvm).

// RunReference executes prog by vm.step alone, charging fuel instruction by
// instruction: the interpreter loop with none of its fast paths, fused or
// plain. Whatever the loop does must be indistinguishable from it.
func RunReference(prog *Program, cfg Config, params ...Value) (*Result, error) {
	vm := New(prog, cfg)
	entry := prog.EntryFunc()
	locals := vm.getLocals(entry.NumLocals)
	clear(locals[copy(locals, params):])
	vm.frames = append(vm.frames, frame{fn: entry, locals: locals})
	for {
		f := &vm.frames[len(vm.frames)-1]
		pc := f.pc
		if pc < len(f.fn.fast) {
			cost := fuelCost(f.fn.fast[pc].op)
			if vm.fuel < cost {
				return nil, faultAt(newFault(FaultOutOfFuel, "fuel budget %d exhausted", cfg.Fuel), f, pc)
			}
			vm.fuel -= cost
		}
		jumped, fault := vm.step(f, pc)
		if fault != nil {
			return nil, faultAt(fault, f, pc)
		}
		if len(vm.frames) == 0 {
			return &Result{Return: vm.stack[0], Emitted: vm.emitted, Printed: vm.printed, FuelUsed: cfg.Fuel - vm.fuel}, nil
		}
		if !jumped {
			f.pc = pc + 1
		}
	}
}

// FusedLoopLen returns how many instructions the entry function's fused
// stream dispatches for one trip around its first loop, from the target of
// the first backward jump to that jump. It is 0 for a function without one.
func FusedLoopLen(p *Program) int {
	p.Optimize()
	stream := p.EntryFunc().opt
	for i := 0; i < len(stream); i += int(stream[i].n) {
		target := -1
		switch stream[i].op {
		case OpJump:
			target = int(stream[i].a)
		case opLocIntArithStoreJmp:
			target = int(stream[i+4].a)
		}
		if target < 0 || target > i {
			continue
		}
		n := 0
		for j := target; j <= i; j += int(stream[j].n) {
			n++
		}
		return n
	}
	return 0
}
