package tvm

import (
	"sync/atomic"
	"testing"
)

// ReuseRun is one execution of a program: the limits and the parameters.
type ReuseRun struct {
	Cfg    Config
	Params []Value
}

// outcome is everything a run lets its caller observe, copied out of the VM.
type outcome struct {
	hash, fuel uint64
	emitted    []Value
	code       FaultCode
	msg, fn    string
	pc         int
	faulted    bool
}

func snapshot(res *Result, err error) outcome {
	if err != nil {
		f, ok := AsFault(err)
		if !ok {
			return outcome{faulted: true, msg: err.Error()}
		}
		return outcome{faulted: true, code: f.Code, msg: f.Msg, fn: f.Func, pc: f.PC}
	}
	return outcome{hash: res.Hash(), fuel: res.FuelUsed, emitted: cloneValues(res.Emitted)}
}

func cloneValues(vs []Value) []Value {
	out := make([]Value, len(vs))
	for i, v := range vs {
		out[i] = v.Clone()
	}
	return out
}

func sameValues(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func (o outcome) same(p outcome) bool {
	return o.faulted == p.faulted && o.hash == p.hash && o.fuel == p.fuel &&
		o.code == p.code && o.msg == p.msg && o.fn == p.fn && o.pc == p.pc &&
		sameValues(o.emitted, p.emitted)
}

// dirtyRuns returns the runs CheckReuse puts in front of a target run: the
// same parameters under another seed and fuel budget, a run that exhausts its
// fuel, one cancelled by its host, and one that faults on nil parameters —
// each of which leaves frames, operands, locals or emitted values behind.
func dirtyRuns(target ReuseRun) []ReuseRun {
	other := target.Cfg
	other.Seed = target.Cfg.Seed*31 + 5
	other.Fuel = target.Cfg.Fuel/2 + 1
	starved := target.Cfg
	starved.Fuel = 40
	cancelled := target.Cfg
	cancelled.Cancel = &atomic.Bool{}
	cancelled.Cancel.Store(true)
	return []ReuseRun{
		{other, target.Params},
		{starved, target.Params},
		{cancelled, target.Params},
		{other, make([]Value, len(target.Params))},
	}
}

// CheckReuse asserts that target has the same outcome — result hash, fuel
// used, emitted values, fault code, message and location — on a fresh VM, on
// a VM that ran each of dirtyRuns before it, and on one VM that ran all of
// them in turn, and that the Emitted slice an earlier run returned is left
// alone by the runs that follow it.
func CheckReuse(t *testing.T, prog *Program, target ReuseRun) {
	t.Helper()
	want := snapshot(New(prog, target.Cfg).Run(target.Params...))

	// emittedBy runs r on vm and returns the Emitted slice the caller of a
	// provider would still be holding (nil when the run faulted).
	emittedBy := func(vm *VM, r ReuseRun) []Value {
		if res, err := vm.Run(r.Params...); err == nil {
			return res.Emitted
		}
		return nil
	}
	// retarget re-arms vm for target while the caller holds the previous
	// run's Emitted slice, and returns the slice the target run emitted.
	retarget := func(label string, vm *VM, held []Value) []Value {
		t.Helper()
		heldWant := cloneValues(held)
		vm.Reset(target.Cfg)
		res, err := vm.Run(target.Params...)
		if got := snapshot(res, err); !got.same(want) {
			t.Fatalf("%s: reused VM diverged from a fresh one:\n got %+v\nwant %+v", label, got, want)
		}
		if !sameValues(held, heldWant) {
			t.Fatalf("%s: the previous run's Emitted slice was overwritten", label)
		}
		if err != nil {
			return nil
		}
		return res.Emitted
	}

	chain := New(prog, target.Cfg)
	var chainHeld []Value
	for _, d := range dirtyRuns(target) {
		vm := New(prog, d.Cfg)
		held := retarget("after one dirty run", vm, emittedBy(vm, d))
		retarget("after its own target run", vm, held)

		chain.Reset(d.Cfg)
		chainHeld = emittedBy(chain, d)
	}
	retarget("after every dirty run in turn", chain, chainHeld)
}
