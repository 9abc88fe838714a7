package tvm

import (
	"math"
	"sort"
	"strings"
	"testing"
)

// callBuiltin runs a one-instruction program that applies the builtin to the
// given constant arguments and returns its value.
func callBuiltin(t *testing.T, b Builtin, args ...Value) (Value, error) {
	t.Helper()
	code := make([]Instr, 0, len(args)+2)
	for i := range args {
		code = append(code, Instr{OpPushConst, int32(i)})
	}
	code = append(code, Instr{OpCallB, int32(b)<<8 | int32(len(args))}, Instr{OpReturn, 0})
	// Arrays are not legal constants; route them through locals instead.
	var consts []Value
	var pre []Instr
	locals := 0
	for i, a := range args {
		if a.Kind == KindArr {
			t.Fatalf("callBuiltin arg %d: use runBuiltinArr for arrays", i)
		}
		consts = append(consts, a)
	}
	p := prog1(0, locals, consts, append(pre, code...)...)
	if err := p.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	res, err := New(p, DefaultConfig()).Run()
	if err != nil {
		return Value{}, err
	}
	return res.Return, nil
}

func TestMathBuiltins(t *testing.T) {
	tests := []struct {
		name string
		b    Builtin
		args []Value
		want float64
	}{
		{"sqrt", BSqrt, []Value{Float(9)}, 3},
		{"sqrt-int", BSqrt, []Value{Int(16)}, 4},
		{"pow", BPow, []Value{Float(2), Float(10)}, 1024},
		{"floor", BFloor, []Value{Float(2.9)}, 2},
		{"ceil", BCeil, []Value{Float(2.1)}, 3},
		{"sin0", BSin, []Value{Float(0)}, 0},
		{"cos0", BCos, []Value{Float(0)}, 1},
		{"log-e", BLog, []Value{Float(math.E)}, 1},
		{"exp0", BExp, []Value{Float(0)}, 1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := callBuiltin(t, tc.b, tc.args...)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got.AsFloat()-tc.want) > 1e-12 {
				t.Fatalf("= %s, want %v", got, tc.want)
			}
		})
	}
}

func TestAbsMinMax(t *testing.T) {
	if v, _ := callBuiltin(t, BAbs, Int(-5)); v.I != 5 || v.Kind != KindInt {
		t.Fatalf("abs(-5) = %s", v)
	}
	if v, _ := callBuiltin(t, BAbs, Float(-2.5)); v.F != 2.5 {
		t.Fatalf("abs(-2.5) = %s", v)
	}
	if v, _ := callBuiltin(t, BMin, Int(3), Int(7)); v.I != 3 {
		t.Fatalf("min = %s", v)
	}
	if v, _ := callBuiltin(t, BMax, Int(3), Float(7.5)); v.F != 7.5 {
		t.Fatalf("max mixed = %s", v)
	}
}

func TestConversions(t *testing.T) {
	if v, _ := callBuiltin(t, BToInt, Float(3.9)); v.I != 3 {
		t.Fatalf("int(3.9) = %s", v)
	}
	if v, _ := callBuiltin(t, BToInt, Bool(true)); v.I != 1 {
		t.Fatalf("int(true) = %s", v)
	}
	if v, _ := callBuiltin(t, BToFloat, Int(2)); v.F != 2.0 || v.Kind != KindFloat {
		t.Fatalf("float(2) = %s", v)
	}
	if v, _ := callBuiltin(t, BToStr, Int(42)); v.S != "42" {
		t.Fatalf("str(42) = %s", v)
	}
	if v, _ := callBuiltin(t, BToStr, Str("x")); v.S != "x" {
		t.Fatalf("str identity = %s", v)
	}
	if _, err := callBuiltin(t, BToInt, Str("nope")); err == nil {
		t.Fatal("int(str) should fault")
	}
}

func TestStringBuiltins(t *testing.T) {
	if v, _ := callBuiltin(t, BOrd, Str("A")); v.I != 65 {
		t.Fatalf("ord = %s", v)
	}
	if v, _ := callBuiltin(t, BChr, Int(66)); v.S != "B" {
		t.Fatalf("chr = %s", v)
	}
	if v, _ := callBuiltin(t, BSubstr, Str("hello"), Int(1), Int(3)); v.S != "el" {
		t.Fatalf("substr = %s", v)
	}
	if _, err := callBuiltin(t, BSubstr, Str("hi"), Int(1), Int(9)); err == nil {
		t.Fatal("substr out of range should fault")
	}
	if v, _ := callBuiltin(t, BLower, Str("AbC")); v.S != "abc" {
		t.Fatalf("lower = %s", v)
	}
	if v, _ := callBuiltin(t, BUpper, Str("abc")); v.S != "ABC" {
		t.Fatalf("upper = %s", v)
	}
	if v, _ := callBuiltin(t, BFind, Str("banana"), Str("na")); v.I != 2 {
		t.Fatalf("find = %s", v)
	}
	if v, _ := callBuiltin(t, BFind, Str("abc"), Str("z")); v.I != -1 {
		t.Fatalf("find missing = %s", v)
	}
}

func TestSplit(t *testing.T) {
	v, err := callBuiltin(t, BSplit, Str("a,b,,c"), Str(","))
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind != KindArr || len(v.A.Elems) != 4 || v.A.Elems[2].S != "" {
		t.Fatalf("split = %s", v)
	}
	// Empty separator splits on whitespace runs.
	v, err = callBuiltin(t, BSplit, Str("  a\tb  c "), Str(""))
	if err != nil {
		t.Fatal(err)
	}
	if len(v.A.Elems) != 3 || v.A.Elems[0].S != "a" {
		t.Fatalf("split fields = %s", v)
	}
}

func TestParseBuiltins(t *testing.T) {
	if v, _ := callBuiltin(t, BParseInt, Str(" -42 ")); v.I != -42 {
		t.Fatalf("parseint = %s", v)
	}
	if _, err := callBuiltin(t, BParseInt, Str("4.2")); err == nil {
		t.Fatal("parseint non-int should fault")
	}
	if v, _ := callBuiltin(t, BParseFloat, Str("2.5")); v.F != 2.5 {
		t.Fatalf("parsefloat = %s", v)
	}
}

func TestRandIntRange(t *testing.T) {
	p := prog1(0, 0, nil,
		Instr{OpPushInt, 10},
		Instr{OpCallB, int32(BRandInt)<<8 | 1},
		Instr{OpReturn, 0})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed < 50; seed++ {
		cfg := DefaultConfig()
		cfg.Seed = seed
		res, err := New(p, cfg).Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Return.I < 0 || res.Return.I >= 10 {
			t.Fatalf("randint out of range: %s", res.Return)
		}
	}
	if _, err := callBuiltin(t, BRandInt, Int(0)); err == nil {
		t.Fatal("randint(0) should fault")
	}
}

func TestPrintRespectsLimit(t *testing.T) {
	p := prog1(0, 1, []Value{Str("line")},
		// i = 0; while i < 500 { print("line"); i++ }
		Instr{OpPushInt, 0}, Instr{OpStoreLocal, 0},
		Instr{OpLoadLocal, 0}, Instr{OpPushInt, 500}, Instr{OpLt, 0},
		Instr{OpJumpIfFalse, 14},
		Instr{OpPushConst, 0}, Instr{OpCallB, int32(BPrint)<<8 | 1}, Instr{OpPop, 0},
		Instr{OpLoadLocal, 0}, Instr{OpPushInt, 1}, Instr{OpAdd, 0}, Instr{OpStoreLocal, 0},
		Instr{OpJump, 2},
		Instr{OpReturn0, 0},
	)
	res := run(t, p)
	if len(res.Printed) != DefaultConfig().MaxPrint {
		t.Fatalf("printed %d lines, want cap %d", len(res.Printed), DefaultConfig().MaxPrint)
	}
}

func TestEmitLimit(t *testing.T) {
	p := prog1(0, 0, nil,
		Instr{OpPushInt, 1}, Instr{OpCallB, int32(BEmit)<<8 | 1}, Instr{OpPop, 0},
		Instr{OpJump, 0})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxEmit = 10
	cfg.Fuel = 1 << 20
	_, err := New(p, cfg).Run()
	f, ok := AsFault(err)
	if !ok || f.Code != FaultOutOfMemory {
		t.Fatalf("want out_of_memory on emit overflow, got %v", err)
	}
}

func TestHashBuiltinMatchesHashValue(t *testing.T) {
	v, err := callBuiltin(t, BHash, Str("abc"))
	if err != nil {
		t.Fatal(err)
	}
	if uint64(v.I) != HashValue(Str("abc")) {
		t.Fatalf("hash builtin disagrees with HashValue")
	}
}

func TestBuiltinNameResolution(t *testing.T) {
	names := BuiltinNames()
	sort.Strings(names)
	known := 0
	for id := range builtinTable {
		if lookupBuiltin(Builtin(id)) != nil {
			known++
		}
	}
	if len(names) != known || known != int(BHash) {
		t.Fatalf("BuiltinNames returned %d, table has %d known ids of %d", len(names), known, int(BHash))
	}
	if lookupBuiltin(0) != nil || lookupBuiltin(BHash+1) != nil {
		t.Fatal("slot 0 and ids past the table must be unknown builtins")
	}
	for _, n := range names {
		b, ok := BuiltinByName(n)
		if !ok {
			t.Fatalf("BuiltinByName(%q) failed", n)
		}
		if b.String() != n {
			t.Fatalf("name round trip %q -> %q", n, b.String())
		}
		if _, ok := BuiltinArity(b); !ok {
			t.Fatalf("BuiltinArity(%q) failed", n)
		}
	}
	if _, ok := BuiltinByName("no_such_builtin"); ok {
		t.Fatal("resolved a nonexistent builtin")
	}
	if !strings.Contains(Builtin(9999).String(), "9999") {
		t.Fatal("unknown builtin String should include the id")
	}
}

func TestWrongArityFaults(t *testing.T) {
	// sqrt with 2 args: validation passes (id is known) but execution
	// faults with bad_builtin.
	p := prog1(0, 0, []Value{Float(1), Float(2)},
		Instr{OpPushConst, 0}, Instr{OpPushConst, 1},
		Instr{OpCallB, int32(BSqrt)<<8 | 2}, Instr{OpReturn, 0})
	runFault(t, p, FaultBadBuiltin)
}

// TestHashResultMatchesHashValues pins HashResult to the formula it replaced
// — HashValues over the return value followed by the emitted values — on
// hand-picked shapes and on the outcome of every runnable fuzz-corpus
// program, and pins that it does not allocate.
func TestHashResultMatchesHashValues(t *testing.T) {
	old := func(ret Value, emitted []Value) uint64 {
		return HashValues(append([]Value{ret}, emitted...))
	}
	nested := Arr(Int(1), Str("x"), Arr(Float(math.NaN()), Bool(true), Nil()))
	cases := []struct {
		ret     Value
		emitted []Value
	}{
		{Nil(), nil},
		{Int(0), []Value{}},
		{Int(-1), []Value{Int(-1)}},
		{Str(""), []Value{Str(""), Str("a"), Float(0), Float(math.Copysign(0, -1))}},
		{nested, []Value{nested, Arr(), Int(math.MinInt64)}},
	}
	for _, p := range corpusPrograms(t) {
		if res, err := New(p, DefaultConfig()).Run(make([]Value, p.EntryFunc().NumParams)...); err == nil {
			cases = append(cases, struct {
				ret     Value
				emitted []Value
			}{res.Return, res.Emitted})
		}
	}
	for i, tc := range cases {
		if got, want := HashResult(tc.ret, tc.emitted), old(tc.ret, tc.emitted); got != want {
			t.Errorf("case %d (%s, %v): HashResult = %d, the old formula gives %d", i, tc.ret, tc.emitted, got, want)
		}
		res := Result{Return: tc.ret, Emitted: tc.emitted}
		if res.Hash() != old(tc.ret, tc.emitted) {
			t.Errorf("case %d: Result.Hash moved", i)
		}
	}
	big := cases[4]
	if n := testing.AllocsPerRun(100, func() { HashResult(big.ret, big.emitted) }); n != 0 {
		t.Errorf("HashResult allocates %v times per call", n)
	}
}
