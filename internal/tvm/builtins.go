package tvm

import (
	"math"
	"strconv"
	"strings"
)

// Builtin identifies a host function callable from bytecode via OpCallB.
// IDs are part of the wire format; append only.
type Builtin uint16

// Builtin IDs.
const (
	BSqrt Builtin = iota + 1
	BPow
	BAbs
	BFloor
	BCeil
	BMin
	BMax
	BSin
	BCos
	BLog
	BExp
	BToInt
	BToFloat
	BToStr
	BOrd
	BChr
	BSubstr
	BSplit
	BLower
	BUpper
	BFind
	BRand
	BRandInt
	BEmit
	BPrint
	BAbort
	BParseInt
	BParseFloat
	BHash
)

// builtinSpec describes one builtin: its TCL-visible name, arity, and
// implementation.
type builtinSpec struct {
	name  string
	arity int
	fn    func(vm *VM, args []Value) (Value, *Fault)
}

// builtinTable is the single source of truth for builtins, indexed by ID; the
// compiler resolves names against BuiltinByName, the VM dispatches through
// it, and Program.Validate checks OpCallB ids against it. IDs are small and
// append-only, so the table is dense: slot 0 and any gap hold the zero spec
// (nil fn), which lookupBuiltin reports as an unknown builtin.
var builtinTable = []builtinSpec{
	BSqrt:  {"sqrt", 1, func(_ *VM, a []Value) (Value, *Fault) { return float1(a[0], math.Sqrt) }},
	BSin:   {"sin", 1, func(_ *VM, a []Value) (Value, *Fault) { return float1(a[0], math.Sin) }},
	BCos:   {"cos", 1, func(_ *VM, a []Value) (Value, *Fault) { return float1(a[0], math.Cos) }},
	BLog:   {"log", 1, func(_ *VM, a []Value) (Value, *Fault) { return float1(a[0], math.Log) }},
	BExp:   {"exp", 1, func(_ *VM, a []Value) (Value, *Fault) { return float1(a[0], math.Exp) }},
	BFloor: {"floor", 1, func(_ *VM, a []Value) (Value, *Fault) { return float1(a[0], math.Floor) }},
	BCeil:  {"ceil", 1, func(_ *VM, a []Value) (Value, *Fault) { return float1(a[0], math.Ceil) }},
	BPow: {"pow", 2, func(_ *VM, a []Value) (Value, *Fault) {
		x, y := a[0], a[1]
		if !isNum(x) || !isNum(y) {
			return Value{}, newFault(FaultTypeMismatch, "pow wants numbers, got %s, %s", x.Kind, y.Kind)
		}
		return Float(math.Pow(x.AsFloat(), y.AsFloat())), nil
	}},
	BAbs: {"abs", 1, func(_ *VM, a []Value) (Value, *Fault) {
		switch a[0].Kind {
		case KindInt:
			v := a[0].I
			if v < 0 {
				v = -v
			}
			return Int(v), nil
		case KindFloat:
			return Float(math.Abs(a[0].F)), nil
		}
		return Value{}, newFault(FaultTypeMismatch, "abs wants a number, got %s", a[0].Kind)
	}},
	BMin: {"min", 2, func(_ *VM, a []Value) (Value, *Fault) { return minmax(a[0], a[1], true) }},
	BMax: {"max", 2, func(_ *VM, a []Value) (Value, *Fault) { return minmax(a[0], a[1], false) }},
	BToInt: {"int", 1, func(_ *VM, a []Value) (Value, *Fault) {
		switch a[0].Kind {
		case KindInt:
			return a[0], nil
		case KindFloat:
			return Int(int64(a[0].F)), nil
		case KindBool:
			return Int(a[0].I), nil
		}
		return Value{}, newFault(FaultTypeMismatch, "int() cannot convert %s", a[0].Kind)
	}},
	BToFloat: {"float", 1, func(_ *VM, a []Value) (Value, *Fault) {
		switch a[0].Kind {
		case KindInt:
			return Float(float64(a[0].I)), nil
		case KindFloat:
			return a[0], nil
		}
		return Value{}, newFault(FaultTypeMismatch, "float() cannot convert %s", a[0].Kind)
	}},
	BToStr: {"str", 1, func(_ *VM, a []Value) (Value, *Fault) {
		if a[0].Kind == KindStr {
			return a[0], nil
		}
		return Str(a[0].String()), nil
	}},
	BOrd: {"ord", 1, func(_ *VM, a []Value) (Value, *Fault) {
		if a[0].Kind != KindStr || len(a[0].S) == 0 {
			return Value{}, newFault(FaultTypeMismatch, "ord wants a non-empty str")
		}
		return Int(int64(a[0].S[0])), nil
	}},
	BChr: {"chr", 1, func(_ *VM, a []Value) (Value, *Fault) {
		if a[0].Kind != KindInt || a[0].I < 0 || a[0].I > 255 {
			return Value{}, newFault(FaultTypeMismatch, "chr wants an int in [0,255]")
		}
		return Str(string([]byte{byte(a[0].I)})), nil
	}},
	BSubstr: {"substr", 3, func(_ *VM, a []Value) (Value, *Fault) {
		if a[0].Kind != KindStr || a[1].Kind != KindInt || a[2].Kind != KindInt {
			return Value{}, newFault(FaultTypeMismatch, "substr wants (str, int, int)")
		}
		s, lo, hi := a[0].S, a[1].I, a[2].I
		if lo < 0 || hi < lo || hi > int64(len(s)) {
			return Value{}, newFault(FaultIndexRange, "substr bounds [%d:%d] on len %d", lo, hi, len(s))
		}
		return Str(s[lo:hi]), nil
	}},
	BSplit: {"split", 2, func(vm *VM, a []Value) (Value, *Fault) {
		if a[0].Kind != KindStr || a[1].Kind != KindStr {
			return Value{}, newFault(FaultTypeMismatch, "split wants (str, str)")
		}
		var parts []string
		if a[1].S == "" {
			parts = strings.Fields(a[0].S)
		} else {
			parts = strings.Split(a[0].S, a[1].S)
		}
		if f := vm.alloc(len(parts)); f != nil {
			return Value{}, f
		}
		elems := make([]Value, len(parts))
		for i, p := range parts {
			elems[i] = Str(p)
		}
		return Value{Kind: KindArr, A: &Array{Elems: elems}}, nil
	}},
	BLower: {"lower", 1, func(_ *VM, a []Value) (Value, *Fault) { return strCase(a[0], strings.ToLower) }},
	BUpper: {"upper", 1, func(_ *VM, a []Value) (Value, *Fault) { return strCase(a[0], strings.ToUpper) }},
	BFind: {"find", 2, func(_ *VM, a []Value) (Value, *Fault) {
		if a[0].Kind != KindStr || a[1].Kind != KindStr {
			return Value{}, newFault(FaultTypeMismatch, "find wants (str, str)")
		}
		return Int(int64(strings.Index(a[0].S, a[1].S))), nil
	}},
	BRand: {"rand", 0, func(vm *VM, _ []Value) (Value, *Fault) {
		// 53 random mantissa bits, uniform in [0, 1).
		return Float(float64(vm.nextRand()>>11) / (1 << 53)), nil
	}},
	BRandInt: {"randint", 1, func(vm *VM, a []Value) (Value, *Fault) {
		if a[0].Kind != KindInt || a[0].I <= 0 {
			return Value{}, newFault(FaultTypeMismatch, "randint wants a positive int")
		}
		return Int(int64(vm.nextRand() % uint64(a[0].I))), nil
	}},
	BEmit: {"emit", 1, func(vm *VM, a []Value) (Value, *Fault) {
		if len(vm.emitted) >= vm.cfg.MaxEmit {
			return Value{}, newFault(FaultOutOfMemory, "emit limit %d exceeded", vm.cfg.MaxEmit)
		}
		vm.emitted = append(vm.emitted, a[0].Clone())
		return Nil(), nil
	}},
	BPrint: {"print", 1, func(vm *VM, a []Value) (Value, *Fault) {
		if len(vm.printed) < vm.cfg.MaxPrint {
			s := a[0].S
			if a[0].Kind != KindStr {
				s = a[0].String()
			}
			vm.printed = append(vm.printed, s)
		}
		return Nil(), nil
	}},
	BAbort: {"abort", 1, func(_ *VM, a []Value) (Value, *Fault) {
		msg := a[0].S
		if a[0].Kind != KindStr {
			msg = a[0].String()
		}
		return Value{}, newFault(FaultUserAbort, "%s", msg)
	}},
	BParseInt: {"parseint", 1, func(_ *VM, a []Value) (Value, *Fault) {
		if a[0].Kind != KindStr {
			return Value{}, newFault(FaultTypeMismatch, "parseint wants a str")
		}
		n, err := strconv.ParseInt(strings.TrimSpace(a[0].S), 10, 64)
		if err != nil {
			return Value{}, newFault(FaultTypeMismatch, "parseint: %q is not an int", a[0].S)
		}
		return Int(n), nil
	}},
	BParseFloat: {"parsefloat", 1, func(_ *VM, a []Value) (Value, *Fault) {
		if a[0].Kind != KindStr {
			return Value{}, newFault(FaultTypeMismatch, "parsefloat wants a str")
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(a[0].S), 64)
		if err != nil {
			return Value{}, newFault(FaultTypeMismatch, "parsefloat: %q is not a float", a[0].S)
		}
		return Float(f), nil
	}},
	BHash: {"hash", 1, func(_ *VM, a []Value) (Value, *Fault) {
		return Int(int64(HashValue(a[0]))), nil
	}},
}

// lookupBuiltin returns the spec of a known builtin, or nil.
func lookupBuiltin(b Builtin) *builtinSpec {
	if int(b) < len(builtinTable) && builtinTable[b].fn != nil {
		return &builtinTable[b]
	}
	return nil
}

// builtinsByName maps TCL names to IDs, derived from builtinTable.
var builtinsByName = func() map[string]Builtin {
	m := make(map[string]Builtin, len(builtinTable))
	for id := range builtinTable {
		if spec := lookupBuiltin(Builtin(id)); spec != nil {
			m[spec.name] = Builtin(id)
		}
	}
	return m
}()

// String returns the TCL-visible name of the builtin.
func (b Builtin) String() string {
	if spec := lookupBuiltin(b); spec != nil {
		return spec.name
	}
	return "builtin(" + strconv.Itoa(int(b)) + ")"
}

// BuiltinByName resolves a TCL builtin name. Used by the compiler.
func BuiltinByName(name string) (Builtin, bool) {
	b, ok := builtinsByName[name]
	return b, ok
}

// BuiltinArity returns the declared arity of a builtin.
func BuiltinArity(b Builtin) (int, bool) {
	spec := lookupBuiltin(b)
	if spec == nil {
		return 0, false
	}
	return spec.arity, true
}

// BuiltinNames returns all TCL builtin names (unordered). Used by docs and
// compiler tests.
func BuiltinNames() []string {
	names := make([]string, 0, len(builtinsByName))
	for name := range builtinsByName {
		names = append(names, name)
	}
	return names
}

func float1(v Value, f func(float64) float64) (Value, *Fault) {
	if !isNum(v) {
		return Value{}, newFault(FaultTypeMismatch, "math builtin wants a number, got %s", v.Kind)
	}
	return Float(f(v.AsFloat())), nil
}

func strCase(v Value, f func(string) string) (Value, *Fault) {
	if v.Kind != KindStr {
		return Value{}, newFault(FaultTypeMismatch, "string builtin wants a str, got %s", v.Kind)
	}
	return Str(f(v.S)), nil
}

func isNum(v Value) bool { return v.Kind == KindInt || v.Kind == KindFloat }

func minmax(a, b Value, min bool) (Value, *Fault) {
	if !isNum(a) || !isNum(b) {
		return Value{}, newFault(FaultTypeMismatch, "min/max want numbers, got %s, %s", a.Kind, b.Kind)
	}
	if a.Kind == KindInt && b.Kind == KindInt {
		if (a.I < b.I) == min {
			return a, nil
		}
		return b, nil
	}
	if (a.AsFloat() < b.AsFloat()) == min {
		return a, nil
	}
	return b, nil
}

// HashValue computes a deterministic 64-bit FNV-1a style hash over a value's
// structure. The QoC engine uses it to compare results from redundant
// executions without shipping full results between graders.
func HashValue(v Value) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(b byte) { h = (h ^ uint64(b)) * prime }
	mix64 := func(x uint64) {
		for i := 0; i < 8; i++ {
			mix(byte(x >> (8 * i)))
		}
	}
	var walk func(v Value)
	walk = func(v Value) {
		mix(byte(v.Kind))
		switch v.Kind {
		case KindInt, KindBool:
			mix64(uint64(v.I))
		case KindFloat:
			mix64(math.Float64bits(v.F))
		case KindStr:
			mix64(uint64(len(v.S)))
			for i := 0; i < len(v.S); i++ {
				mix(v.S[i])
			}
		case KindArr:
			mix64(uint64(len(v.A.Elems)))
			for _, e := range v.A.Elems {
				walk(e)
			}
		}
	}
	walk(v)
	return h
}

// HashValues hashes a sequence of values, order-sensitively.
func HashValues(vs []Value) uint64 {
	return hashFold(17, vs)
}

// HashResult hashes a run's semantically relevant outputs: it is HashValues
// over the return value followed by the emitted values, without building
// that sequence.
func HashResult(ret Value, emitted []Value) uint64 {
	return hashFold(17*31+HashValue(ret), emitted)
}

func hashFold(h uint64, vs []Value) uint64 {
	for _, v := range vs {
		h = h*31 + HashValue(v)
	}
	return h
}
