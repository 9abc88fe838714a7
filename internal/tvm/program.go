package tvm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
)

// FuncProto is one compiled function.
type FuncProto struct {
	Name      string
	NumParams int
	NumLocals int // total local slots, including parameters
	Code      []Instr

	// Executed instruction streams, built by prepare/Optimize (optimize.go).
	// fast is the straight 1:1 translation of Code; opt is the fused
	// fast-path stream. Neither crosses the wire nor affects equality of
	// freshly decoded programs (UnmarshalBinary does not build them).
	fast []optInstr
	opt  []optInstr
}

// Frame-size limits enforced by Validate. They bound the memory one call
// frame can demand (the VM allocates NumLocals values per activation) and
// are far above anything the TCL compiler emits.
const (
	MaxParams = 256
	MaxLocals = 1 << 16
)

// Program is a complete compiled tasklet program: a constant pool and a
// function table. Function index Entry is the entry point; its parameters
// are the tasklet parameters supplied at submission time.
//
// Programs are immutable after construction and safe to share between
// concurrently running VMs.
type Program struct {
	Consts []Value
	Funcs  []FuncProto
	Entry  int

	// Stream-construction state, guarded by prepareMu (optimize.go).
	prepped   bool
	optimized bool
}

// EntryFunc returns the entry-point function.
func (p *Program) EntryFunc() *FuncProto { return &p.Funcs[p.Entry] }

// Validate checks structural invariants that the interpreter relies on:
// indices in range, jump targets within the owning function, locals within
// declared bounds. A program that passes Validate cannot make the
// interpreter read out of bounds (it can still fault at runtime on type or
// range errors).
func (p *Program) Validate() error {
	if len(p.Funcs) == 0 {
		return errors.New("tvm: program has no functions")
	}
	if p.Entry < 0 || p.Entry >= len(p.Funcs) {
		return fmt.Errorf("tvm: entry index %d out of range", p.Entry)
	}
	for _, c := range p.Consts {
		if c.Kind == KindArr || c.Kind == KindNil {
			return fmt.Errorf("tvm: constant pool may hold only scalars, got %s", c.Kind)
		}
	}
	for fi := range p.Funcs {
		f := &p.Funcs[fi]
		if f.NumParams < 0 || f.NumLocals < f.NumParams {
			return fmt.Errorf("tvm: func %s: locals %d < params %d", f.Name, f.NumLocals, f.NumParams)
		}
		// Frame sizes are attacker-controlled wire input; the VM allocates
		// NumLocals values per call, so unbounded frames are an OOM vector.
		if f.NumParams > MaxParams {
			return fmt.Errorf("tvm: func %s: %d params exceeds limit %d", f.Name, f.NumParams, MaxParams)
		}
		if f.NumLocals > MaxLocals {
			return fmt.Errorf("tvm: func %s: %d locals exceeds limit %d", f.Name, f.NumLocals, MaxLocals)
		}
		for pc, in := range f.Code {
			switch in.Op {
			case OpPushConst:
				if int(in.Arg) < 0 || int(in.Arg) >= len(p.Consts) {
					return fmt.Errorf("tvm: func %s pc %d: const index %d out of range", f.Name, pc, in.Arg)
				}
			case OpLoadLocal, OpStoreLocal:
				if int(in.Arg) < 0 || int(in.Arg) >= f.NumLocals {
					return fmt.Errorf("tvm: func %s pc %d: local slot %d out of range", f.Name, pc, in.Arg)
				}
			case OpJump, OpJumpIfFalse, OpJumpIfTrue:
				if int(in.Arg) < 0 || int(in.Arg) > len(f.Code) {
					return fmt.Errorf("tvm: func %s pc %d: jump target %d out of range", f.Name, pc, in.Arg)
				}
			case OpCall:
				if int(in.Arg) < 0 || int(in.Arg) >= len(p.Funcs) {
					return fmt.Errorf("tvm: func %s pc %d: call target %d out of range", f.Name, pc, in.Arg)
				}
			case OpCallB:
				b := Builtin(in.Arg >> 8)
				if lookupBuiltin(b) == nil {
					return fmt.Errorf("tvm: func %s pc %d: unknown builtin %d", f.Name, pc, int(b))
				}
			case OpNewArray:
				if in.Arg < 0 {
					return fmt.Errorf("tvm: func %s pc %d: negative array size", f.Name, pc)
				}
			}
		}
	}
	return nil
}

// Disassemble renders the whole program as readable assembler, used in
// compiler golden tests and debugging.
func (p *Program) Disassemble() string {
	var b strings.Builder
	for fi := range p.Funcs {
		f := &p.Funcs[fi]
		marker := ""
		if fi == p.Entry {
			marker = " (entry)"
		}
		fmt.Fprintf(&b, "func %s/%d locals=%d%s\n", f.Name, f.NumParams, f.NumLocals, marker)
		for pc, in := range f.Code {
			fmt.Fprintf(&b, "  %4d  %s\n", pc, in)
		}
	}
	return b.String()
}

// Wire format for programs:
//
//	magic "TVM1" | u32 nconsts | consts | u32 nfuncs | funcs | u32 entry
//
// Each value: u8 kind | payload. Each func: str name | u32 params |
// u32 locals | u32 ninstr | (u8 op, i32 arg)*.
const programMagic = "TVM1"

// maxProgramSection bounds decoded element counts to keep a malformed or
// hostile program from forcing huge allocations before validation.
const maxProgramSection = 1 << 20

// MarshalBinary encodes the program in the TVM wire format.
func (p *Program) MarshalBinary() ([]byte, error) {
	var b []byte
	b = append(b, programMagic...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(p.Consts)))
	for _, c := range p.Consts {
		var err error
		b, err = appendValue(b, c)
		if err != nil {
			return nil, err
		}
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(p.Funcs)))
	for i := range p.Funcs {
		f := &p.Funcs[i]
		b = appendString(b, f.Name)
		b = binary.BigEndian.AppendUint32(b, uint32(f.NumParams))
		b = binary.BigEndian.AppendUint32(b, uint32(f.NumLocals))
		b = binary.BigEndian.AppendUint32(b, uint32(len(f.Code)))
		for _, in := range f.Code {
			b = append(b, byte(in.Op))
			b = binary.BigEndian.AppendUint32(b, uint32(in.Arg))
		}
	}
	b = binary.BigEndian.AppendUint32(b, uint32(p.Entry))
	return b, nil
}

// UnmarshalBinary decodes a program and validates it.
func (p *Program) UnmarshalBinary(data []byte) error {
	d := &decoder{buf: data}
	magic := d.bytes(4)
	if d.err != nil || string(magic) != programMagic {
		return errors.New("tvm: bad program magic")
	}
	nconsts := d.u32()
	if nconsts > maxProgramSection {
		return errors.New("tvm: constant pool too large")
	}
	consts := make([]Value, 0, nconsts)
	for i := uint32(0); i < nconsts && d.err == nil; i++ {
		consts = append(consts, d.value())
	}
	nfuncs := d.u32()
	if d.err == nil && nfuncs > maxProgramSection {
		return errors.New("tvm: function table too large")
	}
	funcs := make([]FuncProto, 0, nfuncs)
	for i := uint32(0); i < nfuncs && d.err == nil; i++ {
		var f FuncProto
		f.Name = d.str()
		f.NumParams = int(d.u32())
		f.NumLocals = int(d.u32())
		n := d.u32()
		if d.err == nil && n > maxProgramSection {
			return errors.New("tvm: function body too large")
		}
		f.Code = make([]Instr, 0, n)
		for j := uint32(0); j < n && d.err == nil; j++ {
			op := Op(d.u8())
			arg := int32(d.u32())
			f.Code = append(f.Code, Instr{Op: op, Arg: arg})
		}
		funcs = append(funcs, f)
	}
	entry := int(d.u32())
	if d.err != nil {
		return fmt.Errorf("tvm: truncated program: %w", d.err)
	}
	if len(d.buf) != d.off {
		return fmt.Errorf("tvm: %d trailing bytes after program", len(d.buf)-d.off)
	}
	np := Program{Consts: consts, Funcs: funcs, Entry: entry}
	if err := np.Validate(); err != nil {
		return err
	}
	*p = np
	return nil
}

// appendValue encodes a single value. Arrays encode recursively; nil encodes
// as its kind byte alone.
func appendValue(b []byte, v Value) ([]byte, error) {
	b = append(b, byte(v.Kind))
	switch v.Kind {
	case KindNil:
	case KindInt, KindBool:
		b = binary.BigEndian.AppendUint64(b, uint64(v.I))
	case KindFloat:
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(v.F))
	case KindStr:
		b = appendString(b, v.S)
	case KindArr:
		b = binary.BigEndian.AppendUint32(b, uint32(len(v.A.Elems)))
		for _, e := range v.A.Elems {
			var err error
			b, err = appendValue(b, e)
			if err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("tvm: cannot encode value kind %d", v.Kind)
	}
	return b, nil
}

func appendString(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// AppendValue exposes value encoding for the wire package, which ships
// tasklet parameters and results in the same format as program constants.
func AppendValue(b []byte, v Value) ([]byte, error) { return appendValue(b, v) }

// DecodeValue decodes one value from data, returning the value and the
// number of bytes consumed.
func DecodeValue(data []byte) (Value, int, error) {
	d := &decoder{buf: data}
	v := d.value()
	if d.err != nil {
		return Value{}, 0, d.err
	}
	return v, d.off, nil
}

// decoder is a cursor over an encoded buffer with sticky errors.
type decoder struct {
	buf []byte
	off int
	err error
}

var errTruncated = errors.New("unexpected end of input")

func (d *decoder) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.err = errTruncated
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u8() uint8 {
	b := d.bytes(1)
	if d.err != nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u32() uint32 {
	b := d.bytes(4)
	if d.err != nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.bytes(8)
	if d.err != nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (d *decoder) str() string {
	n := d.u32()
	if d.err == nil && int(n) > len(d.buf)-d.off {
		d.err = errTruncated
		return ""
	}
	return string(d.bytes(int(n)))
}

func (d *decoder) value() Value {
	kind := Kind(d.u8())
	if d.err != nil {
		return Value{}
	}
	switch kind {
	case KindNil:
		return Nil()
	case KindInt:
		return Int(int64(d.u64()))
	case KindBool:
		return Bool(d.u64() != 0)
	case KindFloat:
		return Float(math.Float64frombits(d.u64()))
	case KindStr:
		return Str(d.str())
	case KindArr:
		n := d.u32()
		if d.err != nil {
			return Value{}
		}
		// Each element needs at least one byte; reject impossible counts
		// before allocating.
		if int(n) > len(d.buf)-d.off {
			d.err = errTruncated
			return Value{}
		}
		elems := make([]Value, 0, n)
		for i := uint32(0); i < n && d.err == nil; i++ {
			elems = append(elems, d.value())
		}
		return Value{Kind: KindArr, A: &Array{Elems: elems}}
	default:
		d.err = fmt.Errorf("tvm: unknown value kind %d", kind)
		return Value{}
	}
}
