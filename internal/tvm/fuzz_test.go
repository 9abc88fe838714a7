package tvm

import "testing"

// FuzzProgramUnmarshal checks that arbitrary bytes never panic the program
// decoder, and that anything it accepts validates and can be executed (with
// synthesized zero-value parameters) under tight limits without panicking.
func FuzzProgramUnmarshal(f *testing.F) {
	seed, err := sampleProgram().MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(programMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Program
		if err := p.UnmarshalBinary(data); err != nil {
			return
		}
		// Decoded implies validated; run it to shake out interpreter
		// assumptions. Zero-value (nil) parameters are legal dynamic
		// values for any kind check. Every accepted program doubles as a
		// differential probe of the load-time optimization pass: the fused
		// and straight streams must agree on every observable outcome, and
		// so must a fresh VM and one re-armed after other runs.
		params := make([]Value, p.EntryFunc().NumParams)
		cfg := Config{
			Fuel: 5_000, MaxStack: 512, MaxCall: 32,
			MaxHeap: 2048, MaxEmit: 32, MaxPrint: 4, Seed: 1,
		}
		runBothModes(t, &p, cfg, params...)
		CheckReuse(t, &p, ReuseRun{Cfg: cfg, Params: params})
	})
}

// FuzzDecodeValue checks the value decoder against arbitrary input.
func FuzzDecodeValue(f *testing.F) {
	for _, v := range []Value{Int(-1), Float(3.14), Str("abc"), Bool(true), Arr(Int(1), Str("x")), Nil()} {
		data, err := AppendValue(nil, v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, n, err := DecodeValue(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("decoder claims %d bytes of %d", n, len(data))
		}
		// Accepted values re-encode and compare equal.
		out, err := AppendValue(nil, v)
		if err != nil {
			t.Fatalf("decoded value does not re-encode: %v", err)
		}
		v2, _, err := DecodeValue(out)
		if err != nil || !v.Equal(v2) {
			t.Fatalf("re-decode mismatch: %s vs %s (%v)", v, v2, err)
		}
	})
}
