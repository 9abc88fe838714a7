package wire

import "testing"

// FuzzUnmarshal checks the protocol decoder never panics and never
// over-reads on arbitrary payloads, for every message type. Messages that
// decode successfully must re-encode (the codec is total on its image).
func FuzzUnmarshal(f *testing.F) {
	for _, m := range allMessages() {
		frame, err := Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(byte(m.Type()), frame[5:])
	}
	// Truncation seeds: every non-empty message one byte short, which must
	// fail to decode, since every field is fixed.
	for _, m := range allMessages() {
		frame, err := Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		if len(frame) > 5 {
			f.Add(byte(m.Type()), frame[5:len(frame)-1])
		}
	}
	f.Add(byte(99), []byte{})
	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		m, err := Unmarshal(MsgType(typ), payload)
		if err != nil {
			return
		}
		if _, err := Marshal(m); err != nil {
			t.Fatalf("decoded %s does not re-encode: %v", m.Type(), err)
		}
	})
}
