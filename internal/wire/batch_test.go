package wire

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/tvm"
)

// TestMsgTypeNumbersPinned pins every frame type's wire number. The protocol
// is append-only: these values may never change, and new frames may only
// extend the tail. 10 (the retired job_accepted) is reserved: no message
// decodes under it. So are 17–21 (see TestUnmarshalUnknownType).
func TestMsgTypeNumbersPinned(t *testing.T) {
	pinned := map[MsgType]uint8{
		TypeHello: 1, TypeWelcome: 2, TypeError: 3,
		TypeRegister: 4, TypeHeartbeat: 5, TypeAssign: 6,
		TypeCancelAttempt: 7, TypeAttemptResult: 8,
		TypeSubmitJob: 9, TypeResultPush: 11,
		TypeJobDone: 12, TypeCancelJob: 13, TypeBye: 14,
		TypeQueryFleet: 15, TypeFleetInfo: 16,
		TypeAssignBatch: 22, TypeAttemptResultBatch: 23, TypeResultPushBatch: 24,
	}
	for mt, want := range pinned {
		if uint8(mt) != want {
			t.Errorf("%s = %d, want %d", mt, uint8(mt), want)
		}
	}
	if m, err := newMessage(10); err == nil {
		t.Errorf("reserved type 10 allocates %T", m)
	}
}

// TestBatchFramesLeaveSingleFramesUntouched pins the entry encodings the
// batch frames are built from: an AttemptResult, ResultPush or Assign
// marshalled today is byte-identical to its payload written by hand from
// the field layout, and a one-entry batch frame is its count followed by
// that payload.
func TestBatchFramesLeaveSingleFramesUntouched(t *testing.T) {
	ar := &AttemptResult{
		Attempt: 9, Tasklet: 8, Status: core.StatusOK,
		Return: tvm.Int(7), Emitted: []tvm.Value{tvm.Str("x")},
		FuelUsed: 42, ExecNanos: 99,
	}
	frame, err := Marshal(ar)
	if err != nil {
		t.Fatal(err)
	}
	var e enc
	e.u64(9)
	e.u64(8)
	e.u8(uint8(core.StatusOK))
	e.value(tvm.Int(7))
	e.values([]tvm.Value{tvm.Str("x")})
	e.u8(0)
	e.str("")
	e.u64(42)
	e.i64(99)
	if !bytes.Equal(frame[5:], e.buf) {
		t.Fatalf("AttemptResult payload drifted:\n got %x\nwant %x", frame[5:], e.buf)
	}

	rp := &ResultPush{
		Job: 3, Tasklet: 8, Index: 17, Status: core.StatusOK,
		Return: tvm.Int(1), Emitted: []tvm.Value{},
		Provider: 2, Attempts: 2, ExecNanos: 7,
	}
	frame, err = Marshal(rp)
	if err != nil {
		t.Fatal(err)
	}
	e = enc{}
	e.u64(3)
	e.u64(8)
	e.u32(17)
	e.u8(uint8(core.StatusOK))
	e.value(tvm.Int(1))
	e.values([]tvm.Value{})
	e.u8(0)
	e.str("")
	e.u64(2)
	e.u32(2)
	e.i64(7)
	if !bytes.Equal(frame[5:], e.buf) {
		t.Fatalf("ResultPush payload drifted:\n got %x\nwant %x", frame[5:], e.buf)
	}
	batch, err := Marshal(&ResultPushBatch{Results: []ResultPush{*rp}})
	if err != nil {
		t.Fatal(err)
	}
	if want := append([]byte{0, 0, 0, 1}, e.buf...); !bytes.Equal(batch[5:], want) {
		t.Fatalf("one-entry ResultPushBatch payload:\n got %x\nwant %x", batch[5:], want)
	}

	as := &Assign{Attempt: 9, Tasklet: 8, Program: 77, Params: []tvm.Value{tvm.Int(1)}, Fuel: 1000, Seed: 5}
	frame, err = Marshal(as)
	if err != nil {
		t.Fatal(err)
	}
	e = enc{}
	e.u64(9)
	e.u64(8)
	e.u64(77)
	e.values([]tvm.Value{tvm.Int(1)})
	e.u64(1000)
	e.u64(5)
	e.u8(0)
	if !bytes.Equal(frame[5:], e.buf) {
		t.Fatalf("Assign payload drifted:\n got %x\nwant %x", frame[5:], e.buf)
	}
}

// TestAssignBatchEntryFlagsMandatory: every batch entry carries the flags
// byte, zero or not, as the last field of its encoding.
func TestAssignBatchEntryFlagsMandatory(t *testing.T) {
	mk := func(noCache bool) []byte {
		frame, err := Marshal(&AssignBatch{Assigns: []Assign{
			{Attempt: 1, Tasklet: 2, Program: 3, Params: []tvm.Value{}, Fuel: 4, Seed: 5, NoCache: noCache},
		}})
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	plain, flagged := mk(false), mk(true)
	if len(plain) != len(flagged) {
		t.Fatalf("flags byte must be mandatory: plain %d bytes, flagged %d", len(plain), len(flagged))
	}
	if plain[len(plain)-1] != 0 || flagged[len(flagged)-1] != flagNoCache {
		t.Fatalf("flags byte = %#x / %#x, want 0 / %#x",
			plain[len(plain)-1], flagged[len(flagged)-1], flagNoCache)
	}
	got, err := Unmarshal(TypeAssignBatch, flagged[5:])
	if err != nil {
		t.Fatal(err)
	}
	if !got.(*AssignBatch).Assigns[0].NoCache {
		t.Fatal("entry NoCache lost in round trip")
	}
}

// TestBatchRejectsHugeCounts: absurd element counts in small buffers must
// fail fast instead of allocating.
func TestBatchRejectsHugeCounts(t *testing.T) {
	var e enc
	e.u32(1 << 31) // program count
	if _, err := Unmarshal(TypeAssignBatch, e.buf); err == nil {
		t.Fatal("absurd program count accepted")
	}
	e = enc{}
	e.u32(1 << 31) // result count
	if _, err := Unmarshal(TypeAttemptResultBatch, e.buf); err == nil {
		t.Fatal("absurd result count accepted")
	}
	e = enc{}
	e.u32(1 << 31)
	if _, err := Unmarshal(TypeResultPushBatch, e.buf); err == nil {
		t.Fatal("absurd push count accepted")
	}
}

func ar(attempt uint64) *AttemptResult {
	return &AttemptResult{
		Attempt: core.AttemptID(attempt), Tasklet: 1, Status: core.StatusOK,
		Return: tvm.Int(int64(attempt)), Emitted: []tvm.Value{},
	}
}

func rp(tasklet uint64) *ResultPush {
	return &ResultPush{
		Job: 1, Tasklet: core.TaskletID(tasklet), Status: core.StatusOK,
		Return: tvm.Int(int64(tasklet)), Emitted: []tvm.Value{},
	}
}

func TestFoldBatchFrames(t *testing.T) {
	hb := &Heartbeat{FreeSlots: 1}

	t.Run("singletons wrap", func(t *testing.T) {
		out := FoldBatchFrames([]Message{ar(1), hb, rp(2)})
		want := []Message{
			&AttemptResultBatch{Results: []AttemptResult{*ar(1)}},
			hb,
			&ResultPushBatch{Results: []ResultPush{*rp(2)}},
		}
		if !sameMessage(want, out) {
			t.Fatalf("lone frames must travel as one-entry batches: %#v", out)
		}
	})

	t.Run("runs fold", func(t *testing.T) {
		out := FoldBatchFrames([]Message{ar(1), ar(2), ar(3), hb, rp(4), rp(5)})
		if len(out) != 3 {
			t.Fatalf("got %d messages, want 3: %#v", len(out), out)
		}
		b1, ok := out[0].(*AttemptResultBatch)
		if !ok || len(b1.Results) != 3 || b1.Results[0].Attempt != 1 || b1.Results[2].Attempt != 3 {
			t.Fatalf("bad result batch: %#v", out[0])
		}
		if out[1] != hb {
			t.Fatalf("interleaved frame moved: %#v", out[1])
		}
		b2, ok := out[2].(*ResultPushBatch)
		if !ok || len(b2.Results) != 2 || b2.Results[0].Tasklet != 4 {
			t.Fatalf("bad push batch: %#v", out[2])
		}
	})

	t.Run("fold preserves content over the wire", func(t *testing.T) {
		in := []Message{ar(7), ar(8)}
		out := FoldBatchFrames(append([]Message(nil), in...))
		frame, err := Marshal(out[0])
		if err != nil {
			t.Fatal(err)
		}
		got, err := Unmarshal(TypeAttemptResultBatch, frame[5:])
		if err != nil {
			t.Fatal(err)
		}
		batch := got.(*AttemptResultBatch)
		for i := range in {
			if !sameMessage(*in[i].(*AttemptResult), batch.Results[i]) {
				t.Fatalf("entry %d mangled:\n in: %#v\nout: %#v", i, in[i], batch.Results[i])
			}
		}
	})
}
