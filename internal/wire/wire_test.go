package wire

import (
	"bytes"
	"net"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/tvm"
)

// sameMessage is reflect.DeepEqual, except that tvm.Values compare with
// Value.Equal: a Value holds a string's bytes or an array by untyped pointer,
// which DeepEqual compares by address.
func sameMessage(a, b any) bool { return sameReflect(reflect.ValueOf(a), reflect.ValueOf(b)) }

var valueType = reflect.TypeOf(tvm.Value{})

func sameReflect(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	if a.Type() == valueType {
		return a.Interface().(tvm.Value).Equal(b.Interface().(tvm.Value))
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameReflect(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameReflect(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameReflect(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}

// allMessages returns one populated instance of every message type.
func allMessages() []Message {
	return []Message{
		&Hello{Version: ProtocolVersion, Role: RoleProvider, Name: "node-7"},
		&Hello{Version: ProtocolVersion, Role: RoleConsumer, Name: "app"},
		&Welcome{ID: 42},
		&ErrorMsg{Code: ErrCodeBadJob, Msg: "no such program"},
		&ErrorMsg{Code: ErrCodeBadJob, Msg: "queue limit", Job: 3<<32 | 7},
		&Register{Slots: 4, Class: core.ClassLaptop, Speed: 123.5},
		&Register{Slots: 4, Class: core.ClassLaptop, Speed: 123.5, Queue: 64},
		&Heartbeat{FreeSlots: 2},
		&Assign{
			Attempt: 9, Tasklet: 8, Program: 77,
			Params: []tvm.Value{tvm.Int(1), tvm.Str("x"), tvm.Arr(tvm.Float(2.5))},
			Fuel:   1000, Seed: 5,
		},
		&Assign{
			Attempt: 10, Tasklet: 8, Program: 77,
			Params: []tvm.Value{tvm.Int(2)},
			Fuel:   1, NoCache: true,
		},
		&CancelAttempt{Attempt: 9},
		&AttemptResult{
			Attempt: 9, Tasklet: 8, Status: core.StatusFault,
			Return:    tvm.Nil(),
			Emitted:   []tvm.Value{tvm.Int(3)},
			FaultCode: tvm.FaultOutOfFuel, FaultMsg: "budget exhausted",
			FuelUsed: 999, ExecNanos: 12345,
		},
		&SubmitJob{
			Program: []byte{9, 9, 9},
			Params:  [][]tvm.Value{{tvm.Int(1)}, {tvm.Int(2)}},
			QoC: core.QoC{
				Mode: core.QoCVoting, Replicas: 3, MaxRetries: 2,
				Deadline: 5 * time.Second, PreferFast: true,
			},
			Fuel: 10_000, Seed: 1,
		},
		&SubmitJob{
			Program: []byte{7},
			Params:  [][]tvm.Value{{}},
			QoC:     core.QoC{NoCache: true},
			Fuel:    1, Seed: 2,
		},
		&ResultPush{
			Job: 3, Tasklet: 8, Index: 17, Status: core.StatusOK,
			Return:   tvm.Float(3.14),
			Emitted:  []tvm.Value{tvm.Str("out")},
			Provider: 2, Attempts: 2, ExecNanos: 777,
		},
		&JobDone{Job: 3, Completed: 120, Failed: 8},
		&CancelJob{Job: 3},
		&Bye{},
		&QueryFleet{},
		&FleetInfo{
			Providers: []ProviderEntry{
				{ID: 1, Class: core.ClassServer, Slots: 4, FreeSlots: 2,
					Speed: 200.5, Reliability: 0.95, Executed: 1234},
				{ID: 2, Class: core.ClassMobile, Slots: 1, FreeSlots: 1, Speed: 25},
			},
			Pending: 7,
		},
		// A reserved role decodes intact: refusing it is the broker's job.
		&Hello{Version: ProtocolVersion, Role: Role(3), Name: "reserved-role"},
		&AssignBatch{
			Programs: []ProgramBlob{{ID: 77, Data: []byte{1, 2, 3}}, {ID: 78, Data: []byte{}}},
			Assigns: []Assign{
				{Attempt: 9, Tasklet: 8, Program: 77,
					Params: []tvm.Value{tvm.Int(1), tvm.Str("x")}, Fuel: 1000, Seed: 5},
				{Attempt: 10, Tasklet: 9, Program: 78,
					Params: []tvm.Value{}, Fuel: 1, NoCache: true},
			},
		},
		&AssignBatch{Programs: []ProgramBlob{}, Assigns: []Assign{
			{Attempt: 11, Tasklet: 10, Program: 77, Params: []tvm.Value{tvm.Int(4)}},
		}},
		&AttemptResultBatch{Results: []AttemptResult{
			{Attempt: 9, Tasklet: 8, Status: core.StatusOK,
				Return: tvm.Int(7), Emitted: []tvm.Value{tvm.Str("out")},
				FuelUsed: 42, ExecNanos: 1234},
			{Attempt: 10, Tasklet: 9, Status: core.StatusFault,
				Return: tvm.Nil(), Emitted: []tvm.Value{},
				FaultCode: tvm.FaultOutOfFuel, FaultMsg: "budget exhausted",
				FuelUsed: 999, ExecNanos: 555},
		}},
		&ResultPushBatch{Results: []ResultPush{
			{Job: 3, Tasklet: 8, Index: 17, Status: core.StatusOK,
				Return: tvm.Float(3.14), Emitted: []tvm.Value{tvm.Str("out")},
				Provider: 2, Attempts: 2, ExecNanos: 777},
			{Job: 3, Tasklet: 9, Index: 18, Status: core.StatusFault,
				Return: tvm.Nil(), Emitted: []tvm.Value{},
				FaultCode: tvm.FaultOutOfFuel, FaultMsg: "budget exhausted",
				Provider: 4, Attempts: 1, ExecNanos: 12},
		}},
	}
}

func TestMarshalRoundTripAllTypes(t *testing.T) {
	for _, m := range allMessages() {
		t.Run(m.Type().String(), func(t *testing.T) {
			frame, err := Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			payload := frame[5:]
			got, err := Unmarshal(m.Type(), payload)
			if err != nil {
				t.Fatal(err)
			}
			if !sameMessage(m, got) {
				t.Fatalf("round trip:\n in: %#v\nout: %#v", m, got)
			}
		})
	}
}

func TestUnmarshalRejectsTruncation(t *testing.T) {
	for _, m := range allMessages() {
		frame, err := Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		payload := frame[5:]
		// Every field is fixed: no truncation is a valid frame, including
		// the protocol-1 layouts that lacked the then-optional last field.
		for cut := 1; cut <= len(payload); cut++ {
			if _, err := Unmarshal(m.Type(), payload[:len(payload)-cut]); err == nil {
				// Some prefixes of variable-length messages can decode by
				// coincidence only if every field is length-guarded; any
				// success here is a framing bug.
				t.Fatalf("%s: truncation by %d accepted", m.Type(), cut)
			}
		}
	}
}

// TestRegisterQueueTail: Register's queue is a u32 after the slots, class
// and speed, present whatever its value, and round-trips.
func TestRegisterQueueTail(t *testing.T) {
	for _, queue := range []int{0, 32} {
		frame, err := Marshal(&Register{Slots: 2, Class: core.ClassLaptop, Speed: 9.5, Queue: queue})
		if err != nil {
			t.Fatal(err)
		}
		// 5-byte header, u32 slots, u8 class, f64 speed, u32 queue.
		if len(frame) != 5+4+1+8+4 {
			t.Fatalf("Register with queue %d is %d bytes, want 22", queue, len(frame))
		}
		got, err := Unmarshal(TypeRegister, frame[5:])
		if err != nil {
			t.Fatal(err)
		}
		if r := got.(*Register); r.Queue != queue || r.Slots != 2 || r.Class != core.ClassLaptop || r.Speed != 9.5 {
			t.Fatalf("decode = %+v, want queue %d", r, queue)
		}
	}
}

// TestFlagsTailRoundTrip pins the flag bit assignments on the wire: the
// flags byte is the last byte of SubmitJob and Assign, present when zero.
func TestFlagsTailRoundTrip(t *testing.T) {
	for _, noCache := range []bool{false, true} {
		want := uint8(0)
		if noCache {
			want = flagNoCache
		}
		sj := &SubmitJob{
			Program: []byte{1},
			Params:  [][]tvm.Value{{tvm.Int(1)}},
			QoC:     core.QoC{NoCache: noCache},
			Fuel:    5, Seed: 6,
		}
		frame, err := Marshal(sj)
		if err != nil {
			t.Fatal(err)
		}
		if tail := frame[len(frame)-1]; tail != want {
			t.Fatalf("SubmitJob flags = %#x, want %#x", tail, want)
		}
		got, err := Unmarshal(TypeSubmitJob, frame[5:])
		if err != nil {
			t.Fatal(err)
		}
		if got.(*SubmitJob).QoC.NoCache != noCache {
			t.Fatal("SubmitJob NoCache lost in round trip")
		}

		as := &Assign{Attempt: 1, Tasklet: 2, Program: 3, Fuel: 4, Seed: 5, NoCache: noCache}
		frame, err = Marshal(as)
		if err != nil {
			t.Fatal(err)
		}
		if tail := frame[len(frame)-1]; tail != want {
			t.Fatalf("Assign flags = %#x, want %#x", tail, want)
		}
		got, err = Unmarshal(TypeAssign, frame[5:])
		if err != nil {
			t.Fatal(err)
		}
		if got.(*Assign).NoCache != noCache {
			t.Fatal("Assign NoCache lost in round trip")
		}
	}
}

func TestUnmarshalRejectsTrailing(t *testing.T) {
	frame, _ := Marshal(&Welcome{ID: 1})
	payload := append(frame[5:], 0xAB)
	if _, err := Unmarshal(TypeWelcome, payload); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestUnmarshalUnknownType: a frame of an unassigned type fails to decode
// as an unknown type, with or without a payload. Types 17–21 carried the
// retired peer protocol and stay reserved, so they are unknown too.
func TestUnmarshalUnknownType(t *testing.T) {
	for _, mt := range []MsgType{17, 18, 19, 20, 21, 250} {
		for _, payload := range [][]byte{nil, make([]byte, 8)} {
			_, err := Unmarshal(mt, payload)
			if err == nil || !strings.Contains(err.Error(), "unknown message type") {
				t.Fatalf("type %d with %d payload bytes: err %v, want unknown message type", mt, len(payload), err)
			}
		}
	}
}

// Property: random byte payloads never panic the decoder.
func TestUnmarshalRobustProperty(t *testing.T) {
	f := func(tByte uint8, payload []byte) bool {
		_, _ = Unmarshal(MsgType(tByte%25), payload)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitJobRejectsHugeParamCount(t *testing.T) {
	// Claiming 2^31 parameter sets in a small buffer must fail fast.
	var e enc
	e.bytes([]byte("prog"))
	e.u32(1 << 31)
	if _, err := Unmarshal(TypeSubmitJob, e.buf); err == nil {
		t.Fatal("absurd param count accepted")
	}
}

func TestConnSendRecv(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	cc, sc := NewConn(client), NewConn(server)

	done := make(chan error, 1)
	go func() {
		for _, m := range allMessages() {
			if err := cc.Send(m); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	for _, want := range allMessages() {
		got, err := sc.Recv()
		if err != nil {
			t.Fatalf("recv %s: %v", want.Type(), err)
		}
		if !sameMessage(want, got) {
			t.Fatalf("over pipe:\n in: %#v\nout: %#v", want, got)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("send: %v", err)
	}
}

func TestConnRecvTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			defer conn.Close()
			time.Sleep(200 * time.Millisecond)
		}
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewConn(nc)
	defer c.Close()
	c.ReadTimeout = 30 * time.Millisecond
	if _, err := c.Recv(); err == nil {
		t.Fatal("expected timeout error")
	}
}

// TestConnClearsHandshakeDeadline pins that a deadline armed by a timed
// Recv does not outlive the timeout: once ReadTimeout is 0, a peer may stay
// silent past the old timeout and the next Recv still succeeds.
func TestConnClearsHandshakeDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const timeout = 50 * time.Millisecond
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		peer := NewConn(nc)
		_ = peer.Send(&Welcome{ID: 1})
		time.Sleep(4 * timeout)
		_ = peer.Send(&Welcome{ID: 2})
		time.Sleep(timeout)
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewConn(nc)
	defer c.Close()
	c.ReadTimeout = timeout
	if _, err := c.Recv(); err != nil {
		t.Fatalf("timed recv: %v", err)
	}
	c.ReadTimeout = 0
	m, err := c.Recv()
	if err != nil {
		t.Fatalf("untimed recv after a timed one: %v", err)
	}
	if w, ok := m.(*Welcome); !ok || w.ID != 2 {
		t.Fatalf("got %#v, want welcome 2", m)
	}
}

func TestConnRejectsOversizedFrame(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go func() {
		hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF, byte(TypeHello)}
		client.Write(hdr)
	}()
	sc := NewConn(server)
	if _, err := sc.Recv(); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestConcurrentSendersInterleaveWholeFrames(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	cc, sc := NewConn(client), NewConn(server)

	const perSender, senders = 50, 4
	for i := 0; i < senders; i++ {
		go func(id int) {
			for j := 0; j < perSender; j++ {
				_ = cc.Send(&Heartbeat{FreeSlots: id})
			}
		}(i)
	}
	counts := map[int]int{}
	for i := 0; i < senders*perSender; i++ {
		m, err := sc.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		hb, ok := m.(*Heartbeat)
		if !ok {
			t.Fatalf("frame corrupted: got %T", m)
		}
		counts[hb.FreeSlots]++
	}
	for i := 0; i < senders; i++ {
		if counts[i] != perSender {
			t.Fatalf("sender %d delivered %d frames, want %d", i, counts[i], perSender)
		}
	}
}

func TestMarshalFrameLayout(t *testing.T) {
	frame, err := Marshal(&Welcome{ID: 0x0102030405060708})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		0, 0, 0, 8, // payload length
		byte(TypeWelcome),
		1, 2, 3, 4, 5, 6, 7, 8,
	}
	if !bytes.Equal(frame, want) {
		t.Fatalf("frame = %x, want %x", frame, want)
	}
}

func TestValueArraysSurviveWire(t *testing.T) {
	nested := tvm.Arr(tvm.Arr(tvm.Int(1), tvm.Int(2)), tvm.Str("deep"), tvm.Nil())
	m := &Assign{Params: []tvm.Value{nested}}
	frame, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(TypeAssign, frame[5:])
	if err != nil {
		t.Fatal(err)
	}
	if !got.(*Assign).Params[0].Equal(nested) {
		t.Fatalf("nested array mangled: %s", got.(*Assign).Params[0])
	}
}
