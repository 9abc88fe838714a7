package wire

import "repro/internal/core"

// Batch frames carry the per-attempt control plane: the Assigns of one
// placement pass to a provider, the AttemptResults of one flush window back,
// the ResultPushes of one flush window out to a consumer — each as ONE
// frame, one decode, one lock acquisition at the receiver, whether it holds
// one entry or many. Since protocol version 3 they are the only frames for
// these operations; each entry is encoded with its message's codec.

// ProgramBlob carries one program's bytecode inside an AssignBatch. Each
// distinct program a batch needs is shipped at most once, however many
// entries reference it.
type ProgramBlob struct {
	ID   core.ProgramID
	Data []byte
}

// AssignBatch dispatches many execution attempts to one provider in a
// single frame. Program bytes are deduplicated within the frame: entries
// reference programs by ID, and a broker's Programs table holds the
// bytecode of every program its entries use, once each, so the frame needs
// no state from an earlier one. The provider resolves every distinct
// program once per frame, then admits each entry.
// Bytecode travels only in the table.
type AssignBatch struct {
	Programs []ProgramBlob
	Assigns  []Assign
}

// AttemptResultBatch reports many attempt outcomes from provider to broker
// in one frame. The provider's writer loop folds the results that
// accumulated over one flush window; the broker applies the whole batch to
// the lifecycle engine under a single lock acquisition.
type AttemptResultBatch struct {
	Results []AttemptResult
}

// ResultPushBatch delivers many completed tasklets' final results to one
// consumer in a single frame, folded from the broker's per-consumer send
// queue over one writer flush window.
type ResultPushBatch struct {
	Results []ResultPush
}

// Interface compliance.
var (
	_ Message = (*AssignBatch)(nil)
	_ Message = (*AttemptResultBatch)(nil)
	_ Message = (*ResultPushBatch)(nil)
)

func (*AssignBatch) Type() MsgType        { return TypeAssignBatch }
func (*AttemptResultBatch) Type() MsgType { return TypeAttemptResultBatch }
func (*ResultPushBatch) Type() MsgType    { return TypeResultPushBatch }

func (m *AssignBatch) encode(e *enc) {
	e.u32(uint32(len(m.Programs)))
	for _, p := range m.Programs {
		e.u64(uint64(p.ID))
		e.bytes(p.Data)
	}
	e.u32(uint32(len(m.Assigns)))
	for i := range m.Assigns {
		m.Assigns[i].encode(e)
	}
}

func (m *AssignBatch) decode(d *dec) {
	n := d.u32()
	if d.err == nil && int(n) > d.remaining() {
		d.fail(errShort)
		return
	}
	m.Programs = make([]ProgramBlob, 0, n)
	for i := uint32(0); i < n && d.err == nil; i++ {
		var p ProgramBlob
		p.ID = core.ProgramID(d.u64())
		p.Data = d.bytesv()
		m.Programs = append(m.Programs, p)
	}
	n = d.u32()
	if d.err == nil && int(n) > d.remaining() {
		d.fail(errShort)
		return
	}
	m.Assigns = make([]Assign, 0, n)
	for i := uint32(0); i < n && d.err == nil; i++ {
		var a Assign
		a.decode(d)
		m.Assigns = append(m.Assigns, a)
	}
}

func (m *AttemptResultBatch) encode(e *enc) {
	e.u32(uint32(len(m.Results)))
	for i := range m.Results {
		m.Results[i].encode(e)
	}
}

func (m *AttemptResultBatch) decode(d *dec) {
	n := d.u32()
	if d.err == nil && int(n) > d.remaining() {
		d.fail(errShort)
		return
	}
	m.Results = make([]AttemptResult, 0, n)
	for i := uint32(0); i < n && d.err == nil; i++ {
		var r AttemptResult
		r.decode(d)
		m.Results = append(m.Results, r)
	}
}

func (m *ResultPushBatch) encode(e *enc) {
	e.u32(uint32(len(m.Results)))
	for i := range m.Results {
		m.Results[i].encode(e)
	}
}

func (m *ResultPushBatch) decode(d *dec) {
	n := d.u32()
	if d.err == nil && int(n) > d.remaining() {
		d.fail(errShort)
		return
	}
	m.Results = make([]ResultPush, 0, n)
	for i := uint32(0); i < n && d.err == nil; i++ {
		var r ResultPush
		r.decode(d)
		m.Results = append(m.Results, r)
	}
}
