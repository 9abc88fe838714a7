package wire

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/tvm"
)

// ProtocolVersion is bumped on any incompatible change to the message
// vocabulary; Hello carries it and the broker rejects mismatches. Version 3
// has one session shape per role (every field is fixed, no frame has an
// optional tail, and no peer advertises capabilities) and one frame per
// per-attempt operation: assigns, attempt results and result pushes always
// travel as their batch frames.
const ProtocolVersion = 3

// Flag bits carried in the flags byte of SubmitJob and Assign entries.
const (
	// flagNoCache marks a tasklet/attempt excluded from result memoization.
	flagNoCache = 1 << 0
)

// MsgType identifies a message on the wire. Values are part of the
// protocol; append only.
type MsgType uint8

// Message types.
const (
	TypeHello MsgType = iota + 1
	TypeWelcome
	TypeError
	TypeRegister
	TypeHeartbeat
	// Types 6, 8 and 11 (assign, attempt_result, result_push) are the
	// batch frames' entry encodings. Since protocol version 3 no peer sends
	// them as frames; the codec still decodes them.
	TypeAssign
	TypeCancelAttempt
	TypeAttemptResult
	TypeSubmitJob
	// Type 10 was job_accepted, retired in protocol version 2: consumers
	// number their own jobs. It stays reserved.
	_
	TypeResultPush
	TypeJobDone
	TypeCancelJob
	TypeBye
	TypeQueryFleet
	TypeFleetInfo
	// Types 17–21 carried the retired broker-to-broker (RolePeer) protocol:
	// shard gossip and tasklet migration. They stay reserved, so a frame of
	// one of them is an unknown type and later types keep their numbers.
	_
	_
	_
	_
	_
	TypeAssignBatch
	TypeAttemptResultBatch
	TypeResultPushBatch
)

// String returns the message-type name for logs.
func (t MsgType) String() string {
	names := map[MsgType]string{
		TypeHello: "hello", TypeWelcome: "welcome", TypeError: "error",
		TypeRegister: "register", TypeHeartbeat: "heartbeat",
		TypeAssign: "assign", TypeCancelAttempt: "cancel_attempt",
		TypeAttemptResult: "attempt_result", TypeSubmitJob: "submit_job",
		TypeResultPush: "result_push", TypeJobDone: "job_done",
		TypeCancelJob: "cancel_job", TypeBye: "bye",
		TypeQueryFleet: "query_fleet", TypeFleetInfo: "fleet_info",
		TypeAssignBatch:        "assign_batch",
		TypeAttemptResultBatch: "attempt_result_batch",
		TypeResultPushBatch:    "result_push_batch",
	}
	if s, ok := names[t]; ok {
		return s
	}
	return fmt.Sprintf("msg(%d)", uint8(t))
}

// Role distinguishes the two client kinds at handshake time.
type Role uint8

// Connection roles.
const (
	RoleConsumer Role = iota + 1
	RoleProvider
	// Role 3 was the retired broker-to-broker (peer) role; it stays
	// reserved, and a broker refuses it as an unknown role.
	_
)

// Message is implemented by every protocol message.
type Message interface {
	Type() MsgType
	encode(e *enc)
	decode(d *dec)
}

// Hello opens every connection.
type Hello struct {
	Version uint16
	Role    Role
	Name    string // free-form client identification for logs
}

// Welcome acknowledges a Hello and assigns the session its ID.
type Welcome struct {
	ID uint64 // ProviderID or ConsumerID depending on role
}

// ErrorMsg reports a protocol or application error; the broker closes the
// connection after sending one for fatal conditions.
type ErrorMsg struct {
	Code uint16
	Msg  string

	// Job names the refused submission on a job-level error; zero on
	// session-level errors (job IDs are never zero).
	Job core.JobID
}

// Error codes.
const (
	ErrCodeProtocol   = 1 // malformed or unexpected message
	ErrCodeVersion    = 2 // version mismatch
	ErrCodeBadJob     = 3 // job validation failed
	ErrCodeOverloaded = 4 // broker queue full
)

// Register announces a provider's capacity; sent once after Welcome.
type Register struct {
	Slots int
	Class core.DeviceClass
	Speed float64 // self-measured mega-ops/sec (see internal/speedbench)

	// Queue is how many queued places the provider holds beyond its Slots,
	// so it admits Slots+Queue attempts at once.
	Queue int
}

// Heartbeat is sent periodically by providers; the broker marks providers
// dead after missing several.
type Heartbeat struct {
	FreeSlots int
}

// Assign is one execution attempt for a provider: an AssignBatch entry.
// Program names a program in its batch's table, which carries the bytes.
type Assign struct {
	Attempt core.AttemptID
	Tasklet core.TaskletID
	Program core.ProgramID
	Params  []tvm.Value
	Fuel    uint64
	Seed    uint64

	// NoCache is the flags byte's no-cache bit. Brokers do not set it and
	// providers ignore it, since providers cache no results.
	NoCache bool
}

// CancelAttempt asks a provider to abort a running attempt (job cancelled
// or QoC already satisfied). Best-effort.
type CancelAttempt struct {
	Attempt core.AttemptID
}

// AttemptResult reports an attempt outcome from provider to broker: an
// AttemptResultBatch entry.
type AttemptResult struct {
	Attempt   core.AttemptID
	Tasklet   core.TaskletID
	Status    core.ResultStatus
	Return    tvm.Value
	Emitted   []tvm.Value
	FaultCode tvm.FaultCode
	FaultMsg  string
	FuelUsed  uint64
	ExecNanos int64
}

// SubmitJob submits a batch of tasklets sharing one program and QoC.
type SubmitJob struct {
	Program []byte
	Params  [][]tvm.Value
	QoC     core.QoC
	Fuel    uint64
	Seed    uint64
}

// ResultPush delivers one completed tasklet's final result to the consumer:
// a ResultPushBatch entry.
type ResultPush struct {
	Job       core.JobID
	Tasklet   core.TaskletID
	Index     int
	Status    core.ResultStatus
	Return    tvm.Value
	Emitted   []tvm.Value
	FaultCode tvm.FaultCode
	FaultMsg  string
	Provider  core.ProviderID
	Attempts  int
	ExecNanos int64
}

// JobDone signals that every tasklet of a job reached a final state.
type JobDone struct {
	Job       core.JobID
	Completed int
	Failed    int
}

// CancelJob asks the broker to abandon a job's outstanding tasklets.
type CancelJob struct {
	Job core.JobID
}

// Bye announces a graceful disconnect.
type Bye struct{}

// QueryFleet asks the broker for the current provider directory (resource
// discovery as seen by applications).
type QueryFleet struct{}

// ProviderEntry is one directory row in a FleetInfo reply.
type ProviderEntry struct {
	ID          core.ProviderID
	Class       core.DeviceClass
	Slots       int
	FreeSlots   int
	Speed       float64
	Reliability float64
	Executed    int64 // attempts finished on this provider
}

// FleetInfo is the broker's reply to QueryFleet.
type FleetInfo struct {
	Providers []ProviderEntry
	Pending   int // tasklets awaiting placement
}

// Interface compliance.
var (
	_ Message = (*Hello)(nil)
	_ Message = (*Welcome)(nil)
	_ Message = (*ErrorMsg)(nil)
	_ Message = (*Register)(nil)
	_ Message = (*Heartbeat)(nil)
	_ Message = (*Assign)(nil)
	_ Message = (*CancelAttempt)(nil)
	_ Message = (*AttemptResult)(nil)
	_ Message = (*SubmitJob)(nil)
	_ Message = (*ResultPush)(nil)
	_ Message = (*JobDone)(nil)
	_ Message = (*CancelJob)(nil)
	_ Message = (*Bye)(nil)
	_ Message = (*QueryFleet)(nil)
	_ Message = (*FleetInfo)(nil)
)

// Type implementations.

func (*Hello) Type() MsgType         { return TypeHello }
func (*Welcome) Type() MsgType       { return TypeWelcome }
func (*ErrorMsg) Type() MsgType      { return TypeError }
func (*Register) Type() MsgType      { return TypeRegister }
func (*Heartbeat) Type() MsgType     { return TypeHeartbeat }
func (*Assign) Type() MsgType        { return TypeAssign }
func (*CancelAttempt) Type() MsgType { return TypeCancelAttempt }
func (*AttemptResult) Type() MsgType { return TypeAttemptResult }
func (*SubmitJob) Type() MsgType     { return TypeSubmitJob }
func (*ResultPush) Type() MsgType    { return TypeResultPush }
func (*JobDone) Type() MsgType       { return TypeJobDone }
func (*CancelJob) Type() MsgType     { return TypeCancelJob }
func (*Bye) Type() MsgType           { return TypeBye }
func (*QueryFleet) Type() MsgType    { return TypeQueryFleet }
func (*FleetInfo) Type() MsgType     { return TypeFleetInfo }

func (m *Hello) encode(e *enc) {
	e.u16(m.Version)
	e.u8(uint8(m.Role))
	e.str(m.Name)
}

func (m *Hello) decode(d *dec) {
	m.Version = d.u16()
	m.Role = Role(d.u8())
	m.Name = d.str()
}

func (m *Welcome) encode(e *enc) { e.u64(m.ID) }
func (m *Welcome) decode(d *dec) { m.ID = d.u64() }

func (m *ErrorMsg) encode(e *enc) {
	e.u16(m.Code)
	e.str(m.Msg)
	e.u64(uint64(m.Job))
}

func (m *ErrorMsg) decode(d *dec) {
	m.Code = d.u16()
	m.Msg = d.str()
	m.Job = core.JobID(d.u64())
}

func (m *Register) encode(e *enc) {
	e.u32(uint32(m.Slots))
	e.u8(uint8(m.Class))
	e.f64(m.Speed)
	e.u32(uint32(m.Queue))
}

func (m *Register) decode(d *dec) {
	m.Slots = int(d.u32())
	m.Class = core.DeviceClass(d.u8())
	m.Speed = d.f64()
	m.Queue = int(d.u32())
}

func (m *Heartbeat) encode(e *enc) { e.u32(uint32(m.FreeSlots)) }
func (m *Heartbeat) decode(d *dec) { m.FreeSlots = int(d.u32()) }

func (m *Assign) encode(e *enc) {
	e.u64(uint64(m.Attempt))
	e.u64(uint64(m.Tasklet))
	e.u64(uint64(m.Program))
	e.values(m.Params)
	e.u64(m.Fuel)
	e.u64(m.Seed)
	e.u8(flags(m.NoCache))
}

func (m *Assign) decode(d *dec) {
	m.Attempt = core.AttemptID(d.u64())
	m.Tasklet = core.TaskletID(d.u64())
	m.Program = core.ProgramID(d.u64())
	m.Params = d.values()
	m.Fuel = d.u64()
	m.Seed = d.u64()
	m.NoCache = d.u8()&flagNoCache != 0
}

// flags packs the flags byte of SubmitJob and Assign entries.
func flags(noCache bool) uint8 {
	if noCache {
		return flagNoCache
	}
	return 0
}

func (m *CancelAttempt) encode(e *enc) { e.u64(uint64(m.Attempt)) }
func (m *CancelAttempt) decode(d *dec) { m.Attempt = core.AttemptID(d.u64()) }

func (m *AttemptResult) encode(e *enc) {
	e.u64(uint64(m.Attempt))
	e.u64(uint64(m.Tasklet))
	e.u8(uint8(m.Status))
	e.value(m.Return)
	e.values(m.Emitted)
	e.u8(uint8(m.FaultCode))
	e.str(m.FaultMsg)
	e.u64(m.FuelUsed)
	e.i64(m.ExecNanos)
}

func (m *AttemptResult) decode(d *dec) {
	m.Attempt = core.AttemptID(d.u64())
	m.Tasklet = core.TaskletID(d.u64())
	m.Status = core.ResultStatus(d.u8())
	m.Return = d.value()
	m.Emitted = d.values()
	m.FaultCode = tvm.FaultCode(d.u8())
	m.FaultMsg = d.str()
	m.FuelUsed = d.u64()
	m.ExecNanos = d.i64()
}

func (m *SubmitJob) encode(e *enc) {
	e.bytes(m.Program)
	e.u32(uint32(len(m.Params)))
	for _, ps := range m.Params {
		e.values(ps)
	}
	e.u8(uint8(m.QoC.Mode))
	e.u32(uint32(m.QoC.Replicas))
	e.u32(uint32(m.QoC.MaxRetries))
	e.i64(int64(m.QoC.Deadline))
	e.boolv(m.QoC.PreferFast)
	e.boolv(m.QoC.LocalFallback)
	e.u64(m.Fuel)
	e.u64(m.Seed)
	e.u8(flags(m.QoC.NoCache))
}

func (m *SubmitJob) decode(d *dec) {
	m.Program = d.bytesv()
	n := d.u32()
	if d.err == nil && int(n) > d.remaining() {
		d.fail(errShort)
		return
	}
	m.Params = make([][]tvm.Value, 0, n)
	for i := uint32(0); i < n && d.err == nil; i++ {
		m.Params = append(m.Params, d.values())
	}
	m.QoC.Mode = core.QoCMode(d.u8())
	m.QoC.Replicas = int(d.u32())
	m.QoC.MaxRetries = int(d.u32())
	m.QoC.Deadline = time.Duration(d.i64())
	m.QoC.PreferFast = d.boolv()
	m.QoC.LocalFallback = d.boolv()
	m.Fuel = d.u64()
	m.Seed = d.u64()
	m.QoC.NoCache = d.u8()&flagNoCache != 0
}

func (m *ResultPush) encode(e *enc) {
	e.u64(uint64(m.Job))
	e.u64(uint64(m.Tasklet))
	e.u32(uint32(m.Index))
	e.u8(uint8(m.Status))
	e.value(m.Return)
	e.values(m.Emitted)
	e.u8(uint8(m.FaultCode))
	e.str(m.FaultMsg)
	e.u64(uint64(m.Provider))
	e.u32(uint32(m.Attempts))
	e.i64(m.ExecNanos)
}

func (m *ResultPush) decode(d *dec) {
	m.Job = core.JobID(d.u64())
	m.Tasklet = core.TaskletID(d.u64())
	m.Index = int(d.u32())
	m.Status = core.ResultStatus(d.u8())
	m.Return = d.value()
	m.Emitted = d.values()
	m.FaultCode = tvm.FaultCode(d.u8())
	m.FaultMsg = d.str()
	m.Provider = core.ProviderID(d.u64())
	m.Attempts = int(d.u32())
	m.ExecNanos = d.i64()
}

func (m *JobDone) encode(e *enc) {
	e.u64(uint64(m.Job))
	e.u32(uint32(m.Completed))
	e.u32(uint32(m.Failed))
}

func (m *JobDone) decode(d *dec) {
	m.Job = core.JobID(d.u64())
	m.Completed = int(d.u32())
	m.Failed = int(d.u32())
}

func (m *CancelJob) encode(e *enc) { e.u64(uint64(m.Job)) }
func (m *CancelJob) decode(d *dec) { m.Job = core.JobID(d.u64()) }

func (*Bye) encode(*enc) {}
func (*Bye) decode(*dec) {}

func (*QueryFleet) encode(*enc) {}
func (*QueryFleet) decode(*dec) {}

func (m *FleetInfo) encode(e *enc) {
	e.u32(uint32(len(m.Providers)))
	for _, p := range m.Providers {
		e.u64(uint64(p.ID))
		e.u8(uint8(p.Class))
		e.u32(uint32(p.Slots))
		e.u32(uint32(p.FreeSlots))
		e.f64(p.Speed)
		e.f64(p.Reliability)
		e.i64(p.Executed)
	}
	e.u32(uint32(m.Pending))
}

func (m *FleetInfo) decode(d *dec) {
	n := d.u32()
	if d.err == nil && int(n) > d.remaining() {
		d.fail(errShort)
		return
	}
	m.Providers = make([]ProviderEntry, 0, n)
	for i := uint32(0); i < n && d.err == nil; i++ {
		var p ProviderEntry
		p.ID = core.ProviderID(d.u64())
		p.Class = core.DeviceClass(d.u8())
		p.Slots = int(d.u32())
		p.FreeSlots = int(d.u32())
		p.Speed = d.f64()
		p.Reliability = d.f64()
		p.Executed = d.i64()
		m.Providers = append(m.Providers, p)
	}
	m.Pending = int(d.u32())
}

// newMessage allocates the struct for a frame's message type.
func newMessage(t MsgType) (Message, error) {
	switch t {
	case TypeHello:
		return &Hello{}, nil
	case TypeWelcome:
		return &Welcome{}, nil
	case TypeError:
		return &ErrorMsg{}, nil
	case TypeRegister:
		return &Register{}, nil
	case TypeHeartbeat:
		return &Heartbeat{}, nil
	case TypeAssign:
		return &Assign{}, nil
	case TypeCancelAttempt:
		return &CancelAttempt{}, nil
	case TypeAttemptResult:
		return &AttemptResult{}, nil
	case TypeSubmitJob:
		return &SubmitJob{}, nil
	case TypeResultPush:
		return &ResultPush{}, nil
	case TypeJobDone:
		return &JobDone{}, nil
	case TypeCancelJob:
		return &CancelJob{}, nil
	case TypeBye:
		return &Bye{}, nil
	case TypeQueryFleet:
		return &QueryFleet{}, nil
	case TypeFleetInfo:
		return &FleetInfo{}, nil
	case TypeAssignBatch:
		return &AssignBatch{}, nil
	case TypeAttemptResultBatch:
		return &AttemptResultBatch{}, nil
	case TypeResultPushBatch:
		return &ResultPushBatch{}, nil
	default:
		return nil, fmt.Errorf("wire: unknown message type %d", uint8(t))
	}
}
