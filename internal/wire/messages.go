package wire

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/tvm"
)

// ProtocolVersion is bumped on any incompatible change to the message
// vocabulary; Hello carries it and the broker rejects mismatches.
//
// Compatible extensions do NOT bump the version. Hello, SubmitJob and
// Assign grew an *optional tail*: one trailing byte appended after every
// fixed field (capability bits on Hello, flag bits on SubmitJob/Assign).
// Decoders read it only when bytes remain, and encoders emit it only when
// it is non-zero, so default frames stay byte-identical to the previous
// revision in both directions: old-format frames decode with all bits
// false, and new frames without set bits decode on old peers whose strict
// finish() rejects trailing bytes. A set bit can only reach a peer that
// can decode it: client->broker messages may always carry a tail (the
// broker is at least as new as its clients), while broker->client
// messages may carry one only to peers that advertised CapFlagsTail in
// their Hello (brokers currently set no Assign flag at all). Future compatible
// additions must follow the same append-only, capability-gated
// discipline.
const ProtocolVersion = 1

// Capability bits carried in the optional tail of Hello. They declare
// which compatible protocol extensions the sender can decode, letting the
// broker tailor its frames per peer.
const (
	// CapFlagsTail: the sender decodes the optional flags tail on
	// broker-originated messages (Assign).
	CapFlagsTail uint8 = 1 << 0
	// CapBatch: the sender decodes the batch frames (AssignBatch,
	// AttemptResultBatch, ResultPushBatch). The broker sends batches only
	// to peers that advertised this bit; peers without it keep receiving
	// single frames byte-identical to the pre-batch revision.
	CapBatch uint8 = 1 << 1
	// CapQueue: the sender is a provider that holds one queued attempt per
	// slot beyond the ones it runs (2×Slots outstanding in all). The broker
	// places past Slots only on providers that advertised this bit, and only
	// while their recent attempts ran for less than TinyExecNanos.
	CapQueue uint8 = 1 << 2
)

// Flag bits carried in the optional tail of SubmitJob and Assign.
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
	TypeAssign
	TypeCancelAttempt
	TypeAttemptResult
	TypeSubmitJob
	TypeJobAccepted
	TypeResultPush
	TypeJobDone
	TypeCancelJob
	TypeBye
	TypeQueryFleet
	TypeFleetInfo
	TypeShardGossip
	TypeMigrateRequest
	TypeMigrateTasklet
	TypeMigrateAck
	TypeMigrateResult
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
		TypeJobAccepted: "job_accepted", TypeResultPush: "result_push",
		TypeJobDone: "job_done", TypeCancelJob: "cancel_job", TypeBye: "bye",
		TypeQueryFleet: "query_fleet", TypeFleetInfo: "fleet_info",
		TypeShardGossip: "shard_gossip", TypeMigrateRequest: "migrate_request",
		TypeMigrateTasklet: "migrate_tasklet", TypeMigrateAck: "migrate_ack",
		TypeMigrateResult: "migrate_result", TypeAssignBatch: "assign_batch",
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
	// RolePeer identifies a broker-to-broker link in a sharded cluster.
	// Peer links carry only gossip and migration frames.
	RolePeer
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

	// Caps advertises the compatible protocol extensions this client can
	// decode (Cap* bits). Carried in the optional tail; absent on
	// old-format frames, defaulting to none.
	Caps uint8
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
}

// Heartbeat is sent periodically by providers; the broker marks providers
// dead after missing several.
type Heartbeat struct {
	FreeSlots int
}

// Assign dispatches one execution attempt to a provider. ProgramData is
// empty when the broker knows the provider has the program cached.
type Assign struct {
	Attempt     core.AttemptID
	Tasklet     core.TaskletID
	Program     core.ProgramID
	ProgramData []byte // empty if cached on the provider
	Params      []tvm.Value
	Fuel        uint64
	Seed        uint64

	// NoCache is kept for frame-format compatibility: it is carried in the
	// optional flags tail (absent on old-format frames, defaulting to
	// false), but brokers no longer set it and providers ignore it, since
	// providers cache no results.
	NoCache bool
}

// CancelAttempt asks a provider to abort a running attempt (job cancelled
// or QoC already satisfied). Best-effort.
type CancelAttempt struct {
	Attempt core.AttemptID
}

// AttemptResult reports an attempt outcome from provider to broker.
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

// JobAccepted confirms a SubmitJob and assigns the job its ID.
type JobAccepted struct {
	Job      core.JobID
	Tasklets int
}

// ResultPush delivers one completed tasklet's final result to the consumer.
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

// ShardGossip advertises one shard's load to a peer. Sent periodically on
// every peer link; the first gossip on a link also identifies the sending
// shard to an accepting broker. Seq increases monotonically per sender so
// receivers can discard reordered snapshots.
type ShardGossip struct {
	Shard      uint64
	Seq        uint64
	QueueDepth int
	FreeSlots  int
	Rate       float64 // EWMA tasklets finalized per second
}

// MigrateRequest is an underloaded shard's pull: "send me up to Max of
// your queued tasklets". The receiver decides which (if any) tasklets
// actually move; in-flight work never does.
type MigrateRequest struct {
	Shard uint64 // requesting shard
	Max   int
}

// MigrateTasklet transfers one queued tasklet to the requesting shard. It
// carries everything the receiving lifecycle engine needs for a fresh
// Submit — program, params, QoC, fuel, seed — plus the origin-side
// TaskletID so results can be routed back. The sender has already
// Cancelled the tasklet locally (Cancel-before-launch), so exactly one
// shard owns it at any instant.
type MigrateTasklet struct {
	Origin      core.TaskletID // sender-side ID, echoed in Ack/Result
	Program     core.ProgramID
	ProgramData []byte
	Params      []tvm.Value
	QoC         core.QoC
	Fuel        uint64
	Seed        uint64
}

// MigrateAck accepts or rejects a MigrateTasklet. A rejection (or a peer
// loss before the Ack) makes the origin shard re-Submit locally, so a
// migration can delay a tasklet but never lose it.
type MigrateAck struct {
	Shard    uint64 // acking shard
	Origin   core.TaskletID
	Accepted bool
}

// MigrateResult routes a migrated tasklet's final result back to its
// origin shard, which still owns the consumer connection and the job
// accounting. Mirrors ResultPush minus the job/index fields, which only
// the origin knows.
type MigrateResult struct {
	Origin    core.TaskletID
	Status    core.ResultStatus
	Return    tvm.Value
	Emitted   []tvm.Value
	FaultCode tvm.FaultCode
	FaultMsg  string
	Provider  core.ProviderID
	Attempts  int
	ExecNanos int64
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
	_ Message = (*JobAccepted)(nil)
	_ Message = (*ResultPush)(nil)
	_ Message = (*JobDone)(nil)
	_ Message = (*CancelJob)(nil)
	_ Message = (*Bye)(nil)
	_ Message = (*QueryFleet)(nil)
	_ Message = (*FleetInfo)(nil)
	_ Message = (*ShardGossip)(nil)
	_ Message = (*MigrateRequest)(nil)
	_ Message = (*MigrateTasklet)(nil)
	_ Message = (*MigrateAck)(nil)
	_ Message = (*MigrateResult)(nil)
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
func (*JobAccepted) Type() MsgType   { return TypeJobAccepted }
func (*ResultPush) Type() MsgType    { return TypeResultPush }
func (*JobDone) Type() MsgType       { return TypeJobDone }
func (*CancelJob) Type() MsgType     { return TypeCancelJob }
func (*Bye) Type() MsgType           { return TypeBye }
func (*QueryFleet) Type() MsgType    { return TypeQueryFleet }
func (*FleetInfo) Type() MsgType     { return TypeFleetInfo }

func (*ShardGossip) Type() MsgType    { return TypeShardGossip }
func (*MigrateRequest) Type() MsgType { return TypeMigrateRequest }
func (*MigrateTasklet) Type() MsgType { return TypeMigrateTasklet }
func (*MigrateAck) Type() MsgType     { return TypeMigrateAck }
func (*MigrateResult) Type() MsgType  { return TypeMigrateResult }

func (m *Hello) encode(e *enc) {
	e.u16(m.Version)
	e.u8(uint8(m.Role))
	e.str(m.Name)
	if m.Caps != 0 { // optional tail; omitted when empty for legacy peers
		e.u8(m.Caps)
	}
}

func (m *Hello) decode(d *dec) {
	m.Version = d.u16()
	m.Role = Role(d.u8())
	m.Name = d.str()
	if d.err == nil && d.remaining() > 0 { // optional tail (new in caps rev)
		m.Caps = d.u8()
	}
}

func (m *Welcome) encode(e *enc) { e.u64(m.ID) }
func (m *Welcome) decode(d *dec) { m.ID = d.u64() }

func (m *ErrorMsg) encode(e *enc) {
	e.u16(m.Code)
	e.str(m.Msg)
}

func (m *ErrorMsg) decode(d *dec) {
	m.Code = d.u16()
	m.Msg = d.str()
}

func (m *Register) encode(e *enc) {
	e.u32(uint32(m.Slots))
	e.u8(uint8(m.Class))
	e.f64(m.Speed)
}

func (m *Register) decode(d *dec) {
	m.Slots = int(d.u32())
	m.Class = core.DeviceClass(d.u8())
	m.Speed = d.f64()
}

func (m *Heartbeat) encode(e *enc) { e.u32(uint32(m.FreeSlots)) }
func (m *Heartbeat) decode(d *dec) { m.FreeSlots = int(d.u32()) }

func (m *Assign) encode(e *enc) {
	e.u64(uint64(m.Attempt))
	e.u64(uint64(m.Tasklet))
	e.u64(uint64(m.Program))
	e.bytes(m.ProgramData)
	e.values(m.Params)
	e.u64(m.Fuel)
	e.u64(m.Seed)
	var fl uint8
	if m.NoCache {
		fl |= flagNoCache
	}
	if fl != 0 { // optional tail; omitted when empty for legacy peers
		e.u8(fl)
	}
}

func (m *Assign) decode(d *dec) {
	m.Attempt = core.AttemptID(d.u64())
	m.Tasklet = core.TaskletID(d.u64())
	m.Program = core.ProgramID(d.u64())
	m.ProgramData = d.bytesv()
	m.Params = d.values()
	m.Fuel = d.u64()
	m.Seed = d.u64()
	if d.err == nil && d.remaining() > 0 { // optional tail (new in flags rev)
		m.NoCache = d.u8()&flagNoCache != 0
	}
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
	var fl uint8
	if m.QoC.NoCache {
		fl |= flagNoCache
	}
	if fl != 0 { // optional tail; omitted when empty for legacy peers
		e.u8(fl)
	}
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
	if d.err == nil && d.remaining() > 0 { // optional tail (new in flags rev)
		m.QoC.NoCache = d.u8()&flagNoCache != 0
	}
}

func (m *JobAccepted) encode(e *enc) {
	e.u64(uint64(m.Job))
	e.u32(uint32(m.Tasklets))
}

func (m *JobAccepted) decode(d *dec) {
	m.Job = core.JobID(d.u64())
	m.Tasklets = int(d.u32())
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

func (m *ShardGossip) encode(e *enc) {
	e.u64(m.Shard)
	e.u64(m.Seq)
	e.u32(uint32(m.QueueDepth))
	e.u32(uint32(m.FreeSlots))
	e.f64(m.Rate)
}

func (m *ShardGossip) decode(d *dec) {
	m.Shard = d.u64()
	m.Seq = d.u64()
	m.QueueDepth = int(d.u32())
	m.FreeSlots = int(d.u32())
	m.Rate = d.f64()
}

func (m *MigrateRequest) encode(e *enc) {
	e.u64(m.Shard)
	e.u32(uint32(m.Max))
}

func (m *MigrateRequest) decode(d *dec) {
	m.Shard = d.u64()
	m.Max = int(d.u32())
}

// MigrateTasklet is a post-flags-revision frame: unlike SubmitJob it always
// emits the QoC flags byte — peers in a shard group run the same binary,
// so there is no legacy decoder to stay byte-compatible with.
func (m *MigrateTasklet) encode(e *enc) {
	e.u64(uint64(m.Origin))
	e.u64(uint64(m.Program))
	e.bytes(m.ProgramData)
	e.values(m.Params)
	e.u8(uint8(m.QoC.Mode))
	e.u32(uint32(m.QoC.Replicas))
	e.u32(uint32(m.QoC.MaxRetries))
	e.i64(int64(m.QoC.Deadline))
	e.boolv(m.QoC.PreferFast)
	e.boolv(m.QoC.LocalFallback)
	var fl uint8
	if m.QoC.NoCache {
		fl |= flagNoCache
	}
	e.u8(fl)
	e.u64(m.Fuel)
	e.u64(m.Seed)
}

func (m *MigrateTasklet) decode(d *dec) {
	m.Origin = core.TaskletID(d.u64())
	m.Program = core.ProgramID(d.u64())
	m.ProgramData = d.bytesv()
	m.Params = d.values()
	m.QoC.Mode = core.QoCMode(d.u8())
	m.QoC.Replicas = int(d.u32())
	m.QoC.MaxRetries = int(d.u32())
	m.QoC.Deadline = time.Duration(d.i64())
	m.QoC.PreferFast = d.boolv()
	m.QoC.LocalFallback = d.boolv()
	m.QoC.NoCache = d.u8()&flagNoCache != 0
	m.Fuel = d.u64()
	m.Seed = d.u64()
}

func (m *MigrateAck) encode(e *enc) {
	e.u64(m.Shard)
	e.u64(uint64(m.Origin))
	e.boolv(m.Accepted)
}

func (m *MigrateAck) decode(d *dec) {
	m.Shard = d.u64()
	m.Origin = core.TaskletID(d.u64())
	m.Accepted = d.boolv()
}

func (m *MigrateResult) encode(e *enc) {
	e.u64(uint64(m.Origin))
	e.u8(uint8(m.Status))
	e.value(m.Return)
	e.values(m.Emitted)
	e.u8(uint8(m.FaultCode))
	e.str(m.FaultMsg)
	e.u64(uint64(m.Provider))
	e.u32(uint32(m.Attempts))
	e.i64(m.ExecNanos)
}

func (m *MigrateResult) decode(d *dec) {
	m.Origin = core.TaskletID(d.u64())
	m.Status = core.ResultStatus(d.u8())
	m.Return = d.value()
	m.Emitted = d.values()
	m.FaultCode = tvm.FaultCode(d.u8())
	m.FaultMsg = d.str()
	m.Provider = core.ProviderID(d.u64())
	m.Attempts = int(d.u32())
	m.ExecNanos = d.i64()
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
	case TypeJobAccepted:
		return &JobAccepted{}, nil
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
	case TypeShardGossip:
		return &ShardGossip{}, nil
	case TypeMigrateRequest:
		return &MigrateRequest{}, nil
	case TypeMigrateTasklet:
		return &MigrateTasklet{}, nil
	case TypeMigrateAck:
		return &MigrateAck{}, nil
	case TypeMigrateResult:
		return &MigrateResult{}, nil
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
