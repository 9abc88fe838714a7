// Package core defines the Tasklet system's central abstractions: the
// tasklet itself (a self-contained, side-effect-free unit of computation),
// jobs (batches of tasklets sharing one program), Quality-of-Computation
// (QoC) goals, results, and the descriptors the broker keeps for providers.
//
// Every other component — broker, provider, consumer, scheduler, QoC engine,
// simulator — speaks in these types. The package has no I/O and no
// goroutines; it is the shared vocabulary of the system.
package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/tvm"
)

// TaskletID uniquely identifies one logical tasklet within a broker.
// Redundant (QoC-replicated) executions of the same tasklet share the ID;
// attempts are distinguished by AttemptID.
type TaskletID uint64

// AttemptID identifies one physical execution attempt of a tasklet.
type AttemptID uint64

// JobID identifies a batch of tasklets submitted together by one consumer.
type JobID uint64

// ProgramID is the content hash of a marshalled TVM program; brokers and
// providers use it to cache bytecode so a job's program crosses each link
// once.
type ProgramID uint64

// ProviderID identifies a registered provider for the lifetime of its
// connection.
type ProviderID uint64

// ConsumerID identifies a connected consumer session.
type ConsumerID uint64

// QoCMode selects the completion rule the QoC engine applies to a tasklet.
type QoCMode uint8

// QoC modes, in increasing order of reliability cost.
const (
	// QoCBestEffort runs one attempt; a lost provider triggers re-issue up
	// to the retry budget, a fault is reported to the consumer as-is.
	QoCBestEffort QoCMode = iota
	// QoCRedundant runs Replicas attempts on distinct providers and
	// completes with the first successful result.
	QoCRedundant
	// QoCVoting completes when a majority of Replicas attempts, on distinct
	// providers, agree on the result hash. Only the majority is launched up
	// front; the rest of the replica set and then the retry budget cover
	// disagreement, faults and losses, and running out of both fails the
	// tasklet.
	QoCVoting
)

// String returns a stable lower-case name for the mode.
func (m QoCMode) String() string {
	switch m {
	case QoCBestEffort:
		return "best_effort"
	case QoCRedundant:
		return "redundant"
	case QoCVoting:
		return "voting"
	default:
		return fmt.Sprintf("qoc(%d)", uint8(m))
	}
}

// QoC carries a tasklet's quality-of-computation goals. The zero value is
// best-effort, single attempt, no deadline.
type QoC struct {
	Mode QoCMode
	// Replicas is the number of attempts Redundant schedules up front, and
	// the size of the vote under Voting (which schedules a majority of it up
	// front). Minimum 1.
	Replicas int

	// MaxRetries bounds re-issues after provider loss or fault (in
	// addition to the initial attempts). Default 0 means the engine's
	// default policy (providers lost -> re-issue up to 3 times).
	MaxRetries int

	// Deadline, when nonzero, is the wall-clock budget for the tasklet;
	// the scheduler deprioritizes or fails tasklets that exceed it.
	Deadline time.Duration

	// PreferFast asks speed-aware schedulers to place this tasklet on the
	// fastest free provider rather than balancing load.
	PreferFast bool

	// LocalFallback makes the *consumer* execute the tasklet in-process
	// if distributed execution ends in failure (all attempts lost, fleet
	// empty past the deadline, …). This is the middleware's disconnected-
	// operation guarantee: a tasklet application always makes progress,
	// network or no network.
	LocalFallback bool

	// NoCache opts the tasklet out of result memoization: the broker neither
	// serves it from nor stores it into the result cache, and does not
	// coalesce it with identical in-flight work. Use for calibration runs and
	// ablation.
	NoCache bool
}

// VoteStrength returns the voting strength a finalized result for this goal
// carries: the (normalized) replica count under voting, 0 otherwise. The
// result cache uses it to ensure an entry only satisfies requests demanding
// at most the strength it was established with.
func (q QoC) VoteStrength() int {
	if q.Mode != QoCVoting {
		return 0
	}
	return q.Normalize().Replicas
}

// Normalize returns q with invalid fields clamped to the documented
// defaults: Replicas at least 1 (and at least 3 for voting so a majority
// exists), retries non-negative.
func (q QoC) Normalize() QoC {
	if q.Replicas < 1 {
		q.Replicas = 1
	}
	if q.Mode == QoCVoting && q.Replicas < 3 {
		q.Replicas = 3
	}
	if q.Mode == QoCBestEffort {
		q.Replicas = 1
	}
	if q.MaxRetries < 0 {
		q.MaxRetries = 0
	}
	if q.Deadline < 0 {
		q.Deadline = 0
	}
	return q
}

// Validate rejects semantically impossible goals.
func (q QoC) Validate() error {
	if q.Mode > QoCVoting {
		return fmt.Errorf("core: unknown QoC mode %d", uint8(q.Mode))
	}
	if q.Replicas > 16 {
		return errors.New("core: more than 16 replicas is not supported")
	}
	if q.MaxRetries > 64 {
		return errors.New("core: more than 64 retries is not supported")
	}
	return nil
}

// Majority returns the number of agreeing results required to complete a
// voting tasklet with n attempts.
func Majority(n int) int { return n/2 + 1 }

// Tasklet is one schedulable unit of computation: a program reference, the
// parameters for this invocation, and its QoC goals. Tasklets are immutable
// once created; all mutable state lives in the broker's tracking structures.
type Tasklet struct {
	ID      TaskletID
	Job     JobID
	Index   int // position within the job, used by consumers to order results
	Program ProgramID
	Params  []tvm.Value
	QoC     QoC

	// Execution limits, forwarded into the provider's VM config.
	Fuel uint64
	Seed uint64 // rand() seed; equal seeds keep replicas vote-compatible

	Submitted time.Time
}

// ResultStatus classifies a tasklet attempt's outcome.
type ResultStatus uint8

// Result statuses. Values are part of the wire format; append only.
const (
	StatusOK       ResultStatus = iota // program ran to completion
	StatusFault                        // program faulted (code in FaultCode)
	StatusLost                         // provider vanished before reporting
	StatusRejected                     // provider refused (unknown program, over capacity)
)

// String returns a stable lower-case name for the status.
func (s ResultStatus) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusFault:
		return "fault"
	case StatusLost:
		return "lost"
	case StatusRejected:
		return "rejected"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Result is the outcome of one execution attempt.
type Result struct {
	Tasklet  TaskletID
	Attempt  AttemptID
	Job      JobID
	Index    int
	Provider ProviderID

	Status    ResultStatus
	Return    tvm.Value
	Emitted   []tvm.Value
	FaultCode tvm.FaultCode
	FaultMsg  string

	FuelUsed uint64
	Exec     time.Duration // provider-measured execution time
}

// OK reports whether the attempt completed successfully.
func (r *Result) OK() bool { return r.Status == StatusOK }

// Hash returns the vote-comparison hash of a successful result.
func (r *Result) Hash() uint64 {
	return tvm.HashResult(r.Return, r.Emitted)
}

// DeviceClass buckets providers by the kind of machine they run on. The
// heterogeneity experiments sweep fleets mixing these classes; the live
// provider daemon reports ClassUnknown and relies on its measured speed.
type DeviceClass uint8

// Device classes with their conventional relative speeds (see
// ClassSpeedFactor).
const (
	ClassUnknown DeviceClass = iota
	ClassServer
	ClassDesktop
	ClassLaptop
	ClassMobile
	ClassEmbedded
)

// String returns the lower-case class name.
func (c DeviceClass) String() string {
	switch c {
	case ClassUnknown:
		return "unknown"
	case ClassServer:
		return "server"
	case ClassDesktop:
		return "desktop"
	case ClassLaptop:
		return "laptop"
	case ClassMobile:
		return "mobile"
	case ClassEmbedded:
		return "embedded"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// ClassSpeedFactor returns the conventional relative execution speed of a
// device class, normalized to desktop = 1.0. The values follow the spread
// the paper's heterogeneous testbed exhibits: a server core runs roughly 2x
// a desktop, a phone roughly a quarter, embedded an order of magnitude less.
func ClassSpeedFactor(c DeviceClass) float64 {
	switch c {
	case ClassServer:
		return 2.0
	case ClassDesktop:
		return 1.0
	case ClassLaptop:
		return 0.6
	case ClassMobile:
		return 0.25
	case ClassEmbedded:
		return 0.1
	default:
		return 1.0
	}
}

// ProviderInfo is the broker's view of a registered provider.
type ProviderInfo struct {
	ID    ProviderID
	Addr  string
	Class DeviceClass

	// Slots is the number of tasklets the provider executes concurrently.
	Slots int

	// Speed is the provider's self-measured benchmark score in TVM
	// mega-ops per second (see internal/speedbench). Speed-aware
	// schedulers rank providers by it.
	Speed float64

	// Reliability is the broker-tracked completion ratio (completed
	// attempts / assigned attempts), in [0, 1]; starts optimistic at 1.
	Reliability float64

	Joined        time.Time
	LastHeartbeat time.Time
}

// ExpectedExec estimates how long work worth 'fuel' VM operations takes on
// this provider, given its measured speed. Used by deadline- and
// speed-aware scheduling policies.
func (p *ProviderInfo) ExpectedExec(fuel uint64) time.Duration {
	if p.Speed <= 0 {
		return time.Duration(0)
	}
	opsPerSec := p.Speed * 1e6
	return time.Duration(float64(fuel) / opsPerSec * float64(time.Second))
}

// JobSpec is a consumer's description of a batch submission: one program,
// many parameter sets, shared QoC.
type JobSpec struct {
	Program []byte // marshalled tvm.Program
	Params  [][]tvm.Value
	QoC     QoC
	Fuel    uint64
	Seed    uint64
}

// Validate checks the spec is executable.
func (s *JobSpec) Validate() error {
	if len(s.Program) == 0 {
		return errors.New("core: job has no program")
	}
	if len(s.Params) == 0 {
		return errors.New("core: job has no tasklets")
	}
	if err := s.QoC.Validate(); err != nil {
		return err
	}
	var prog tvm.Program
	if err := prog.UnmarshalBinary(s.Program); err != nil {
		return fmt.Errorf("core: job program invalid: %w", err)
	}
	want := prog.EntryFunc().NumParams
	for i, ps := range s.Params {
		if len(ps) != want {
			return fmt.Errorf("core: tasklet %d has %d params, entry wants %d", i, len(ps), want)
		}
	}
	return nil
}

// HashProgram computes the ProgramID of marshalled bytecode (FNV-1a).
func HashProgram(data []byte) ProgramID {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, b := range data {
		h = (h ^ uint64(b)) * prime
	}
	return ProgramID(h)
}
