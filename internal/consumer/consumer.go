// Package consumer implements the application-side Tasklet client: it
// connects to the broker, submits jobs (one program, many parameter sets,
// shared QoC goals), and streams final results back as they complete.
//
// Submission is one-way. The client numbers its jobs the way the broker
// does (the n-th submit_job on the session is job id<<32 | n), so Submit
// returns once the frame is written, without a round trip. A job the broker
// refuses ends with the broker's message as its Err.
package consumer

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/tvm"
	"repro/internal/wire"
)

// ackTimeout bounds how long Fleet waits for the broker's reply.
const ackTimeout = 30 * time.Second

// Client is a consumer session with the broker. Create with Connect; a
// Client supports many concurrent jobs.
type Client struct {
	conn *wire.Conn
	nc   net.Conn
	id   core.ConsumerID

	// sendMu numbers a job and writes its SubmitJob as one step, so
	// concurrent Submits reach the wire in numbered order. submitted counts
	// the jobs numbered so far.
	sendMu    sync.Mutex
	submitted uint32

	mu           sync.Mutex
	jobs         map[core.JobID]*Job
	fleetQueries chan chan *wire.FleetInfo
	closed       bool
	err          error

	wg sync.WaitGroup
}

// Job is a handle on one submitted job. Results arrive on Results in
// completion order (not index order); the channel closes after the final
// tasklet, and Err/Counts report the summary.
type Job struct {
	ID       core.JobID
	Tasklets int

	results chan TaskResult

	mu        sync.Mutex
	finished  bool
	completed int
	failed    int
	err       error

	// Local-fallback state (QoC.LocalFallback): failed tasklets are
	// re-executed in-process; the job completes only after those local
	// executions drain.
	spec       core.JobSpec
	prog       *tvm.Program
	fallbacks  int
	brokerDone bool
}

// TaskResult is one tasklet's final outcome as seen by the application.
type TaskResult struct {
	Index    int
	Status   core.ResultStatus
	Return   tvm.Value
	Emitted  []tvm.Value
	Fault    string
	Provider core.ProviderID
	Attempts int
	Exec     time.Duration
	// Local reports that the result came from the consumer's in-process
	// fallback execution rather than a provider (QoC.LocalFallback).
	Local bool
}

// OK reports whether the tasklet completed successfully.
func (r TaskResult) OK() bool { return r.Status == core.StatusOK }

// Connect dials the broker and performs the handshake.
func Connect(addr, name string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("consumer: dial broker: %w", err)
	}
	conn := wire.NewConn(nc)
	if err := conn.Send(&wire.Hello{Version: wire.ProtocolVersion, Role: wire.RoleConsumer, Name: name}); err != nil {
		nc.Close()
		return nil, err
	}
	msg, err := conn.Recv()
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("consumer: handshake: %w", err)
	}
	welcome, ok := msg.(*wire.Welcome)
	if !ok {
		nc.Close()
		return nil, fmt.Errorf("consumer: handshake: unexpected %s", msg.Type())
	}
	c := &Client{
		conn:         conn,
		nc:           nc,
		id:           core.ConsumerID(welcome.ID),
		jobs:         map[core.JobID]*Job{},
		fleetQueries: make(chan chan *wire.FleetInfo, 16),
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.readLoop()
	}()
	return c, nil
}

// ID returns the broker-assigned consumer ID.
func (c *Client) ID() core.ConsumerID { return c.id }

// Close tears the session down. Outstanding jobs fail with a connection
// error.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	_ = c.conn.Send(&wire.Bye{})
	err := c.nc.Close()
	c.wg.Wait()
	return err
}

// Submit validates spec locally and sends it, returning the job's handle
// as soon as the frame is written; it does not wait for the broker. The
// handle's ID and Tasklets are set on return. A local validation error
// returns from Submit; a job the broker refuses ends with the broker's
// message as Err, which Collect returns.
func (c *Client) Submit(spec core.JobSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	job := &Job{
		Tasklets: len(spec.Params),
		results:  make(chan TaskResult, len(spec.Params)),
		spec:     spec,
	}

	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, c.sessionError()
	}
	// Register before sending, so no result can arrive for an unknown job.
	c.submitted++
	job.ID = core.JobID(uint64(c.id)<<32 | uint64(c.submitted))
	c.jobs[job.ID] = job
	c.mu.Unlock()

	err := c.conn.Send(&wire.SubmitJob{
		Program: spec.Program,
		Params:  spec.Params,
		QoC:     spec.QoC,
		Fuel:    spec.Fuel,
		Seed:    spec.Seed,
	})
	if err != nil {
		// An encode error (an unencodable value, an oversized frame) writes
		// nothing and leaves the session up, so the broker never counted
		// this job; give its number back or every later job would be off by
		// one. A failed write kills the session, so the rollback is harmless
		// there.
		c.submitted--
		c.mu.Lock()
		delete(c.jobs, job.ID)
		c.mu.Unlock()
		return nil, fmt.Errorf("consumer: submit: %w", err)
	}
	return job, nil
}

// Cancel asks the broker to abandon the job's outstanding tasklets.
func (c *Client) Cancel(job *Job) error {
	return c.conn.Send(&wire.CancelJob{Job: job.ID})
}

// FleetProvider is one row of the broker's provider directory.
type FleetProvider struct {
	ID          core.ProviderID
	Class       core.DeviceClass
	Slots       int
	FreeSlots   int
	Speed       float64
	Reliability float64
	Executed    int64
}

// Fleet queries the broker's provider directory: the application-visible
// face of the middleware's resource discovery. It returns the registered
// providers and the number of tasklets awaiting placement.
func (c *Client) Fleet() ([]FleetProvider, int, error) {
	waiter := make(chan *wire.FleetInfo, 1)
	select {
	case c.fleetQueries <- waiter:
	default:
		return nil, 0, errors.New("consumer: too many concurrent fleet queries")
	}
	if err := c.conn.Send(&wire.QueryFleet{}); err != nil {
		return nil, 0, err
	}
	timeout := time.NewTimer(ackTimeout)
	defer timeout.Stop()
	select {
	case info := <-waiter:
		if info == nil {
			return nil, 0, c.sessionError()
		}
		out := make([]FleetProvider, 0, len(info.Providers))
		for _, p := range info.Providers {
			out = append(out, FleetProvider{
				ID: p.ID, Class: p.Class, Slots: p.Slots, FreeSlots: p.FreeSlots,
				Speed: p.Speed, Reliability: p.Reliability, Executed: p.Executed,
			})
		}
		return out, info.Pending, nil
	case <-timeout.C:
		return nil, 0, errors.New("consumer: fleet query timed out")
	}
}

func (c *Client) sessionError() error {
	if c.err != nil {
		return c.err
	}
	return errors.New("consumer: session closed")
}

// readLoop dispatches broker messages to job handles.
func (c *Client) readLoop() {
	var readErr error
	for {
		msg, err := c.conn.Recv()
		if err != nil {
			readErr = err
			break
		}
		switch m := msg.(type) {
		case *wire.ErrorMsg:
			c.onRefused(m)
		case *wire.ResultPushBatch:
			for i := range m.Results {
				c.onResult(&m.Results[i])
			}
		case *wire.JobDone:
			c.onJobDone(m)
		case *wire.FleetInfo:
			select {
			case waiter := <-c.fleetQueries:
				waiter <- m
			default: // stray reply
			}
		case *wire.Bye:
			readErr = errors.New("consumer: broker said goodbye")
			goto out
		}
	}
out:
	c.mu.Lock()
	c.closed = true
	c.err = readErr
	jobs := c.jobs
	c.jobs = map[core.JobID]*Job{}
	// Release any Fleet() callers still waiting for a reply.
	for {
		select {
		case waiter := <-c.fleetQueries:
			close(waiter)
			continue
		default:
		}
		break
	}
	c.mu.Unlock()

	fail := fmt.Errorf("consumer: connection lost: %w", readErr)
	for _, j := range jobs {
		j.finish(fail)
	}
}

// onRefused ends the job a broker error names. An error naming no known
// job is ignored.
func (c *Client) onRefused(m *wire.ErrorMsg) {
	c.mu.Lock()
	job := c.jobs[m.Job]
	delete(c.jobs, m.Job)
	c.mu.Unlock()
	if job != nil {
		job.finish(fmt.Errorf("consumer: broker rejected job: %s", m.Msg))
	}
}

func (c *Client) onResult(m *wire.ResultPush) {
	c.mu.Lock()
	job := c.jobs[m.Job]
	c.mu.Unlock()
	if job == nil {
		return
	}
	r := TaskResult{
		Index:    m.Index,
		Status:   m.Status,
		Return:   m.Return,
		Emitted:  m.Emitted,
		Fault:    m.FaultMsg,
		Provider: m.Provider,
		Attempts: m.Attempts,
		Exec:     time.Duration(m.ExecNanos),
	}
	if !r.OK() && job.spec.QoC.LocalFallback {
		job.startFallback(r)
		return
	}
	job.deliver(r)
}

func (c *Client) onJobDone(m *wire.JobDone) {
	c.mu.Lock()
	job := c.jobs[m.Job]
	delete(c.jobs, m.Job)
	c.mu.Unlock()
	if job == nil {
		return
	}
	job.mu.Lock()
	job.brokerDone = true
	drained := job.fallbacks == 0
	job.mu.Unlock()
	if drained {
		job.finish(nil)
	}
}

// deliver hands one final result to the application, updating counts. Safe
// against a concurrent finish (results buffered after finish are dropped —
// the job already ended abnormally).
func (j *Job) deliver(r TaskResult) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.finished {
		return
	}
	if r.OK() {
		j.completed++
	} else {
		j.failed++
	}
	j.results <- r
}

// startFallback schedules an in-process execution replacing a failed
// distributed result. Runs asynchronously so a slow local execution cannot
// stall the session's read loop.
func (j *Job) startFallback(failed TaskResult) {
	j.mu.Lock()
	if j.finished {
		j.mu.Unlock()
		return
	}
	if j.prog == nil {
		j.prog = &tvm.Program{}
		if err := j.prog.UnmarshalBinary(j.spec.Program); err != nil {
			// Cannot happen for a spec that passed Validate; deliver the
			// original failure rather than dying silently.
			j.prog = nil
			j.mu.Unlock()
			j.deliver(failed)
			return
		}
	}
	prog := j.prog
	j.fallbacks++
	j.mu.Unlock()

	go func() {
		cfg := tvm.DefaultConfig()
		if j.spec.Fuel > 0 {
			cfg.Fuel = j.spec.Fuel
		}
		cfg.Seed = j.spec.Seed
		var params []tvm.Value
		if failed.Index >= 0 && failed.Index < len(j.spec.Params) {
			params = j.spec.Params[failed.Index]
		}
		start := time.Now()
		res, err := tvm.New(prog, cfg).Run(params...)
		out := TaskResult{
			Index:    failed.Index,
			Local:    true,
			Attempts: failed.Attempts + 1,
			Exec:     time.Since(start),
		}
		if err != nil {
			out.Status = core.StatusFault
			out.Fault = err.Error()
		} else {
			out.Status = core.StatusOK
			out.Return = res.Return
			out.Emitted = res.Emitted
		}
		j.deliver(out)

		j.mu.Lock()
		j.fallbacks--
		drained := j.brokerDone && j.fallbacks == 0
		j.mu.Unlock()
		if drained {
			j.finish(nil)
		}
	}()
}

// finish closes the job's result stream, recording err if the job ended
// abnormally. Results already buffered remain drainable. Idempotent.
func (j *Job) finish(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.finished {
		return
	}
	j.finished = true
	if err != nil {
		j.err = err
	}
	close(j.results)
}

// Results returns the stream of final tasklet results. The channel closes
// when the job finishes (normally or abnormally); check Err afterwards.
func (j *Job) Results() <-chan TaskResult { return j.results }

// Collect drains the job to completion, returning results ordered by
// tasklet index. Failed tasklets appear with their fault status. ctx
// cancels the wait (the job keeps running broker-side; use Client.Cancel).
func (j *Job) Collect(ctx context.Context) ([]TaskResult, error) {
	out := make([]TaskResult, j.Tasklets)
	ch := j.Results()
	for {
		select {
		case r, ok := <-ch:
			if !ok {
				if err := j.Err(); err != nil {
					return nil, err
				}
				return out, nil
			}
			if r.Index >= 0 && r.Index < len(out) {
				out[r.Index] = r
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// Err reports how the job ended: nil for normal completion (even with
// failed tasklets), non-nil for session loss or a broker refusal.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Counts returns completed and failed tasklet counts so far.
func (j *Job) Counts() (completed, failed int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.completed, j.failed
}
