// Package consumer implements the application-side Tasklet client: it
// connects to the broker, submits jobs (one program, many parameter sets,
// shared QoC goals), and streams final results back as they complete.
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

// ackTimeout bounds how long Submit and Fleet wait for the broker's reply.
const ackTimeout = 30 * time.Second

// Client is a consumer session with the broker. Create with Connect; a
// Client supports many concurrent jobs.
type Client struct {
	conn *wire.Conn
	nc   net.Conn
	id   core.ConsumerID

	mu           sync.Mutex
	jobs         map[core.JobID]*Job
	subs         chan *Job // handshake channel: SubmitJob → JobAccepted ordering
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

	results  chan TaskResult
	done     chan struct{}
	doneOnce sync.Once

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

// signalDone releases a Submit waiting for acknowledgement. Idempotent.
func (j *Job) signalDone() { j.doneOnce.Do(func() { close(j.done) }) }

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
	// CapBatch lets the broker fold a burst of completed results into one
	// ResultPushBatch frame; the per-result payloads are identical, so the
	// application sees the same stream either way.
	if err := conn.Send(&wire.Hello{
		Version: wire.ProtocolVersion, Role: wire.RoleConsumer, Name: name,
		Caps: wire.CapFlagsTail | wire.CapBatch,
	}); err != nil {
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
		conn: conn,
		nc:   nc,
		id:   core.ConsumerID(welcome.ID),
		jobs: map[core.JobID]*Job{},
		// 1024 in-flight submissions keeps a closed-loop load generator (the
		// throughput benchmarks drive hundreds of concurrent single-tasklet
		// jobs) from tripping the unacknowledged-submission limit.
		subs:         make(chan *Job, 1024),
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

// Submit sends a job and returns its handle once the broker accepts it.
func (c *Client) Submit(spec core.JobSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	job := &Job{
		results: make(chan TaskResult, len(spec.Params)),
		done:    make(chan struct{}),
		spec:    spec,
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, c.sessionError()
	}
	// Queue the handle before sending: JobAccepted replies arrive in
	// submission order.
	select {
	case c.subs <- job:
	default:
		c.mu.Unlock()
		return nil, errors.New("consumer: too many unacknowledged submissions")
	}
	c.mu.Unlock()

	err := c.conn.Send(&wire.SubmitJob{
		Program: spec.Program,
		Params:  spec.Params,
		QoC:     spec.QoC,
		Fuel:    spec.Fuel,
		Seed:    spec.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("consumer: submit: %w", err)
	}

	// One stopped timer per call: a time.After timer would stay live for the
	// full 30 s after every acknowledged submission.
	timeout := time.NewTimer(ackTimeout)
	defer timeout.Stop()
	select {
	case <-job.done:
		// Err() locks: a concurrent connection loss may be writing the
		// error while we wake up.
		if err := job.Err(); err != nil {
			return nil, err
		}
		return job, nil
	case <-timeout.C:
		return nil, errors.New("consumer: broker did not acknowledge job")
	}
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
		case *wire.JobAccepted:
			c.onAccepted(m, nil)
		case *wire.ErrorMsg:
			c.onAccepted(nil, fmt.Errorf("consumer: broker rejected job: %s", m.Msg))
		case *wire.ResultPush:
			c.onResult(m)
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
	var pendingSubs []*Job
	for {
		select {
		case j := <-c.subs:
			pendingSubs = append(pendingSubs, j)
			continue
		default:
		}
		break
	}
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
	for _, j := range pendingSubs {
		j.finish(fail)
	}
	for _, j := range jobs {
		j.finish(fail)
	}
}

// onAccepted pairs the oldest pending submission with its acknowledgement
// (or rejection).
func (c *Client) onAccepted(m *wire.JobAccepted, rejection error) {
	var job *Job
	select {
	case job = <-c.subs:
	default:
		return // stray ack
	}
	if rejection != nil {
		job.mu.Lock()
		job.err = rejection
		job.mu.Unlock()
		job.signalDone()
		return
	}
	job.ID = m.Job
	job.Tasklets = m.Tasklets
	c.mu.Lock()
	c.jobs[m.Job] = job
	c.mu.Unlock()
	job.signalDone()
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
// abnormally, and releases any Submit still waiting for acknowledgement.
// Results already buffered remain drainable. Idempotent.
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
	j.signalDone()
}

// Results returns the stream of final tasklet results. The channel closes
// when the job finishes (normally or abnormally); check Err afterwards.
func (j *Job) Results() <-chan TaskResult { return j.results }

// Collect drains the job to completion, returning results ordered by
// tasklet index. Failed tasklets appear with their fault status. ctx
// cancels the wait (the job keeps running broker-side; use Client.Cancel).
func (j *Job) Collect(ctx context.Context) ([]TaskResult, error) {
	out := make([]TaskResult, j.Tasklets)
	seen := 0
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
				seen++
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// Err reports how the job ended: nil for normal completion (even with
// failed tasklets), non-nil for session loss.
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
