package experiments

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/stdtasks"
	"repro/internal/tvm"
	"repro/internal/wire"
)

// discardConn is a net.Conn whose writes vanish; the wire-path allocation
// rows measure encoding cost without a kernel socket in the way.
type discardConn struct{}

func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) Read(p []byte) (int, error)       { select {} }
func (discardConn) Close() error                     { return nil }
func (discardConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (discardConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (discardConn) SetDeadline(time.Time) error      { return nil }
func (discardConn) SetReadDeadline(time.Time) error  { return nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// RunE9 measures the data-plane hot path (Figure 8): submit→result
// throughput and p99 latency versus offered load (closed-loop concurrent
// consumers issuing single-tasklet noop jobs), plus allocs-per-message rows
// for the wire send path. The workload is pure middleware — noop tasklets
// make every microsecond protocol overhead, which is what write coalescing
// and buffer pooling attack.
func RunE9(opts Options) (*Result, error) {
	res := &Result{ID: "E9", Title: Title("e9")}

	noopData, err := stdtasks.Bytecode("noop")
	if err != nil {
		return nil, err
	}

	conc := []int{1, 4, 16, 64, 256}
	jobsPerLevel := 1500
	if opts.Quick {
		conc = []int{1, 8, 64}
		jobsPerLevel = 300
	}

	stack, err := newLiveStack(4, 8)
	if err != nil {
		return nil, err
	}
	defer stack.close()
	var peak float64
	tput := &metrics.Series{Name: "tasklets/s", XLabel: "concurrency"}
	p99 := &metrics.Series{Name: "p99 ms", XLabel: "concurrency"}
	for _, c := range conc {
		per := jobsPerLevel / c
		if per < 1 {
			per = 1
		}
		total := per * c
		var hist metrics.Histogram
		errc := make(chan error, c)
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < c; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
				defer cancel()
				for j := 0; j < per; j++ {
					t0 := time.Now()
					job, err := stack.client.Submit(core.JobSpec{
						Program: noopData, Params: [][]tvm.Value{{}}, Seed: 1,
					})
					if err != nil {
						errc <- err
						return
					}
					results, err := job.Collect(ctx)
					if err != nil {
						errc <- err
						return
					}
					if len(results) != 1 || !results[0].OK() {
						errc <- fmt.Errorf("e9: tasklet failed: %+v", results)
						return
					}
					hist.ObserveDuration(time.Since(t0))
				}
			}()
		}
		wg.Wait()
		select {
		case err := <-errc:
			return nil, err
		default:
		}
		el := time.Since(start)
		rate := float64(total) / el.Seconds()
		peak = max(peak, rate)
		tput.Append(float64(c), rate)
		p99.Append(float64(c), hist.Snapshot().P99)
		opts.logf("e9: conc %d -> %.0f tasklets/s, p99 %.2f ms", c, rate, hist.Snapshot().P99)
	}
	res.Series = append(res.Series, tput, p99)

	// Wire-path allocation rows: the pooled Conn.Send path versus the
	// pre-overhaul discipline (Marshal a fresh frame, write it). Measured
	// with the result frame the submit→result path carries per tasklet.
	msg := &wire.AttemptResult{Attempt: 1, Tasklet: 2, Status: core.StatusOK,
		Return: tvm.Int(42), FuelUsed: 128, ExecNanos: 1000}
	conn := wire.NewConn(discardConn{})
	pooled := testing.AllocsPerRun(2000, func() {
		if err := conn.Send(msg); err != nil {
			panic(err)
		}
	})
	sink := discardConn{}
	legacy := testing.AllocsPerRun(2000, func() {
		frame, err := wire.Marshal(msg)
		if err != nil {
			panic(err)
		}
		if _, err := sink.Write(frame); err != nil {
			panic(err)
		}
	})
	res.Rows = append(res.Rows,
		[2]string{"wire send allocs/msg (pooled Conn.Send)", fmt.Sprintf("%.0f", pooled)},
		[2]string{"wire send allocs/msg (legacy Marshal+write)", fmt.Sprintf("%.0f", legacy)},
	)
	if legacy > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"wire-path allocations: %.0f/msg pooled vs %.0f/msg legacy (%.0f%% fewer)",
			pooled, legacy, 100*(1-pooled/legacy)))
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("peak throughput: %.0f tasklets/s", peak),
		"paper expectation: throughput climbs with offered load (one flush covers a burst) while unloaded latency stays at one round trip")
	return res, nil
}
