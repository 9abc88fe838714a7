package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/consumer"
	"repro/internal/core"
	"repro/internal/tvm"
)

// jobTimeout is how long a job may go without finishing before its
// outstanding tasklets are counted as missing and the session is replaced.
const jobTimeout = 60 * time.Second

// warmupTimeout bounds set-up: a stack that cannot finish its warm-up in this
// time is a harness error, not a measurement.
const warmupTimeout = 2 * time.Minute

// windowPlan is one measured window on a running stack: dur long, recorded
// as slices back-to-back slices of equal length. A metric's value is always
// taken over the whole window; the slices only show how steady the window was.
type windowPlan struct {
	dur    time.Duration
	slices int
	traced bool
}

// sliceRec is what one generator goroutine records during one slice. It is
// fixed-size apart from the optional trace, so recording never allocates.
type sliceRec struct {
	lat       hist // per tasklet: start of Client.Submit of its job → arrival on Job.Results()
	ok        int64
	badStatus int64 // arrived with status != OK
	wrong     int64 // arrived OK with the wrong value, a bad index or twice
	missing   int64 // never arrived: job timeout or session loss
	attempts  int64 // Σ TaskResult.Attempts over arrived tasklets
	trace     *traceRec
}

func (r *sliceRec) merge(o *sliceRec) {
	r.lat.merge(&o.lat)
	r.ok += o.ok
	r.badStatus += o.badStatus
	r.wrong += o.wrong
	r.missing += o.missing
	r.attempts += o.attempts
	if o.trace != nil {
		if r.trace == nil {
			r.trace = &traceRec{}
		}
		r.trace.merge(o.trace)
	}
}

// sliceResult is one slice's measurements merged over the generators.
type sliceResult struct {
	sliceRec
	seconds      float64
	cpuUS        float64 // process user+sys CPU over the slice
	firstFailure string  // on a window's total: the run's first non-OK result, if any
}

func (r *sliceResult) failed() int64    { return r.badStatus + r.wrong + r.missing }
func (r *sliceResult) attempted() int64 { return r.ok + r.failed() }
func (r *sliceResult) rate() float64    { return float64(r.ok) / r.seconds }

// endToEnd derives the end-to-end metrics of one slice or window. setup_s is
// added by the caller, which timed it.
func (r *sliceResult) endToEnd() map[string]float64 {
	arrived := float64(r.ok + r.badStatus + r.wrong)
	return map[string]float64{
		"tasklets_per_s":       r.rate(),
		"latency_p50_ms":       r.lat.quantile(0.5) / 1e6,
		"latency_p99_ms":       r.lat.quantile(r.lat.tailQuantile()) / 1e6,
		"cpu_us_per_tasklet":   r.cpuUS / float64(r.ok),
		"attempts_per_tasklet": float64(r.attempts) / arrived,
		"ok_frac":              float64(r.ok) / float64(r.attempted()),
	}
}

// windowResult is one window: its slices and their sum.
type windowResult struct {
	sliceResult
	slices []sliceResult
	live   *liveLayers
}

// stackRun drives one stack through warm-up and its measured windows.
// Phase 0 is warm-up; then every window contributes one phase per slice,
// with an unmeasured gap phase between windows; the phase after the last
// slice (phase 1 when there is no window) is the stop signal.
type stackRun struct {
	w     *workloadSpec
	in    *inputs
	st    *stack
	phase atomic.Int32
	stop  int32
	warm  atomic.Int64 // tasklets completed during warm-up
	epoch time.Time    // span timestamps are relative to this
	// firstFailure describes the first non-OK result of the run, for the report.
	firstFailure atomic.Pointer[string]
	gens         [consumers]*generator
}

// generator is one closed-loop client: one consumer connection that keeps
// exactly one job in flight.
type generator struct {
	run      *stackRun
	id       int
	client   atomic.Pointer[consumer.Client]
	jobStart atomic.Int64 // UnixNano of the job in flight, 0 when idle; read by the watchdog
	recs     []*sliceRec  // indexed by phase; nil where nothing is recorded

	spec   core.JobSpec
	cursor int
	want   []int64
	seen   []bool
}

// runStack sets the stack up, warms it, measures each planned window and
// tears everything down. It returns one result per window and the set-up
// time: wall time from entry to the end of the warm-up, where the first
// window opens. An empty plan sets up, warms and tears down only.
func runStack(w *workloadSpec, in *inputs, plan []windowPlan) ([]windowResult, float64, error) {
	begin := time.Now()
	st, err := startStack(w)
	if err != nil {
		return nil, 0, err
	}
	defer st.close()

	// first[i] is the phase of window i's first slice; the phase before it
	// (warm-up for window 0, a gap otherwise) is unmeasured.
	first := make([]int32, len(plan))
	next := int32(1)
	for i, wp := range plan {
		first[i] = next
		next += int32(wp.slices) + 1
	}
	r := &stackRun{w: w, in: in, st: st, stop: max(next-1, 1), epoch: begin}
	for i := range r.gens {
		g := &generator{run: r, id: i, recs: make([]*sliceRec, r.stop+1)}
		for wi, wp := range plan {
			for s := range int32(wp.slices) {
				rec := &sliceRec{}
				if wp.traced {
					rec.trace = newTraceRec()
				}
				g.recs[first[wi]+s] = rec
			}
		}
		g.prepare()
		c, err := consumer.Connect(st.addr, fmt.Sprintf("%s-gen%d", w.name, i))
		if err != nil {
			for _, prev := range r.gens[:i] {
				prev.client.Load().Close()
			}
			return nil, 0, fmt.Errorf("consumer %d: %w", i, err)
		}
		g.client.Store(c)
		r.gens[i] = g
	}

	var wg sync.WaitGroup
	for _, g := range r.gens {
		wg.Add(1)
		go func() { defer wg.Done(); g.loop() }()
	}
	watchdogDone := make(chan struct{})
	wg.Add(1)
	go func() { defer wg.Done(); r.watchdog(watchdogDone) }()
	// halt ends the run: closing a session ends the job it has in flight,
	// which wakes its generator; those tasklets belong to no window.
	halt := func() {
		r.phase.Store(r.stop)
		close(watchdogDone)
		for _, g := range r.gens {
			g.client.Load().Close()
		}
		wg.Wait()
		for _, g := range r.gens {
			g.client.Load().Close() // a session the generator opened while stopping
		}
	}

	for r.warm.Load() < int64(w.warmup) {
		if time.Since(begin) > warmupTimeout {
			halt()
			return nil, 0, fmt.Errorf("%s: warm-up stuck at %d of %d tasklets after %v", w.name, r.warm.Load(), w.warmup, warmupTimeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
	setupS := time.Since(begin).Seconds()

	results := make([]windowResult, len(plan))
	for i, wp := range plan {
		res := &results[i]
		res.slices = make([]sliceResult, wp.slices)
		r.phase.Store(first[i] - 1)
		// Every window opens on a freshly collected heap, so that windows
		// on one stack (the traced run compares two) differ in nothing else.
		var lt *liveTracer
		if wp.traced {
			lt = startLiveTracer(st)
		} else {
			runtime.GC()
		}
		ru0, t0 := cpuTime(), time.Now()
		for s := range res.slices {
			r.phase.Store(first[i] + int32(s))
			time.Sleep(wp.dur / time.Duration(wp.slices))
			ru1, t1 := cpuTime(), time.Now()
			res.slices[s].seconds = t1.Sub(t0).Seconds()
			res.slices[s].cpuUS = float64(ru1-ru0) / 1e3
			ru0, t0 = ru1, t1
		}
		r.phase.Store(first[i] + int32(wp.slices)) // the next gap, or the stop
		if lt != nil {
			res.live = lt.finish()
		}
	}
	halt()

	for i := range plan {
		res := &results[i]
		if why := r.firstFailure.Load(); why != nil {
			res.firstFailure = *why
		}
		for s := range res.slices {
			sl := &res.slices[s]
			for _, g := range r.gens {
				sl.merge(g.recs[first[i]+int32(s)])
			}
			res.merge(&sl.sliceRec)
			res.seconds += sl.seconds
			res.cpuUS += sl.cpuUS
		}
		if res.ok == 0 {
			return nil, 0, fmt.Errorf("%s: no tasklet completed in window %d (%d failed)", w.name, i, res.failed())
		}
	}
	return results, setupS, nil
}

// cpuTime returns the process's user+system CPU time in nanoseconds.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // cannot fail with RUSAGE_SELF and a valid pointer
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// watchdog replaces a session whose job has made no end for jobTimeout: the
// close ends the job, and the generator counts what never arrived.
func (r *stackRun) watchdog(done <-chan struct{}) {
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return
		case now := <-tick.C:
			for _, g := range r.gens {
				if s := g.jobStart.Load(); s != 0 && now.UnixNano()-s > int64(jobTimeout) {
					g.client.Load().Close()
				}
			}
		}
	}
}

// prepare builds the job spec once; the parameter slices are rewritten in
// place before each submit (the previous job has fully drained by then), so
// the generator allocates nothing per job.
func (g *generator) prepare() {
	w, in := g.run.w, g.run.in
	g.spec = core.JobSpec{Program: g.run.st.bytecode, QoC: w.qoc, Seed: 1, Params: make([][]tvm.Value, w.jobSize)}
	g.want = make([]int64, w.jobSize)
	g.seen = make([]bool, w.jobSize)
	if in.hasParam {
		vals := make([]tvm.Value, w.jobSize)
		for i := range g.spec.Params {
			g.spec.Params[i] = vals[i : i+1 : i+1]
		}
	}
}

// nextJob draws the next jobSize parameters from this consumer's stream.
func (g *generator) nextJob() {
	iters, want := g.run.in.iters[g.id], g.run.in.want[g.id]
	for i := range g.want {
		k := (g.cursor + i) % len(iters)
		g.want[i] = want[k]
		if g.run.in.hasParam {
			g.spec.Params[i][0] = tvm.Int(iters[k])
		}
	}
	g.cursor = (g.cursor + len(g.want)) % len(iters)
	clear(g.seen)
}

func (g *generator) loop() {
	r := g.run
	size := len(g.want)
	for r.phase.Load() != r.stop {
		g.nextJob()
		client := g.client.Load()
		t0 := time.Now()
		g.jobStart.Store(t0.UnixNano())
		job, err := client.Submit(g.spec)
		tSub := time.Now()
		arrived := 0
		var tFirst, tLast time.Time
		if err == nil {
			for res := range job.Results() {
				now := time.Now()
				if arrived == 0 {
					tFirst = now
				}
				tLast = now
				arrived++
				ph := r.phase.Load()
				rec := g.recs[ph]
				dup := res.Index < 0 || res.Index >= size || g.seen[res.Index]
				if !dup {
					g.seen[res.Index] = true
				}
				if rec == nil {
					if ph == 0 {
						r.warm.Add(1)
					}
					continue
				}
				rec.lat.record(now.Sub(t0))
				rec.attempts += int64(res.Attempts)
				switch {
				case res.Status != core.StatusOK:
					rec.badStatus++
					if r.firstFailure.Load() == nil {
						why := fmt.Sprintf("tasklet %d of job %d: status %s: %s", res.Index, job.ID, res.Status, res.Fault)
						r.firstFailure.CompareAndSwap(nil, &why)
					}
				case dup || res.Return.Kind != tvm.KindInt || res.Return.I != g.want[res.Index]:
					rec.wrong++
				default:
					rec.ok++
				}
				if rec.trace != nil {
					rec.trace.nonexec.record(now.Sub(t0) - res.Exec)
				}
			}
		}
		g.jobStart.Store(0)
		ph := r.phase.Load()
		if ph == r.stop {
			return
		}
		if rec := g.recs[ph]; rec != nil {
			rec.missing += int64(size - arrived)
			if rec.trace != nil && err == nil && arrived > 0 {
				rec.trace.addJob(uint64(job.ID), t0.Sub(r.epoch), tSub.Sub(r.epoch), tFirst.Sub(r.epoch), tLast.Sub(r.epoch))
			}
		}
		if err != nil || job.Err() != nil {
			g.reconnect(client)
		}
	}
}

// reconnect replaces a lost session, retrying until it succeeds or the run
// stops. A measured failure never aborts the run.
func (g *generator) reconnect(old *consumer.Client) {
	old.Close()
	for g.run.phase.Load() != g.run.stop {
		c, err := consumer.Connect(g.run.st.addr, fmt.Sprintf("%s-gen%d", g.run.w.name, g.id))
		if err == nil {
			g.client.Store(c)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}
