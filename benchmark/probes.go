package main

import (
	"fmt"
	"math"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/memo"
	"repro/internal/metrics"
	"repro/internal/qoc"
	"repro/internal/scheduler"
	"repro/internal/stdtasks"
	"repro/internal/tasklang"
	"repro/internal/tvm"
	"repro/internal/wire"
)

// Socket-free probes: each times one layer's public functions on the
// workload's own inputs, single-threaded and uncontended. Together they are
// the part of a tasklet's CPU that plain function calls explain; what the
// live stack spends beyond them (goroutine hand-offs, syscalls, locks, GC)
// is the remainder budget.coverage exposes.

// probeBudget is how long one probe measures.
const probeBudget = 80 * time.Millisecond

// perOp calls fn, which performs ops operations, until probeBudget has
// passed and returns the mean nanoseconds per operation, or fn's first error.
func perOp(ops int, fn func() error) (float64, error) {
	if err := fn(); err != nil { // also warms pools, maps and caches
		return 0, err
	}
	var n int
	start := time.Now()
	for time.Since(start) < probeBudget {
		if err := fn(); err != nil {
			return 0, err
		}
		n += ops
	}
	return float64(time.Since(start)) / float64(n), nil
}

// perOpInfallible is perOp for an fn that cannot fail.
func perOpInfallible(ops int, fn func()) float64 {
	ns, _ := perOp(ops, func() error { fn(); return nil }) // the wrapper never returns an error
	return ns
}

// liveFacts is what the probes take from the traced window so that they
// measure the frame shapes and multiplicities the live run actually had.
type liveFacts struct {
	attempts float64 // attempts launched per finalized tasklet
	tvmRuns  float64 // real TVM executions per finalized tasklet
	batch    int     // assigns per AssignBatch, 1 when frames went out single
	cpuUS    float64 // untraced cpu_us_per_tasklet on the same stack
}

// probeArgs returns up to n parameter sets from consumer 0's stream.
func probeArgs(in *inputs, n int) [][]tvm.Value {
	if !in.hasParam {
		return make([][]tvm.Value, n)
	}
	n = min(n, max(len(in.iters[0]), 1))
	out := make([][]tvm.Value, n)
	for i := range out {
		out[i] = []tvm.Value{tvm.Int(in.iters[0][i%len(in.iters[0])])}
	}
	return out
}

func runProbes(w *workloadSpec, in *inputs, code []byte, f liveFacts) (map[string]float64, error) {
	m := map[string]float64{}
	progID := core.HashProgram(code)
	args := probeArgs(in, 4096)
	memoOn := !w.qoc.NoCache
	goal := w.qoc.Normalize()

	// --- tasklang / tvm ---
	var err error
	if m["tasklang.compile_us"], err = perOp(1, func() error {
		_, err := tasklang.Compile(stdtasks.Sources[w.program])
		return err
	}); err != nil {
		return nil, err
	}
	var prog tvm.Program
	if m["tvm.load_us"], err = perOp(1, func() error {
		prog = tvm.Program{}
		if err := prog.UnmarshalBinary(code); err != nil {
			return err
		}
		prog.Optimize()
		return nil
	}); err != nil {
		return nil, err
	}
	// Whole passes over a fixed sample of the parameters the TVM really runs,
	// so a heavy-tailed size distribution is calibrated on the same sizes each
	// time: the head of the stream, or, with the memo on, its misses.
	sample := args[:min(len(args), 512)]
	if memoOn {
		if misses := memoMisses(in, progID, 512); len(misses) > 0 {
			sample = misses
		}
	}
	if m["tvm.run_us_per_tasklet"], err = perOp(len(sample), func() error {
		for _, a := range sample {
			if _, err := tvm.New(&prog, tvm.DefaultConfig()).Run(a...); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for _, k := range []string{"tasklang.compile_us", "tvm.load_us", "tvm.run_us_per_tasklet"} {
		m[k] /= 1e3
	}

	// --- lifecycle: Submit + Launched x r + Result x r through Engine.Apply ---
	var lopts lifecycle.Options
	if memoOn {
		lopts.Memo = memo.New(memo.Config{})
		lopts.Flights = memo.NewFlightTable(nil, "")
	}
	eng := lifecycle.New(lopts)
	burst := min(w.jobSize, 256)
	submits := make([]lifecycle.Event, burst)
	results := make([]lifecycle.Event, 0, burst*goal.Replicas)
	var nextID core.TaskletID
	var engineNS time.Duration
	var engineTasklets int
	applyRound := func() {
		for i := range submits {
			nextID++
			p := args[int(nextID)%len(args)]
			ev := lifecycle.Event{Kind: lifecycle.EventSubmit, Tasklet: core.Tasklet{
				ID: nextID, Job: 1, Index: i, Program: progID, Params: p, QoC: w.qoc, Fuel: 1 << 30, Seed: 1,
			}}
			if memoOn {
				ev.Key, ev.HaveKey = memo.KeyFor(uint64(progID), 1, p)
			}
			submits[i] = ev
		}
		t0 := time.Now()
		fx := eng.Apply(submits)
		results = results[:0]
		var prev core.TaskletID
		var pid core.ProviderID
		for _, e := range fx {
			if e.Kind != lifecycle.EffectLaunch {
				continue
			}
			// Replicas of one tasklet go to distinct providers, as the
			// broker's exclusion list guarantees live.
			if e.Tasklet == prev {
				pid++
			} else {
				prev, pid = e.Tasklet, 1
			}
			results = append(results, lifecycle.Event{Kind: lifecycle.EventResult, Result: core.Result{
				Tasklet: e.Tasklet, Provider: pid, Status: core.StatusOK, Return: tvm.Int(7), FuelUsed: 100,
			}})
		}
		// fx is dead from here on (the engine reuses it); the launches it
		// asked for were copied into results above.
		for i := range results {
			r := &results[i].Result
			r.Attempt, _ = eng.Launched(r.Tasklet, r.Provider)
		}
		eng.Apply(results)
		engineNS += time.Since(t0)
		engineTasklets += burst
	}
	applyRound()
	engineNS, engineTasklets = 0, 0
	for start := time.Now(); time.Since(start) < probeBudget; {
		applyRound()
	}
	if eng.Pending() != 0 {
		return nil, fmt.Errorf("lifecycle probe left %d tasklets pending", eng.Pending())
	}
	m["lifecycle.apply_ns_per_tasklet"] = float64(engineNS) / float64(engineTasklets)

	// --- qoc: the tracker alone (already inside the lifecycle figure) ---
	task := core.Tasklet{ID: 1, QoC: w.qoc}
	tracker := qoc.NewTracker(&task)
	m["qoc.tracker_ns_per_tasklet"] = perOpInfallible(1, func() {
		tracker.Reset(&task)
		d := tracker.Start()
		for a := 1; a <= d.Launch; a++ {
			tracker.OnLaunched(core.AttemptID(a), core.ProviderID(a))
		}
		for a := 1; a <= d.Launch; a++ {
			tracker.OnResult(core.Result{Attempt: core.AttemptID(a), Provider: core.ProviderID(a), Status: core.StatusOK, Return: tvm.Int(7)})
		}
	})

	// --- memo: key derivation, lookup and store on the workload's contents ---
	keys := make([]memo.Key, len(args))
	m["memo.keyfor_ns"] = perOpInfallible(len(args), func() {
		for i, p := range args {
			keys[i], _ = memo.KeyFor(uint64(progID), 1, p)
		}
	})
	cache := memo.New(memo.Config{})
	m["memo.put_ns"] = perOpInfallible(len(keys), func() {
		for _, k := range keys {
			cache.Put(k, tvm.Int(7), nil, 100, time.Millisecond, 0)
		}
	})
	m["memo.get_ns"] = perOpInfallible(len(keys), func() {
		for _, k := range keys {
			cache.Get(k, 0, 1<<30)
		}
	})

	// --- scheduler: Pick + Assign + Complete on the workload's fleet ---
	ix, err := scheduler.NewIndexFor(scheduler.NewWorkSteal()) // the broker's default policy
	if err != nil {
		return nil, err
	}
	for i, ps := range w.fleet {
		speed := 100.0
		if ps.throttle > 0 {
			speed *= ps.throttle
		}
		ix.Upsert(&core.ProviderInfo{ID: core.ProviderID(i + 1), Slots: ps.slots, Speed: speed, Reliability: 1}, ps.slots, 0)
	}
	exclude := make([]core.ProviderID, 0, goal.Replicas)
	if m["scheduler.pick_ns"], err = perOp(goal.Replicas, func() error {
		exclude = exclude[:0]
		for r := 0; r < goal.Replicas; r++ {
			id, ok := ix.Pick(&task, exclude)
			if !ok {
				return fmt.Errorf("scheduler probe: no provider for replica %d", r)
			}
			ix.Assign(id)
			exclude = append(exclude, id)
		}
		for _, id := range exclude {
			ix.Complete(id)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// --- wire: a tasklet's share of the four frames that carry it ---
	enc, dec, bytes, err := wireShare(w, code, args, f)
	if err != nil {
		return nil, err
	}
	m["wire.encode_ns_per_tasklet"], m["wire.decode_ns_per_tasklet"], m["wire.bytes_per_tasklet"] = enc, dec, bytes
	if m["wire.loopback_frame_us"], err = loopbackFrame(); err != nil {
		return nil, err
	}

	// --- metrics: one Histogram.Observe (the broker pays two per tasklet) ---
	const observations = 1 << 20 // the histogram keeps every sample, so bound them
	var h metrics.Histogram
	start := time.Now()
	for i := 0; i < observations; i++ {
		h.Observe(float64(i))
	}
	m["metrics.observe_ns"] = float64(time.Since(start)) / observations

	// --- budget: what the probes explain of a tasklet's CPU ---
	keyfors := 1.0 // the broker derives a key per submitted tasklet whenever its memo is on
	var providerMemo float64
	if memoOn {
		keyfors += f.attempts + f.tvmRuns // provider: one per lookup, one per store
		providerMemo = f.attempts*m["memo.get_ns"] + f.tvmRuns*m["memo.put_ns"]
	}
	sumNS := m["wire.encode_ns_per_tasklet"] + m["wire.decode_ns_per_tasklet"] +
		m["lifecycle.apply_ns_per_tasklet"] + // includes the qoc tracker and the broker-tier memo
		keyfors*m["memo.keyfor_ns"] + providerMemo +
		f.attempts*m["scheduler.pick_ns"] +
		f.tvmRuns*m["tvm.run_us_per_tasklet"]*1e3 +
		2*m["metrics.observe_ns"]
	m["budget.layers_sum_us"] = sumNS / 1e3
	m["budget.coverage"] = sumNS / 1e3 / f.cpuUS
	return m, nil
}

// memoMisses replays both consumers' streams, interleaved job by job as the
// closed loop offers them, through a default-sized memo.Cache and returns
// the first n parameters that miss once the cache is full: the population the
// TVM executes in steady state, which is skewed to rarer and larger contents
// than the stream itself.
func memoMisses(in *inputs, progID core.ProgramID, n int) [][]tvm.Value {
	const job = 512
	cache := memo.New(memo.Config{})
	var out [][]tvm.Value
	for base := 0; base+job <= len(in.iters[0]); base += job {
		for c := 0; c < consumers; c++ {
			for _, it := range in.iters[c][base : base+job] {
				p := []tvm.Value{tvm.Int(it)}
				key, _ := memo.KeyFor(uint64(progID), 1, p)
				if cache.Get(key, 0, 1<<30) != nil {
					continue
				}
				if cache.Len() >= memo.DefaultMaxEntries {
					if out = append(out, p); len(out) == n {
						return out
					}
				}
				cache.Put(key, tvm.Int(0), nil, 0, 0, 0)
			}
		}
	}
	return out
}

// wireShare times AppendFrame and Unmarshal of the four frames a tasklet
// crosses the wire in — SubmitJob, Assign, AttemptResult, ResultPush, batched
// at the size observed live — and returns one tasklet's share of each sum.
func wireShare(w *workloadSpec, code []byte, args [][]tvm.Value, f liveFacts) (encNS, decNS, bytes float64, err error) {
	progID := core.HashProgram(code)
	job := &wire.SubmitJob{Program: code, QoC: w.qoc, Seed: 1, Params: make([][]tvm.Value, w.jobSize)}
	for i := range job.Params {
		job.Params[i] = args[i%len(args)]
	}
	b := f.batch
	assigns := make([]wire.Assign, b)
	attempts := make([]wire.AttemptResult, b)
	pushes := make([]wire.ResultPush, b)
	for i := 0; i < b; i++ {
		id := uint64(i + 1)
		assigns[i] = wire.Assign{Attempt: core.AttemptID(id), Tasklet: core.TaskletID(id), Program: progID,
			Params: args[i%len(args)], Fuel: 100_000_000, Seed: 1, NoCache: w.qoc.NoCache}
		attempts[i] = wire.AttemptResult{Attempt: core.AttemptID(id), Tasklet: core.TaskletID(id),
			Return: tvm.Int(int64(id)), FuelUsed: 750_000, ExecNanos: 5_000_000}
		pushes[i] = wire.ResultPush{Job: 1, Tasklet: core.TaskletID(id), Index: i, Return: tvm.Int(int64(id)),
			Provider: 1, Attempts: 1, ExecNanos: 5_000_000}
	}
	// Each frame with the number of tasklets it carries and how many times
	// a tasklet crosses the wire in such a frame.
	type frame struct {
		msg      wire.Message
		tasklets int
		times    float64
	}
	frames := []frame{{job, w.jobSize, 1}}
	if b == 1 {
		frames = append(frames, frame{&assigns[0], 1, f.attempts}, frame{&attempts[0], 1, f.attempts}, frame{&pushes[0], 1, 1})
	} else {
		frames = append(frames,
			frame{&wire.AssignBatch{Assigns: assigns}, b, f.attempts},
			frame{&wire.AttemptResultBatch{Results: attempts}, b, f.attempts},
			frame{&wire.ResultPushBatch{Results: pushes}, b, 1})
	}
	var buf []byte
	for _, fr := range frames {
		share := fr.times / float64(fr.tasklets)
		ns, err := perOp(1, func() (err error) {
			buf, err = wire.AppendFrame(buf[:0], fr.msg)
			return err
		})
		if err != nil {
			return 0, 0, 0, err
		}
		encNS += share * ns
		payload := append([]byte(nil), buf[5:]...) // frame = 4-byte length, 1-byte type, payload
		ns, err = perOp(1, func() error {
			_, err := wire.Unmarshal(fr.msg.Type(), payload)
			return err
		})
		if err != nil {
			return 0, 0, 0, err
		}
		decNS += share * ns
		bytes += share * float64(len(buf))
	}
	return encNS, decNS, bytes, nil
}

// loopbackFrame ping-pongs a Heartbeat over a loopback TCP pair through
// wire.Conn and returns the microseconds one frame takes (half a round trip):
// the syscall and wake-up floor under every message of trickle_rtt.
func loopbackFrame() (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	echoErr := make(chan error, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			echoErr <- err
			return
		}
		defer nc.Close()
		c := wire.NewConn(nc)
		for {
			msg, err := c.Recv()
			if err != nil {
				echoErr <- nil // the dialling side closed: done
				return
			}
			if err := c.Send(msg); err != nil {
				echoErr <- err
				return
			}
		}
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	c := wire.NewConn(nc)
	ns, pingErr := perOp(2, func() error {
		if err := c.Send(&wire.Heartbeat{FreeSlots: 1}); err != nil {
			return err
		}
		_, err := c.Recv()
		return err
	})
	nc.Close()
	if err := <-echoErr; err != nil {
		return 0, err
	}
	return ns / 1e3, pingErr
}

// metgGrains are the spin sizes the METG sweep runs, smallest first.
var metgGrains = []int64{250, 1000, 4000, 16000}

// measureMETG returns the minimum effective task granularity in the sense of
// Task Bench: the smallest calibrated native task length, in µs, at which the
// stack still turns half of the host's cores into useful TVM time. Each grain
// runs its own spin stack (2 providers x 2 slots, NoCache, two closed-loop
// consumers) for window; efficiency = completed x calibrated µs ÷ (wall x
// nproc); the 0.5 crossing is interpolated on log(grain).
func measureMETG(window time.Duration, nproc int) (float64, []metgPoint, error) {
	prog := stdtasks.MustProgram("spin")
	code, err := prog.MarshalBinary()
	if err != nil {
		return 0, nil, err
	}
	var loaded tvm.Program
	if err := loaded.UnmarshalBinary(code); err != nil {
		return 0, nil, err
	}
	loaded.Optimize()
	points := make([]metgPoint, len(metgGrains))
	for i, grain := range metgGrains {
		ns, err := perOp(1, func() error {
			_, err := tvm.New(&loaded, tvm.DefaultConfig()).Run(tvm.Int(grain))
			return err
		})
		if err != nil {
			return 0, nil, err
		}
		us := ns / 1e3
		// Jobs carry ~50 ms of native work whatever the grain, so the sweep
		// varies task granularity and not job granularity.
		size := max(16, int(50_000/us))
		w := &workloadSpec{
			name: fmt.Sprintf("metg_spin_%d", grain), program: "spin", fixed: grain, jobSize: size,
			qoc: core.QoC{NoCache: true, MaxRetries: maxRetries}, fleet: fleetOf(2, 2), warmup: 2 * size,
		}
		in, err := makeInputs(w, 0)
		if err != nil {
			return 0, nil, err
		}
		res, _, err := runStack(w, in, []windowPlan{{dur: window, slices: 1}})
		if err != nil {
			return 0, nil, err
		}
		points[i] = metgPoint{Grain: grain, NativeUS: us,
			Efficiency: float64(res[0].ok) * us / (res[0].seconds * 1e6 * float64(nproc)),
			Failed:     res[0].failed()}
	}
	return metgCrossing(points), points, nil
}

// metgPoint is one grain of the METG sweep.
type metgPoint struct {
	Grain      int64   `json:"spin_iters"`
	NativeUS   float64 `json:"native_us"`
	Efficiency float64 `json:"efficiency"`
	Failed     int64   `json:"failed"`
}

// metgCrossing interpolates the native µs at which efficiency reaches 0.5.
// When every grain is already efficient the smallest grain is an upper bound
// and is returned as is; when none is, the largest is a lower bound.
func metgCrossing(pts []metgPoint) float64 {
	if pts[0].Efficiency >= 0.5 {
		return pts[0].NativeUS
	}
	for i := 1; i < len(pts); i++ {
		lo, hi := pts[i-1], pts[i]
		if hi.Efficiency >= 0.5 {
			frac := (0.5 - lo.Efficiency) / (hi.Efficiency - lo.Efficiency)
			return math.Exp(math.Log(lo.NativeUS) + frac*(math.Log(hi.NativeUS)-math.Log(lo.NativeUS)))
		}
	}
	return pts[len(pts)-1].NativeUS
}
