package sim

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/memo"
	"repro/internal/metrics"
	"repro/internal/scheduler"
	"repro/internal/tvm"
)

// DeviceSpec describes one simulated provider.
type DeviceSpec struct {
	Class core.DeviceClass
	// Slots is the number of concurrent executions (cores donated).
	Slots int
	// Speed is the device's execution speed in TVM mega-ops/second. Zero
	// derives it from the class: desktop-class 100 Mops/s scaled by
	// core.ClassSpeedFactor.
	Speed float64
	// MTBF/MTTR parameterize exponential churn; zero MTBF means the device
	// never fails.
	MTBF time.Duration
	MTTR time.Duration
	// Faulty devices return corrupted results (their device index instead
	// of the true value) — the adversary QoC voting defends against.
	Faulty bool
}

// speed returns the effective Mops/s.
func (d DeviceSpec) speed() float64 {
	if d.Speed > 0 {
		return d.Speed
	}
	return 100 * core.ClassSpeedFactor(d.Class)
}

// TaskSpec describes one tasklet in the simulated workload.
type TaskSpec struct {
	// Fuel is the tasklet's work in VM operations.
	Fuel uint64
	// Arrival is when the consumer submits it.
	Arrival time.Duration
	QoC     core.QoC
	// Key is the tasklet's content identity: tasklets with the same nonzero
	// Key model submissions of identical (program, seed, params) content and
	// are eligible for result memoization and coalescing. Zero means unique
	// content (never memoized). A correct execution of a keyed tasklet
	// returns Int(Key), so repeats are bit-identical, as purity guarantees.
	Key uint64
	// Program is the tasklet's program hash, used only by the sharded
	// simulator as the consistent-hash routing key (RunSharded). Zero falls
	// back to Key, then to a per-task spread. Single-shard Run ignores it.
	Program uint64
}

// Config is a complete simulation scenario.
type Config struct {
	Devices []DeviceSpec
	Tasks   []TaskSpec
	// Policy is the placement policy; nil selects work_steal.
	Policy scheduler.Policy
	// Latency is the one-way broker<->provider message delay.
	Latency time.Duration
	// DetectDelay is how long after a device fails the broker notices
	// (heartbeat timeout). Zero selects 2s.
	DetectDelay time.Duration
	Seed        uint64
	// MaxTime aborts runaway scenarios. Zero selects 24h of virtual time.
	MaxTime time.Duration
	// Trace records a per-event timeline into Stats.Trace (see trace.go).
	Trace bool
	// MemoEntries, MemoBytes and MemoTTL bound the simulated broker's result
	// memo, mirroring broker.Options: zero selects the memo package defaults,
	// any negative value disables memoization and coalescing. TTL expiry runs
	// on the simulator's virtual clock.
	MemoEntries int
	MemoBytes   int
	MemoTTL     time.Duration
	// MaxAttempts caps the total attempts one tasklet may consume across
	// lost-attempt re-issues, mirroring broker.Options.MaxAttempts: zero (or
	// negative) means unlimited — the legacy behavior, bounded only by the
	// QoC retry budget. Cap exhaustion finalizes the tasklet as StatusLost.
	MaxAttempts int
	// RetryBackoff delays the n-th re-issue of a tasklet by
	// RetryBackoff << min(n-1, 6) of virtual time; zero re-issues
	// immediately (the legacy behavior).
	RetryBackoff time.Duration
}

// Stats is the outcome of a simulation run.
type Stats struct {
	// Makespan is the virtual time from first arrival to last completion.
	Makespan time.Duration
	// Completed and Failed count tasklets by final status.
	Completed int
	Failed    int
	// Attempts counts executions launched; LostAttempts those that died
	// with their device; WastedAttempts completed-but-redundant ones.
	Attempts       int
	LostAttempts   int
	WastedAttempts int
	// CacheHits counts tasklets served from the result memo without any
	// attempt; Coalesced counts tasklets that joined an identical in-flight
	// tasklet's fan-out instead of scheduling their own.
	CacheHits int
	Coalesced int
	// Latency is the per-tasklet submission-to-final-result distribution
	// (milliseconds of virtual time).
	Latency metrics.Summary
	// BusyTime is each device's cumulative execution time.
	BusyTime []time.Duration
	// DeviceExecuted counts attempts finished per device.
	DeviceExecuted []int
	// Trace is the event timeline, recorded only when Config.Trace is set.
	Trace []TraceEvent
	// Finals records every tasklet's final result, indexed like Config.Tasks.
	// The memo differential tests assert these are bit-identical with
	// memoization on and off.
	Finals []core.Result
}

// Utilization returns mean device busy fraction over the makespan.
func (s *Stats) Utilization(devices []DeviceSpec) float64 {
	if s.Makespan <= 0 || len(devices) == 0 {
		return 0
	}
	var frac float64
	for i, bt := range s.BusyTime {
		slots := devices[i].Slots
		if slots <= 0 {
			slots = 1
		}
		frac += float64(bt) / float64(s.Makespan) / float64(slots)
	}
	return frac / float64(len(s.BusyTime))
}

// attemptRec is one in-flight simulated execution — the transport/timing
// half of an attempt. The lifecycle half (which tasklet, abandoned or not)
// lives in the shared lifecycle engine.
type attemptRec struct {
	id       core.AttemptID
	tasklet  core.TaskletID
	device   int
	epoch    int // device incarnation at launch; stale completions are void
	started  time.Duration
	fuel     uint64
	content  uint64 // TaskSpec.Key; decides the canonical result value
	finished bool
}

// deviceState is the runtime state of one simulated device.
type deviceState struct {
	spec    DeviceSpec
	info    core.ProviderInfo
	up      bool
	epoch   int
	free    int
	backlog int
	busy    time.Duration
	done    int
}

// sim is the running world: a virtual-time driver of the shared lifecycle
// engine. The engine owns submission, memoization, coalescing, QoC decisions
// and finalization; the sim owns devices, virtual clocks, message latency,
// churn, and placement.
type sim struct {
	cfg     Config
	eng     *engine
	life    *lifecycle.Engine
	devices []*deviceState
	attempt map[core.AttemptID]*attemptRec
	pending []core.TaskletID
	memoOn  bool

	// index is the incremental placement index. Down devices stay indexed
	// with zero capacity rather than removed, so recovery is an O(log P)
	// weight flip, not a re-insertion.
	index *scheduler.Index
	// excl is the placement exclusion-list scratch, reused across picks.
	excl []core.ProviderID

	stats     Stats
	latency   *metrics.Histogram
	lastDone  time.Duration
	firstArr  time.Duration
	remaining int

	// overhead models the broker dispatcher's serialized CPU cost per
	// placement dispatch and per result processed; busyUntil is the virtual
	// time the dispatcher frees up. Zero overhead (plain Run) adds no events
	// and no delay, keeping single-broker behavior bit-identical. The
	// sharded simulator sets it so that splitting one dispatcher into N
	// actually buys throughput (see sharded.go).
	overhead  time.Duration
	busyUntil time.Duration
}

// normalize fills Config defaults shared by Run and RunSharded.
func (cfg Config) normalize() (Config, error) {
	if len(cfg.Devices) == 0 {
		return cfg, errors.New("sim: no devices")
	}
	if len(cfg.Tasks) == 0 {
		return cfg, errors.New("sim: no tasks")
	}
	if cfg.Policy == nil {
		cfg.Policy = scheduler.NewWorkSteal()
	}
	if cfg.DetectDelay <= 0 {
		cfg.DetectDelay = 2 * time.Second
	}
	if cfg.MaxTime <= 0 {
		cfg.MaxTime = 24 * time.Hour
	}
	return cfg, nil
}

// newSim builds one broker world — lifecycle engine, memo, devices, index —
// on the given event engine. Run uses exactly one; RunSharded builds one
// per shard over a shared engine. cfg must be normalized and its Devices
// are this world's devices only (Tasks stays the full list: shards need
// arrival/key lookups for any task index that migrates to them). It fails
// only for a policy without a placement index.
func newSim(cfg Config, eng *engine) (*sim, error) {
	index, err := scheduler.NewIndexFor(cfg.Policy)
	if err != nil {
		return nil, err
	}
	s := &sim{
		index:   index,
		cfg:     cfg,
		eng:     eng,
		attempt: map[core.AttemptID]*attemptRec{},
		latency: &metrics.Histogram{},
	}
	var opts lifecycle.Options
	opts.MaxAttempts = cfg.MaxAttempts
	opts.RetryBackoff = cfg.RetryBackoff
	if cfg.MemoEntries >= 0 && cfg.MemoBytes >= 0 && cfg.MemoTTL >= 0 {
		epoch := time.Unix(0, 0)
		opts.Memo = memo.New(memo.Config{
			MaxEntries: cfg.MemoEntries,
			MaxBytes:   cfg.MemoBytes,
			TTL:        cfg.MemoTTL,
			// TTL expiry must happen in virtual time, not wall time.
			Clock: func() time.Time { return epoch.Add(s.eng.now) },
		})
		opts.Flights = memo.NewFlightTable(nil, "")
		s.memoOn = true
	}
	s.life = lifecycle.New(opts)

	for i, spec := range cfg.Devices {
		if spec.Slots <= 0 {
			spec.Slots = 1
		}
		d := &deviceState{
			spec: spec,
			info: core.ProviderInfo{
				ID:          core.ProviderID(i + 1),
				Class:       spec.Class,
				Slots:       spec.Slots,
				Speed:       spec.speed(),
				Reliability: 1,
			},
			up:   true,
			free: spec.Slots,
		}
		s.devices = append(s.devices, d)
		if spec.MTBF > 0 {
			s.scheduleFailure(i)
		}
	}
	for _, d := range s.devices {
		s.index.Upsert(&d.info, d.free, 0)
	}
	s.stats.BusyTime = make([]time.Duration, len(s.devices))
	s.stats.DeviceExecuted = make([]int, len(s.devices))
	s.stats.Finals = make([]core.Result, len(cfg.Tasks))
	s.firstArr = time.Duration(-1)
	return s, nil
}

// Run executes the scenario and returns its statistics.
func Run(cfg Config) (*Stats, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	s, err := newSim(cfg, newEngine(cfg.Seed))
	if err != nil {
		return nil, err
	}
	s.remaining = len(cfg.Tasks)
	for i, tspec := range cfg.Tasks {
		fuel := tspec.Fuel
		if fuel == 0 {
			fuel = 1_000_000
		}
		t := core.Tasklet{
			ID: core.TaskletID(i + 1), Job: 1, Index: i,
			Fuel: fuel, QoC: tspec.QoC,
		}
		if s.firstArr < 0 || tspec.Arrival < s.firstArr {
			s.firstArr = tspec.Arrival
		}
		content := tspec.Key
		s.eng.at(tspec.Arrival, func() { s.onArrival(t, content) })
	}

	// Drive events until every tasklet is final. Churn events reschedule
	// themselves forever, so "queue empty" is not the termination
	// condition — "no tasklets remaining" is.
	for s.remaining > 0 {
		if len(s.eng.heap) > 0 && s.eng.heap[0].at > cfg.MaxTime {
			return nil, fmt.Errorf("sim: exceeded max virtual time %v with %d tasklets unfinished",
				cfg.MaxTime, s.remaining)
		}
		if !s.eng.step() {
			return nil, fmt.Errorf("sim: event queue drained with %d tasklets unfinished (fleet dead?)", s.remaining)
		}
	}

	s.stats.Makespan = s.lastDone - s.firstArr
	s.stats.Latency = s.latency.Snapshot()
	for i, d := range s.devices {
		s.stats.BusyTime[i] = d.busy
		s.stats.DeviceExecuted[i] = d.done
	}
	return &s.stats, nil
}

// ---------- world mechanics ----------

// apply executes the engine's effects against the simulated world. It
// reports whether any immediate launch was queued, so callers know to run a
// placement pass.
func (s *sim) apply(fx []lifecycle.Effect) (launched bool) {
	for _, ef := range fx {
		switch ef.Kind {
		case lifecycle.EffectLaunch:
			if ef.Delay > 0 {
				tid := ef.Tasklet
				s.eng.after(ef.Delay, func() {
					if !s.life.Live(tid) {
						return
					}
					s.pending = append(s.pending, tid)
					s.schedule()
				})
			} else {
				s.pending = append(s.pending, ef.Tasklet)
				launched = true
			}
		case lifecycle.EffectSetDeadline:
			tid := ef.Tasklet
			s.eng.after(ef.Delay, func() { s.onDeadline(tid) })
		case lifecycle.EffectCoalesced:
			s.stats.Coalesced++
		case lifecycle.EffectDeliver:
			s.recordFinal(ef)
		case lifecycle.EffectCancelAttempt:
			// Simulated providers have no cancellation channel: the
			// redundant execution runs to completion and is counted as
			// wasted (conservative for the overhead measurements).
		}
	}
	return launched
}

// recordFinal books one tasklet's final result into the run statistics.
func (s *sim) recordFinal(ef lifecycle.Effect) {
	final := ef.Final
	if ef.FromCache {
		s.stats.CacheHits++
	}
	s.remaining--
	s.stats.Finals[final.Index] = final
	s.trace(TraceFinal, -1, final.Index, 0, final.OK())
	if final.OK() {
		s.stats.Completed++
	} else {
		s.stats.Failed++
	}
	s.latency.Observe(float64(s.eng.now-s.cfg.Tasks[final.Index].Arrival) / 1e6)
	if s.eng.now > s.lastDone {
		s.lastDone = s.eng.now
	}
}

func (s *sim) onArrival(t core.Tasklet, content uint64) {
	s.trace(TraceArrival, -1, t.Index, 0, false)
	var key memo.Key
	var haveKey bool
	if s.memoOn && content != 0 {
		key, haveKey = memo.KeyFor(content, s.cfg.Seed, nil)
	}
	if s.apply(s.life.Submit(t, key, haveKey)) {
		s.schedule()
	}
}

func (s *sim) onDeadline(id core.TaskletID) {
	expired, fx := s.life.Deadline(id)
	if !expired {
		return
	}
	if s.apply(fx) {
		s.schedule()
	}
}

// schedule walks the placement queue like the live broker, feeding it
// through the incremental index; launch's Assign hook re-ranks the chosen
// device before the next pick.
func (s *sim) schedule() {
	if len(s.pending) == 0 {
		return
	}
	remaining := s.pending[:0]
	for idx, tid := range s.pending {
		if s.index.FreeSlots() <= 0 {
			remaining = append(remaining, s.pending[idx:]...)
			break
		}
		t := s.life.Tasklet(tid)
		if t == nil {
			continue
		}
		s.excl = s.life.AppendActiveProviders(tid, s.excl[:0])
		pid, ok := s.index.Pick(t, s.excl)
		if !ok {
			remaining = append(remaining, tid)
			continue
		}
		dev := s.devices[int(pid)-1]
		if !dev.up || dev.free <= 0 {
			remaining = append(remaining, tid)
			continue
		}
		s.launch(t, dev)
	}
	s.pending = remaining
}

// launch starts one attempt on dev; completion is scheduled after the
// network latency plus the device-speed-scaled execution time.
func (s *sim) launch(t *core.Tasklet, dev *deviceState) {
	aid, ok := s.life.Launched(t.ID, dev.info.ID)
	if !ok {
		return
	}
	devIdx := int(dev.info.ID) - 1
	rec := &attemptRec{
		id: aid, tasklet: t.ID, device: devIdx, epoch: dev.epoch,
		started: s.eng.now, fuel: t.Fuel, content: s.cfg.Tasks[t.Index].Key,
	}
	s.attempt[aid] = rec
	dev.free--
	dev.backlog++
	s.index.Assign(dev.info.ID)
	s.stats.Attempts++
	s.trace(TraceLaunch, devIdx, t.Index, int(aid), false)

	exec := execTime(t.Fuel, dev.info.Speed)
	total := 2*s.cfg.Latency + exec
	// The dispatch itself consumes serialized broker CPU before the Assign
	// leaves the broker (no-op when the overhead model is off).
	total += s.gate()
	s.eng.after(total, func() { s.onComplete(rec, exec) })
}

// gate charges one dispatcher operation against the broker-CPU model and
// returns how long the caller must wait for its turn. With no cost
// configured it returns 0 without touching any state.
func (s *sim) gate() time.Duration {
	if s.overhead <= 0 {
		return 0
	}
	start := s.busyUntil
	if start < s.eng.now {
		start = s.eng.now
	}
	s.busyUntil = start + s.overhead
	return s.busyUntil - s.eng.now
}

// execTime converts fuel to wall time at the given speed.
func execTime(fuel uint64, mopsPerSec float64) time.Duration {
	if mopsPerSec <= 0 {
		mopsPerSec = 0.001
	}
	return time.Duration(float64(fuel) / (mopsPerSec * 1e6) * float64(time.Second))
}

// onComplete fires when an attempt's result would arrive at the broker.
// Result processing consumes serialized broker CPU: under the overhead
// model the booking is deferred until the dispatcher frees up, otherwise it
// runs inline (no extra event, keeping plain Run bit-identical).
func (s *sim) onComplete(rec *attemptRec, exec time.Duration) {
	if rec.finished || s.devices[rec.device].epoch != rec.epoch {
		return // device died mid-execution; loss handled by detection
	}
	if d := s.gate(); d > 0 {
		s.eng.after(d, func() { s.completeReady(rec, exec) })
		return
	}
	s.completeReady(rec, exec)
}

func (s *sim) completeReady(rec *attemptRec, exec time.Duration) {
	dev := s.devices[rec.device]
	if rec.finished || dev.epoch != rec.epoch {
		return // device died while the result sat in the dispatcher queue
	}
	rec.finished = true
	delete(s.attempt, rec.id)
	dev.free++
	dev.backlog--
	s.index.Complete(dev.info.ID)
	dev.busy += exec
	dev.done++
	s.stats.DeviceExecuted[rec.device] = dev.done
	s.trace(TraceComplete, rec.device, int(rec.tasklet)-1, int(rec.id), false)

	canon := int64(rec.tasklet)
	if rec.content != 0 {
		canon = int64(rec.content) // keyed content: result depends on content only
	}
	ret := tvm.Int(canon) // canonical "correct" result
	if dev.spec.Faulty {
		ret = tvm.Int(int64(-1000 - rec.device)) // corrupted, device-specific
	}
	disp, fx := s.life.Result(core.Result{
		Attempt: rec.id, Tasklet: rec.tasklet, Provider: dev.info.ID,
		Status: core.StatusOK, Return: ret,
		FuelUsed: rec.fuel, Exec: exec,
	})
	if disp == lifecycle.ResultConsumed {
		s.apply(fx)
	} else {
		s.stats.WastedAttempts++
	}
	s.schedule()
}

// scheduleFailure arms the next failure of device i.
func (s *sim) scheduleFailure(i int) {
	dev := s.devices[i]
	wait := s.eng.exponential(dev.spec.MTBF)
	s.eng.after(wait, func() { s.onFail(i) })
}

func (s *sim) onFail(i int) {
	dev := s.devices[i]
	if !dev.up {
		return
	}
	dev.up = false
	dev.epoch++
	dev.free = 0
	dev.backlog = 0
	s.index.Upsert(&dev.info, 0, 0) // parked: zero capacity, stays indexed
	s.trace(TraceDeviceFail, i, 0, 0, false)

	// The broker discovers the loss after the detection delay and feeds
	// losses to the lifecycle engine.
	var lost []*attemptRec
	for _, rec := range s.attempt {
		if rec.device == i && !rec.finished {
			lost = append(lost, rec)
		}
	}
	s.eng.after(s.cfg.DetectDelay, func() {
		for _, rec := range lost {
			if rec.finished {
				continue
			}
			rec.finished = true
			delete(s.attempt, rec.id)
			s.stats.LostAttempts++
			s.trace(TraceLost, rec.device, int(rec.tasklet)-1, int(rec.id), false)
			_, fx := s.life.Result(core.Result{
				Attempt: rec.id, Tasklet: rec.tasklet,
				Provider: dev.info.ID, Status: core.StatusLost,
			})
			s.apply(fx)
		}
		s.schedule()
	})

	// Recovery.
	mttr := dev.spec.MTTR
	if mttr <= 0 {
		mttr = time.Minute
	}
	s.eng.after(s.eng.exponential(mttr), func() { s.onRecover(i) })
}

func (s *sim) onRecover(i int) {
	dev := s.devices[i]
	if dev.up {
		return
	}
	dev.up = true
	dev.free = dev.spec.Slots
	dev.backlog = 0
	s.index.Upsert(&dev.info, dev.free, 0)
	s.trace(TraceDeviceRecover, i, 0, 0, false)
	s.scheduleFailure(i)
	s.schedule()
}
