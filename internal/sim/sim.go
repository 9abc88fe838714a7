package sim

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/lifecycle"
	"repro/internal/memo"
	"repro/internal/metrics"
	"repro/internal/scheduler"
	"repro/internal/tvm"
	"repro/internal/wire"
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
}

// Config is a complete simulation scenario.
type Config struct {
	Devices []DeviceSpec
	Tasks   []TaskSpec
	// Policy is the placement policy; the zero value is work_steal.
	Policy scheduler.Policy
	// Latency is the one-way broker<->provider message delay: assigns,
	// cancels and results each take it.
	Latency time.Duration
	// DetectDelay is how long after a device fails the broker notices
	// (heartbeat timeout); until then the broker still places work on it.
	// Zero selects 2s.
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
	// MaxAttempts and RetryBackoff are broker.Options' fields of the same
	// names; the backoff runs on virtual time.
	MaxAttempts  int
	RetryBackoff time.Duration
}

// Stats is the outcome of a simulation run.
type Stats struct {
	// Makespan is the virtual time from first arrival to last completion.
	Makespan time.Duration
	// Completed and Failed count tasklets by final status.
	Completed int
	Failed    int
	// Attempts counts attempts placed; LostAttempts those that died with
	// their device; WastedAttempts those whose result came back after their
	// tasklet stopped needing it (cancelled, or redundant).
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
	// BusyTime is each device's cumulative execution time: attempts it ran
	// to completion, and cancelled ones up to their cancel.
	BusyTime []time.Duration
	// DeviceExecuted counts the attempts each device ran to completion.
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

// sim is the running world: the virtual-time driver of the scheduler core,
// which owns everything the broker decides. The sim owns the clock, the
// devices, latency, churn and the run's statistics.
type sim struct {
	cfg     Config
	eng     *engine
	core    *dispatch.Core
	reg     *metrics.Registry
	devices []*device
	memoOn  bool
	dirty   bool // the core asked for a placement pass during this event

	stats     Stats
	latency   *metrics.Histogram
	lastDone  time.Duration
	firstArr  time.Duration
	remaining int
}

// Run executes the scenario and returns its statistics.
func Run(cfg Config) (*Stats, error) {
	if len(cfg.Devices) == 0 {
		return nil, errors.New("sim: no devices")
	}
	if len(cfg.Tasks) == 0 {
		return nil, errors.New("sim: no tasks")
	}
	if cfg.DetectDelay <= 0 {
		cfg.DetectDelay = 2 * time.Second
	}
	if cfg.MaxTime <= 0 {
		cfg.MaxTime = 24 * time.Hour
	}
	s := &sim{
		cfg:     cfg,
		eng:     newEngine(cfg.Seed),
		reg:     &metrics.Registry{},
		latency: &metrics.Histogram{},
	}
	dcfg := dispatch.Config{
		Policy:       cfg.Policy,
		Partitions:   1, // the stripe count is the host's, not the fleet's (package doc)
		MaxAttempts:  cfg.MaxAttempts,
		RetryBackoff: cfg.RetryBackoff,
		Metrics:      s.reg,
	}
	if cfg.MemoEntries >= 0 && cfg.MemoBytes >= 0 && cfg.MemoTTL >= 0 {
		epoch := time.Unix(0, 0)
		dcfg.Memo = memo.New(memo.Config{
			MaxEntries: cfg.MemoEntries,
			MaxBytes:   cfg.MemoBytes,
			TTL:        cfg.MemoTTL,
			// TTL expiry must happen in virtual time, not wall time.
			Clock: func() time.Time { return epoch.Add(s.eng.now) },
		})
		s.memoOn = true
	}
	s.core = dispatch.New(dcfg, s)

	for i, spec := range cfg.Devices {
		if spec.Slots <= 0 {
			spec.Slots = 1
		}
		d := &device{s: s, idx: i, spec: spec, up: true, held: map[core.AttemptID]*attempt{}}
		d.prov = dispatch.NewProvider(core.ProviderInfo{ID: core.ProviderID(i + 1)}, d)
		d.results = s.core.NewResults(d.prov)
		s.devices = append(s.devices, d)
		s.register(d)
		if spec.MTBF > 0 {
			s.scheduleFailure(d)
		}
	}
	s.stats.Finals = make([]core.Result, len(cfg.Tasks))
	s.firstArr = time.Duration(-1)
	s.remaining = len(cfg.Tasks)
	for i, tspec := range cfg.Tasks {
		fuel := tspec.Fuel
		if fuel == 0 {
			fuel = 1_000_000
		}
		t := core.Tasklet{Job: 1, Index: i, Fuel: fuel, QoC: tspec.QoC}
		if s.firstArr < 0 || tspec.Arrival < s.firstArr {
			s.firstArr = tspec.Arrival
		}
		content := tspec.Key
		s.eng.at(tspec.Arrival, func() { s.onArrival(t, content) })
	}

	// Drive events until every tasklet is final, running a placement pass
	// after each event that asked for one. Churn events reschedule
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
		if s.dirty {
			s.dirty = false
			s.core.Pass()
		}
	}

	s.stats.Makespan = s.lastDone - s.firstArr
	s.stats.Latency = s.latency.Snapshot()
	s.stats.Attempts = int(s.reg.Counter("attempts.launched").Value())
	s.stats.LostAttempts = int(s.reg.Counter("attempts.lost").Value())
	s.stats.WastedAttempts = int(s.reg.Counter("attempts.wasted").Value())
	s.stats.Coalesced = int(s.reg.Counter("memo.coalesced").Value())
	for _, d := range s.devices {
		s.stats.BusyTime = append(s.stats.BusyTime, d.busy)
		s.stats.DeviceExecuted = append(s.stats.DeviceExecuted, d.done)
	}
	return &s.stats, nil
}

// ---------- the core's driver ----------

// AfterFunc arms f on the virtual clock.
func (s *sim) AfterFunc(d time.Duration, f func()) dispatch.Timer { return s.eng.after(d, f) }

// Schedule asks for a placement pass once the current event is done.
func (s *sim) Schedule() { s.dirty = true }

// Deliver books one tasklet's final result into the run statistics.
func (s *sim) Deliver(ef *lifecycle.Effect) {
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
	s.lastDone = s.eng.now // events run in time order
}

func (s *sim) onArrival(t core.Tasklet, content uint64) {
	s.trace(TraceArrival, -1, t.Index, 0, false)
	var key memo.Key
	var haveKey bool
	if s.memoOn && content != 0 {
		key, haveKey = memo.KeyFor(content, s.cfg.Seed, nil)
	}
	ev, _ := s.core.SubmitEvent(t, uint64(t.Index)+1, key, haveKey) // one stripe: the ID is Index+1
	s.core.Feed([][]lifecycle.Event{{ev}})
}

// ---------- devices ----------

// attempt is one attempt as its device sees it.
type attempt struct {
	id      core.AttemptID
	tasklet core.TaskletID
	fuel    uint64
	epoch   int           // the device's epoch when it was assigned
	start   time.Duration // when it began running
	done    *event        // its completion, armed once it runs
}

// device is one simulated provider: the device model behind the link the
// core sends it assigns and cancels through.
type device struct {
	s       *sim
	idx     int
	spec    DeviceSpec
	prov    *dispatch.Provider
	results *dispatch.Results

	up bool
	// registered is whether the core holds prov: a failed device stays
	// registered until its loss is detected. session counts registrations.
	registered bool
	session    int
	// epoch counts failures and recoveries; an attempt assigned in an
	// earlier one never runs.
	epoch int
	// held is every attempt the broker counts outstanding here: assigned,
	// and its result not yet arrived.
	held    map[core.AttemptID]*attempt
	running int
	queue   []*attempt // FIFO behind the slots
	busy    time.Duration
	done    int
}

// Assign is an assign frame on its way: the attempts reach the device one
// latency later.
func (d *device) Assign(ab *wire.AssignBatch) {
	batch := make([]*attempt, len(ab.Assigns))
	for i, a := range ab.Assigns {
		at := &attempt{id: a.Attempt, tasklet: a.Tasklet, fuel: a.Fuel, epoch: d.epoch}
		batch[i] = at
		d.held[at.id] = at
		d.s.trace(TraceLaunch, d.idx, int(at.tasklet)-1, int(at.id), false)
	}
	d.s.eng.after(d.s.cfg.Latency, func() {
		if batch[0].epoch != d.epoch || !d.up {
			return // a device that is down, or failed since, never sees them
		}
		d.queue = append(d.queue, batch...)
		d.startQueued()
	})
}

// Cancel is a cancel frame on its way: one latency later it stops the
// attempt, queued or running, which the device then reports as
// FaultCancelled with the time it ran. A running one frees its slot and
// books only that time as busy.
func (d *device) Cancel(aid core.AttemptID) {
	at := d.held[aid]
	if at == nil {
		return
	}
	d.s.eng.after(d.s.cfg.Latency, func() {
		if at.epoch != d.epoch {
			return // a failure took it
		}
		var ran time.Duration
		switch i := slices.Index(d.queue, at); {
		case i >= 0:
			d.queue = slices.Delete(d.queue, i, i+1)
		case at.done != nil && at.done.Stop():
			ran = d.s.eng.now - at.start
			d.running--
			d.busy += ran
			defer d.startQueued() // the freed slot takes the next queued attempt
		default:
			return // it finished first: its result is on its way
		}
		d.reply(at, &wire.AttemptResult{
			Attempt: at.id, Tasklet: at.tasklet, Status: core.StatusFault,
			FaultCode: tvm.FaultCancelled, FaultMsg: "execution cancelled by host", ExecNanos: int64(ran),
		})
	})
}

// startQueued fills free slots from the front of the queue.
func (d *device) startQueued() {
	for d.running < d.spec.Slots && len(d.queue) > 0 {
		at := d.queue[0]
		d.queue = d.queue[1:]
		d.running++
		exec := execTime(at.fuel, d.spec.speed())
		at.start = d.s.eng.now
		at.done = d.s.eng.after(exec, func() { d.finish(at, exec) })
	}
}

// finish completes a running attempt and sends its result, unless the
// device failed while it ran.
func (d *device) finish(at *attempt, exec time.Duration) {
	if at.epoch != d.epoch {
		return
	}
	d.running--
	d.busy += exec
	d.done++
	d.s.trace(TraceComplete, d.idx, int(at.tasklet)-1, int(at.id), false)

	canon := int64(at.tasklet)
	if content := d.s.cfg.Tasks[at.tasklet-1].Key; content != 0 {
		canon = int64(content) // keyed content: result depends on content only
	}
	ret := tvm.Int(canon) // canonical "correct" result
	if d.spec.Faulty {
		ret = tvm.Int(int64(-1000 - d.idx)) // corrupted, device-specific
	}
	d.reply(at, &wire.AttemptResult{
		Attempt: at.id, Tasklet: at.tasklet, Status: core.StatusOK,
		Return: ret, FuelUsed: at.fuel, ExecNanos: int64(exec),
	})
	d.startQueued()
}

// reply sends a result frame; the core applies it one latency later, as
// the live broker applies a provider's result burst.
func (d *device) reply(at *attempt, m *wire.AttemptResult) {
	d.s.eng.after(d.s.cfg.Latency, func() {
		delete(d.held, at.id)
		d.results.Add(m)
		d.results.Apply()
	})
}

// execTime converts fuel to wall time at the given speed.
func execTime(fuel uint64, mopsPerSec float64) time.Duration {
	if mopsPerSec <= 0 {
		mopsPerSec = 0.001
	}
	return time.Duration(float64(fuel) / (mopsPerSec * 1e6) * float64(time.Second))
}

// register (re)joins d to the broker with every slot free, advertising the
// queued places a live provider with its slots has. A recovered device
// keeps its provider record, so its reliability estimate remembers the
// attempts it lost.
func (s *sim) register(d *device) {
	s.core.Register(d.prov, &wire.Register{
		Slots: d.spec.Slots, Class: d.spec.Class, Speed: d.spec.speed(),
		Queue: d.spec.Slots * wire.QueuePerSlot,
	})
	d.registered = true
	d.session++
}

// ---------- churn ----------

// scheduleFailure arms the next failure of d.
func (s *sim) scheduleFailure(d *device) {
	wait := s.eng.exponential(d.spec.MTBF)
	s.eng.after(wait, func() { s.onFail(d) })
}

// onFail stops d where it stands: queued and running attempts die with it,
// and results it had not sent are never sent. The broker learns of it only
// when the detection delay has passed; until then it keeps placing work on
// d.
func (s *sim) onFail(d *device) {
	d.up = false
	d.epoch++
	d.running, d.queue = 0, nil
	s.trace(TraceDeviceFail, d.idx, 0, 0, false)

	session := d.session
	s.eng.after(s.cfg.DetectDelay, func() {
		if d.registered && d.session == session {
			s.detect(d)
		}
	})
	mttr := d.spec.MTTR
	if mttr <= 0 {
		mttr = time.Minute
	}
	s.eng.after(s.eng.exponential(mttr), func() { s.onRecover(d) })
}

// detect is the broker noticing d's failure: the core re-issues every
// attempt d held as lost. A device that recovered in the meantime
// registers again at once.
func (s *sim) detect(d *device) {
	for _, aid := range s.core.RemoveProvider(d.prov) {
		s.trace(TraceLost, d.idx, int(d.held[aid].tasklet)-1, int(aid), false)
	}
	clear(d.held)
	d.registered = false
	if d.up {
		s.register(d)
	}
}

// onRecover brings d back. A device whose failure the broker has not
// detected yet rejoins when it is detected: until then the broker holds
// its old session, placements included.
func (s *sim) onRecover(d *device) {
	d.up = true
	d.epoch++
	if !d.registered {
		s.register(d)
	}
	s.trace(TraceDeviceRecover, d.idx, 0, 0, false)
	s.scheduleFailure(d)
}
