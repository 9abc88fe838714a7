package dispatch

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/tvm"
	"repro/internal/wire"
)

// fakeDriver records what the core asks of its driver; its timers fire
// only when a test calls fire.
type fakeDriver struct {
	timers []*fakeTimer
	finals []lifecycle.Effect
}

type fakeTimer struct {
	f       func()
	stopped bool
}

func (t *fakeTimer) Stop() bool {
	was := !t.stopped
	t.stopped = true
	return was
}

func (d *fakeDriver) AfterFunc(_ time.Duration, f func()) Timer {
	t := &fakeTimer{f: f}
	d.timers = append(d.timers, t)
	return t
}
func (d *fakeDriver) Schedule()                    {}
func (d *fakeDriver) Deliver(ef *lifecycle.Effect) { d.finals = append(d.finals, *ef) }

// fire runs every armed, unstopped timer once.
func (d *fakeDriver) fire() {
	timers := d.timers
	d.timers = nil
	for _, t := range timers {
		if !t.stopped {
			t.f()
		}
	}
}

// fakeLink records what the core sends one provider.
type fakeLink struct {
	assigns []wire.Assign
	cancels []core.AttemptID
}

func (l *fakeLink) Assign(ab *wire.AssignBatch) { l.assigns = append(l.assigns, ab.Assigns...) }
func (l *fakeLink) Cancel(aid core.AttemptID)   { l.cancels = append(l.cancels, aid) }

// newTestCore builds a one-stripe core without memo on a fake driver.
func newTestCore() (*Core, *fakeDriver) {
	d := &fakeDriver{}
	return New(Config{}, d), d
}

// addTestProvider registers a provider with the given slots and no queue.
func addTestProvider(c *Core, id core.ProviderID, slots int) (*Provider, *fakeLink) {
	l := &fakeLink{}
	p := NewProvider(core.ProviderInfo{ID: id}, l)
	c.Register(p, &wire.Register{Slots: slots, Speed: 100})
	return p, l
}

// submit feeds n tasklets with the given QoC and returns their IDs.
func submit(c *Core, seq *uint64, n int, q core.QoC) []core.TaskletID {
	groups := make([][]lifecycle.Event, c.Partitions())
	var tids []core.TaskletID
	for i := 0; i < n; i++ {
		*seq++
		ev, pi := c.SubmitEvent(core.Tasklet{Job: 1, Index: i, Fuel: 1000, QoC: q}, *seq, "", false)
		groups[pi] = append(groups[pi], ev)
		tids = append(tids, ev.Tasklet.ID)
	}
	c.Feed(groups)
	return tids
}

func taskletsOf(as []wire.Assign) []core.TaskletID {
	var tids []core.TaskletID
	for _, a := range as {
		tids = append(tids, a.Tasklet)
	}
	return tids
}

// TestCreditsFollowExecMean: queued credits are Slots × ⌊TinyExecNanos /
// execMean⌋ up to the advertised queue, on top of the free slots, and
// never negative.
func TestCreditsFollowExecMean(t *testing.T) {
	for _, tc := range []struct {
		mean time.Duration
		free int64
		want int
	}{
		{wire.TinyExecNanos, 2, 2},
		{30 * time.Microsecond, 2, 4},
		{20 * time.Microsecond, 2, 6},
		{time.Microsecond, 2, 12},
		{time.Microsecond, -3, 7},
		{wire.TinyExecNanos, -3, 0},
	} {
		p := NewProvider(core.ProviderInfo{ID: 1, Slots: 2}, &fakeLink{})
		p.queue = 10
		p.free.Store(tc.free)
		p.execMean.Store(int64(tc.mean))
		if got := p.credits(); got != tc.want {
			t.Errorf("mean %v, free %d: credits %d, want %d", tc.mean, tc.free, got, tc.want)
		}
	}
}

// TestRemoveProviderReissuesInLaunchOrder: a lost provider's attempts are
// reported lost oldest first, and their re-issues reach the next provider
// in the order they were first launched.
func TestRemoveProviderReissuesInLaunchOrder(t *testing.T) {
	c, _ := newTestCore()
	var seq uint64
	doomed, dl := addTestProvider(c, 1, 8)
	submit(c, &seq, 8, core.QoC{})
	c.Pass()
	if len(dl.assigns) != 8 {
		t.Fatalf("doomed provider got %d attempts, want 8", len(dl.assigns))
	}
	lost := c.RemoveProvider(doomed)
	var launched []core.AttemptID
	for _, a := range dl.assigns {
		launched = append(launched, a.Attempt)
	}
	if !reflect.DeepEqual(lost, launched) {
		t.Fatalf("lost %v, want the launch order %v", lost, launched)
	}
	if again := c.RemoveProvider(doomed); again != nil {
		t.Fatalf("second removal lost %v, want nothing", again)
	}
	_, sl := addTestProvider(c, 2, 8)
	c.Pass()
	if got, want := taskletsOf(sl.assigns), taskletsOf(dl.assigns); !reflect.DeepEqual(got, want) {
		t.Fatalf("re-issued %v, want the first launch order %v", got, want)
	}
}

// TestCancelDropsQueuedAndCancelsPlaced: cancelling tasklets revokes their
// placed attempts through the provider's link and empties the placement
// queue of the ones still waiting.
func TestCancelDropsQueuedAndCancelsPlaced(t *testing.T) {
	c, d := newTestCore()
	var seq uint64
	_, l := addTestProvider(c, 1, 1)
	tids := submit(c, &seq, 3, core.QoC{})
	c.Pass()
	if len(l.assigns) != 1 || c.Pending() != 2 {
		t.Fatalf("%d placed and %d queued, want 1 and 2", len(l.assigns), c.Pending())
	}
	if dropped := c.Cancel(tids); dropped != 3 {
		t.Fatalf("dropped %d, want 3", dropped)
	}
	if !reflect.DeepEqual(l.cancels, []core.AttemptID{l.assigns[0].Attempt}) {
		t.Fatalf("cancels %v, want the placed attempt %d", l.cancels, l.assigns[0].Attempt)
	}
	if c.Pending() != 0 || c.Live() != 0 || len(d.finals) != 0 {
		t.Fatalf("pending %d, live %d, finals %d after cancel, want none", c.Pending(), c.Live(), len(d.finals))
	}
}

// TestDeadlineFiresThroughDriverTimer: a QoC deadline is a driver timer;
// when it fires the tasklet is delivered as a deadline fault, and its
// attempt is cancelled.
func TestDeadlineFiresThroughDriverTimer(t *testing.T) {
	c, d := newTestCore()
	var seq uint64
	_, l := addTestProvider(c, 1, 1)
	submit(c, &seq, 1, core.QoC{Deadline: time.Second})
	c.Pass()
	if c.ArmedDeadlines() != 1 || len(l.assigns) != 1 {
		t.Fatalf("%d deadlines armed, %d attempts placed, want 1 and 1", c.ArmedDeadlines(), len(l.assigns))
	}
	d.fire()
	if len(d.finals) != 1 || d.finals[0].Final.Status != core.StatusFault {
		t.Fatalf("finals %+v, want one deadline fault", d.finals)
	}
	if c.ArmedDeadlines() != 0 || len(l.cancels) != 1 {
		t.Fatalf("%d deadlines armed, %d cancels sent after expiry, want 0 and 1", c.ArmedDeadlines(), len(l.cancels))
	}
}

// TestClosedCoreIgnoresTimers: once the core is closed, a backoff re-issue
// that comes due queues nothing.
func TestClosedCoreIgnoresTimers(t *testing.T) {
	d := &fakeDriver{}
	c := New(Config{RetryBackoff: time.Second}, d)
	var seq uint64
	p, _ := addTestProvider(c, 1, 1)
	submit(c, &seq, 1, core.QoC{})
	c.Pass()
	c.RemoveProvider(p)
	if len(d.timers) != 1 || c.Pending() != 0 {
		t.Fatalf("%d timers, %d pending after the loss, want the backoff timer alone", len(d.timers), c.Pending())
	}
	c.Close()
	d.fire()
	if c.Pending() != 0 {
		t.Fatalf("a closed core queued %d re-issues", c.Pending())
	}
}

// TestCancelledResultsLeaveExecMean: a provider reports cancelled attempts
// as FaultCancelled with the time they ran, none for a queued one and part
// of a run for a running one. Neither is an execution time, so the
// provider's mean and, through it, its queued credits stay where they were.
func TestCancelledResultsLeaveExecMean(t *testing.T) {
	c, _ := newTestCore()
	var seq uint64
	l := &fakeLink{}
	p := NewProvider(core.ProviderInfo{ID: 1}, l)
	const mean = 20 * time.Microsecond // two queued places behind the slot
	p.execMean.Store(int64(mean))
	c.Register(p, &wire.Register{Slots: 1, Speed: 100, Queue: 10})
	before := c.Credits(p)
	tids := submit(c, &seq, before, core.QoC{})
	c.Pass()
	if len(l.assigns) != before || c.Credits(p) != 0 {
		t.Fatalf("placed %d with %d credits left, want %d and 0", len(l.assigns), c.Credits(p), before)
	}
	c.Cancel(tids)
	rs := c.NewResults(p)
	for i, a := range l.assigns {
		exec := time.Duration(0) // still queued when the cancel landed
		if i == 0 {
			exec = 3 * time.Microsecond // cut short mid-run
		}
		rs.Add(&wire.AttemptResult{
			Attempt: a.Attempt, Tasklet: a.Tasklet, Status: core.StatusFault,
			FaultCode: tvm.FaultCancelled, ExecNanos: int64(exec),
		})
	}
	rs.Apply()
	if got := p.ExecMean(); got != mean {
		t.Errorf("execution-time mean %v after cancelled results, want %v", got, mean)
	}
	if got := c.Credits(p); got != before {
		t.Errorf("credits %d after cancelled results, want %d", got, before)
	}
}
