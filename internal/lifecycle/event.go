package lifecycle

import (
	"repro/internal/core"
	"repro/internal/memo"
)

// EventKind discriminates the bulk-applicable lifecycle events.
type EventKind uint8

// Bulk event kinds. Submit and Result are the two high-rate events — the
// ones batch wire frames carry in bursts; the low-rate events (ProviderLost,
// Deadline, Cancel) keep their dedicated methods.
const (
	EventSubmit EventKind = iota + 1
	EventResult
)

// Event is one element of a bulk Apply: either a tasklet submission or an
// attempt outcome. Result events get their Disposition written back in
// place, so the driver can settle slot accounting for the whole burst after
// one engine call.
type Event struct {
	Kind EventKind

	// EventSubmit fields.
	Tasklet core.Tasklet
	Key     memo.Key
	HaveKey bool

	// EventResult input.
	Result core.Result
	// Disp is EventResult's output, written by Apply.
	Disp Disposition
}

// Apply feeds a burst of events through the engine under one effect-scratch
// reset and returns the concatenated effects, in event order: the driver
// pays one call, one effects walk and one slice reset per burst instead of
// per event. Effects are valid until the next engine call, like every other
// event method.
func (e *Engine) Apply(evs []Event) []Effect {
	e.fx = e.fx[:0]
	for i := range evs {
		ev := &evs[i]
		switch ev.Kind {
		case EventSubmit:
			e.submit(ev.Tasklet, ev.Key, ev.HaveKey)
		case EventResult:
			ev.Disp = e.result(ev.Result)
		}
	}
	return e.fx
}
