package lifecycle

import (
	"repro/internal/core"
	"repro/internal/memo"
)

// The tests drive the engine one event at a time. Submit and Result are
// Apply for a burst of one.

// Submit admits one tasklet and returns its effects.
func (e *Engine) Submit(t core.Tasklet, key memo.Key, haveKey bool) []Effect {
	e.fx = e.fx[:0]
	e.submit(t, key, haveKey)
	return e.fx
}

// Result feeds one attempt outcome; effects accompany ResultConsumed only.
func (e *Engine) Result(res core.Result) (Disposition, []Effect) {
	e.fx = e.fx[:0]
	disp := e.result(res)
	if disp != ResultConsumed {
		return disp, nil
	}
	return disp, e.fx
}
