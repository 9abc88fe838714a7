package provider

import (
	"container/list"

	"repro/internal/core"
	"repro/internal/tvm"
)

// programLRU is a bounded cache of decoded programs with least-recently-used
// eviction. It is a decode cache only: assign frames carry their programs'
// bytes, so an evicted program is decoded again, not lost. Unbounded
// caching is unacceptable on small providers: a long-lived worker sees an
// open-ended stream of distinct programs and each decoded program retains
// its bytecode, constant pool and optimized streams. The zero value
// is not usable; call newProgramLRU. Not safe for concurrent use — the
// provider guards it with Provider.mu.
type programLRU struct {
	cap     int
	order   *list.List // front = most recently used; values are *lruEntry
	entries map[core.ProgramID]*list.Element
}

type lruEntry struct {
	id   core.ProgramID
	prog *tvm.Program
}

func newProgramLRU(capacity int) *programLRU {
	return &programLRU{
		cap:     capacity,
		order:   list.New(),
		entries: map[core.ProgramID]*list.Element{},
	}
}

// get returns the cached program and marks it most recently used.
func (c *programLRU) get(id core.ProgramID) (*tvm.Program, bool) {
	el, ok := c.entries[id]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).prog, true
}

// put inserts a program, evicting the least recently used entry when full.
func (c *programLRU) put(id core.ProgramID, prog *tvm.Program) {
	if el, ok := c.entries[id]; ok {
		c.order.MoveToFront(el)
		el.Value.(*lruEntry).prog = prog
		return
	}
	for len(c.entries) >= c.cap {
		back := c.order.Back()
		if back == nil {
			break
		}
		c.order.Remove(back)
		delete(c.entries, back.Value.(*lruEntry).id)
	}
	c.entries[id] = c.order.PushFront(&lruEntry{id: id, prog: prog})
}

func (c *programLRU) len() int { return len(c.entries) }
