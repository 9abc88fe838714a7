package provider

import (
	"container/list"

	"repro/internal/tvm"
)

// programLRU is a bounded cache of decoded programs with least-recently-used
// eviction, keyed by the bytecode itself: a hit copies nothing, compares
// the full bytes and trusts no name. It is a decode cache only: assign frames carry their
// programs' bytes, so an evicted program is decoded again, not lost.
// Unbounded caching is unacceptable on small providers: a long-lived worker
// sees an open-ended stream of distinct programs and each decoded program
// retains its bytecode, constant pool and optimized streams. The zero value
// is not usable; call newProgramLRU. Not safe for concurrent use — the
// provider guards it with Provider.mu.
type programLRU struct {
	cap     int
	order   *list.List // front = most recently used; values are *lruEntry
	entries map[string]*list.Element
}

type lruEntry struct {
	data string
	prog *tvm.Program
}

func newProgramLRU(capacity int) *programLRU {
	return &programLRU{
		cap:     capacity,
		order:   list.New(),
		entries: map[string]*list.Element{},
	}
}

// get returns the program cached for data and marks it most recently used.
func (c *programLRU) get(data []byte) (*tvm.Program, bool) {
	el, ok := c.entries[string(data)]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).prog, true
}

// put inserts a program, evicting the least recently used entry when full.
func (c *programLRU) put(data []byte, prog *tvm.Program) {
	if el, ok := c.entries[string(data)]; ok {
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
		delete(c.entries, back.Value.(*lruEntry).data)
	}
	key := string(data)
	c.entries[key] = c.order.PushFront(&lruEntry{data: key, prog: prog})
}

func (c *programLRU) len() int { return len(c.entries) }
