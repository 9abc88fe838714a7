package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// bufPool recycles frame scratch buffers across the encode and receive hot
// paths. Buffers that grew past maxPooledBuf (a huge program shipment, a
// giant parameter set) are dropped rather than pinned in the pool.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

const maxPooledBuf = 64 << 10

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(bp *[]byte) {
	if cap(*bp) > maxPooledBuf {
		return
	}
	*bp = (*bp)[:0]
	bufPool.Put(bp)
}

// encPool recycles encoder state. The encoder is handed to Message.encode
// through an interface call, which the compiler cannot devirtualize, so a
// stack-allocated enc would escape on every frame; pooling it keeps the
// encode hot path allocation-free.
var encPool = sync.Pool{New: func() any { return new(enc) }}

// AppendFrame encodes m as a complete frame (length, type, payload) appended
// to dst, and returns the extended slice. It is the allocation-free core of
// Marshal: encoding writes directly into dst's spare capacity, so a caller
// that reuses its buffer pays zero allocations per message. The emitted
// bytes are identical to Marshal's.
func AppendFrame(dst []byte, m Message) ([]byte, error) {
	base := len(dst)
	dst = append(dst, 0, 0, 0, 0, byte(m.Type()))
	e := encPool.Get().(*enc)
	e.buf, e.err = dst, nil
	m.encode(e)
	buf, err := e.buf, e.err
	e.buf, e.err = nil, nil
	encPool.Put(e)
	if err != nil {
		return dst[:base], fmt.Errorf("wire: encode %s: %w", m.Type(), err)
	}
	n := len(buf) - base - 5
	if n > MaxFrame {
		return buf[:base], fmt.Errorf("wire: %s payload %d exceeds frame limit", m.Type(), n)
	}
	binary.BigEndian.PutUint32(buf[base:base+4], uint32(n))
	return buf, nil
}

// Marshal encodes a message into a complete frame (length, type, payload).
// Encoding runs through a pooled scratch buffer, so the only allocation is
// the exact-size caller-owned frame returned — small messages (Heartbeat,
// Bye) no longer pay append-growth reallocations on top. The hot send path
// (Conn.Send / Conn.SendBatch) skips even that copy by writing pooled
// buffers straight into the connection.
func Marshal(m Message) ([]byte, error) {
	bp := getBuf()
	frame, err := AppendFrame((*bp)[:0], m)
	if err != nil {
		putBuf(bp)
		return nil, err
	}
	out := make([]byte, len(frame))
	copy(out, frame)
	*bp = frame
	putBuf(bp)
	return out, nil
}

// Unmarshal decodes a payload of the given type. The payload is fully
// copied during decoding; the message never aliases it.
func Unmarshal(t MsgType, payload []byte) (Message, error) {
	m, err := newMessage(t)
	if err != nil {
		return nil, err
	}
	d := dec{buf: payload}
	m.decode(&d)
	if err := d.finish(); err != nil {
		return nil, fmt.Errorf("wire: decode %s: %w", t, err)
	}
	return m, nil
}

// Conn wraps a net.Conn with buffered, mutex-protected message I/O. Reads
// and writes may proceed concurrently (one reader, any number of writers).
//
// Flush policy (write coalescing): each Send writes its frame into the
// buffered writer under the write lock, then flushes only if it is the last
// writer in flight — when another Send or SendBatch has already registered
// (it will acquire the lock next), the flush is left to it, so one syscall
// covers the whole burst. A lone Send therefore still flushes immediately:
// coalescing never delays a frame behind an idle line, it only merges
// flushes that would otherwise race each other.
type Conn struct {
	nc net.Conn
	r  *bufio.Reader

	// writers counts Send/SendBatch calls registered but not yet finished;
	// the writer that drops it to zero owns the flush.
	writers atomic.Int32

	wmu sync.Mutex
	w   *bufio.Writer

	// ReadTimeout, when nonzero, bounds each ReadMessage call.
	ReadTimeout time.Duration
}

// NewConn wraps nc.
func NewConn(nc net.Conn) *Conn {
	return &Conn{
		nc: nc,
		r:  bufio.NewReaderSize(nc, 64<<10),
		w:  bufio.NewWriterSize(nc, 64<<10),
	}
}

// writeLocked encodes m through a pooled buffer into the buffered writer.
// Callers must hold wmu.
func (c *Conn) writeLocked(m Message) error {
	bp := getBuf()
	frame, err := AppendFrame((*bp)[:0], m)
	if err != nil {
		putBuf(bp)
		return err
	}
	_, werr := c.w.Write(frame)
	*bp = frame
	putBuf(bp)
	if werr != nil {
		return fmt.Errorf("wire: send %s: %w", m.Type(), werr)
	}
	return nil
}

// flushIfLastLocked performs the coalesced flush: the writer that drops the
// in-flight count to zero flushes for everyone. Callers must hold wmu and
// have registered themselves in c.writers.
func (c *Conn) flushIfLastLocked() error {
	if c.writers.Add(-1) == 0 {
		if err := c.w.Flush(); err != nil {
			return fmt.Errorf("wire: flush: %w", err)
		}
	}
	return nil
}

// Send encodes and writes one message. Safe for concurrent use; see the
// Conn doc for the flush policy.
func (c *Conn) Send(m Message) error {
	c.writers.Add(1)
	c.wmu.Lock()
	defer c.wmu.Unlock()
	err := c.writeLocked(m)
	if ferr := c.flushIfLastLocked(); err == nil {
		err = ferr
	}
	return err
}

// SendBatch encodes and writes every message in order under one lock
// acquisition and at most one flush. The byte stream is identical to
// calling Send for each message; only the flush boundaries differ. Safe for
// concurrent use with Send and other SendBatch calls.
func (c *Conn) SendBatch(ms []Message) error {
	if len(ms) == 0 {
		return nil
	}
	c.writers.Add(1)
	c.wmu.Lock()
	defer c.wmu.Unlock()
	var err error
	for _, m := range ms {
		if err = c.writeLocked(m); err != nil {
			break
		}
	}
	if ferr := c.flushIfLastLocked(); err == nil {
		err = ferr
	}
	return err
}

// Recv reads and decodes the next message. Only one goroutine may call
// Recv at a time. The payload is staged in a pooled buffer (decoding copies
// every field, so the buffer is recycled immediately).
func (c *Conn) Recv() (Message, error) {
	if c.ReadTimeout > 0 {
		if err := c.nc.SetReadDeadline(time.Now().Add(c.ReadTimeout)); err != nil {
			return nil, err
		}
	} else if err := c.nc.SetReadDeadline(time.Time{}); err != nil {
		// A deadline armed by an earlier Recv (e.g. during the handshake)
		// must not linger once the timeout is disabled.
		return nil, err
	}
	var hdr [5]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	t := MsgType(hdr[4])
	bp := getBuf()
	var payload []byte
	if cap(*bp) >= int(n) {
		payload = (*bp)[:n]
	} else {
		payload = make([]byte, n)
		*bp = payload
	}
	if _, err := io.ReadFull(c.r, payload); err != nil {
		putBuf(bp)
		return nil, fmt.Errorf("wire: reading %s payload: %w", t, err)
	}
	m, err := Unmarshal(t, payload)
	putBuf(bp)
	return m, err
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.nc.Close() }

// RemoteAddr reports the peer address.
func (c *Conn) RemoteAddr() string { return c.nc.RemoteAddr().String() }
