// Broker sharding: peer links, load gossip, and the pull-based work
// exchange.
//
// A shard group runs N brokers, each a complete broker (its own providers,
// consumers, lifecycle partitions, memo tier). Clients route each job to a
// shard by consistent hash of its program hash (shard.Ring), so memo and
// flight tables shard naturally: identical tasklets land on the same
// broker. Peers connect with wire.RolePeer and exchange two things:
//
//   - ShardGossip every GossipInterval: queue depth, free slots, and an
//     EWMA of the finalization rate. Gossip doubles as the peer-link
//     heartbeat and, on inbound links, as the dialer's introduction.
//   - A pull-based exchange: an underloaded shard (free slots, short
//     queue) sends MigrateRequest to the most-loaded peer, bounded by the
//     shard.Policy hysteresis and per-interval cap. The source answers
//     with queued — never in-flight — tasklets, cancelling each locally
//     before it travels (Cancel-before-launch), so exactly one shard owns
//     a tasklet at any instant. The destination re-Submits through its own
//     lifecycle engine (fresh QoC fan-out, its own memo key space) and
//     routes the final back as a MigrateResult; the origin still owns the
//     consumer connection and the job accounting.
//
// Failure rules keep migration loss-free: a rejected MigrateTasklet or a
// dead peer makes the origin re-Submit from its migrated record, and a
// destination losing the origin link cancels the orphaned adoptions (the
// origin re-runs them). A migration can delay a tasklet, never lose it.
// Tasklets with an armed deadline never migrate: the origin's timer stays
// authoritative.
//
// All exchange state (peers, links, migrated, adopted, the gossip EWMA)
// lives under b.exMu. exMu may nest partition locks (the migrate-request
// scan) and progMu, but never b.mu or jobMu: re-homing collects work under
// exMu and applies it through jobMu/partitions after release.
package broker

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/shard"
	"repro/internal/wire"
)

// peerState is one peer broker link (either direction). Guarded by b.exMu.
type peerState struct {
	id    uint64 // remote ShardID; 0 on an inbound link until its first gossip
	out   chan wire.Message
	nc    net.Conn
	label string
	gone  bool

	load    shard.Load
	loadOK  bool
	lastSeq uint64

	dropWarned atomic.Bool
}

// migratedRec remembers a tasklet handed to a peer: the full tasklet for a
// local re-Submit on rejection or peer loss, the peer it went to, and the
// exact link its MigrateTasklet frame was queued on. With mutual dial two
// links per pair exist, so re-homing keys off the link, not the shard ID:
// a frame queued on a dying link is lost even when a sibling link survives.
type migratedRec struct {
	t    core.Tasklet
	peer uint64
	link *peerState
}

// adoptedRec maps a locally re-submitted tasklet back to its origin.
type adoptedRec struct {
	origin core.TaskletID
	peer   uint64
}

// ConnectPeer dials another shard's broker and registers the link. The
// remote names itself in the Welcome; we introduce ourselves with our
// first gossip. Both directions of a pair may dial each other — the extra
// link is harmless (gossip flows on both, pulls use the bound one).
func (b *Broker) ConnectPeer(addr string) error {
	if b.opts.ShardID == 0 {
		return errors.New("broker: ConnectPeer requires Options.ShardID")
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("broker: dial peer %s: %w", addr, err)
	}
	conn := wire.NewConn(nc)
	conn.ReadTimeout = 30 * time.Second
	hello := &wire.Hello{Version: wire.ProtocolVersion, Role: wire.RolePeer,
		Name: fmt.Sprintf("shard-%d", b.opts.ShardID), Caps: wire.CapFlagsTail}
	if err := conn.Send(hello); err != nil {
		nc.Close()
		return fmt.Errorf("broker: peer handshake %s: %w", addr, err)
	}
	msg, err := conn.Recv()
	if err != nil {
		nc.Close()
		return fmt.Errorf("broker: peer handshake %s: %w", addr, err)
	}
	w, ok := msg.(*wire.Welcome)
	if !ok {
		nc.Close()
		if e, isErr := msg.(*wire.ErrorMsg); isErr {
			return fmt.Errorf("broker: peer %s refused: %s", addr, e.Msg)
		}
		return fmt.Errorf("broker: peer %s sent %s, want welcome", addr, msg.Type())
	}

	ps := &peerState{
		id:    w.ID,
		out:   make(chan wire.Message, sendQueueDepth),
		nc:    nc,
		label: fmt.Sprintf("peer shard %d", w.ID),
	}
	b.exMu.Lock()
	if b.closed.Load() {
		b.exMu.Unlock()
		nc.Close()
		return errors.New("broker: closed")
	}
	b.links[ps] = true
	b.bindPeerExLocked(ps, w.ID)
	b.exMu.Unlock()

	b.wg.Add(2)
	go func() {
		defer b.wg.Done()
		b.writerLoop(conn, ps.out, nc, nil)
	}()
	go func() {
		defer b.wg.Done()
		defer nc.Close()
		b.runPeerLoop(conn, ps)
		close(ps.out)
	}()

	// Introduce ourselves immediately so the remote can bind the link
	// before its next gossip tick. The gone check makes the enqueue safe
	// against the reader goroutine racing to teardown (close(ps.out)
	// happens only after removePeer marked the link gone under exMu).
	free := b.freeSlotsSample()
	b.exMu.Lock()
	if !ps.gone {
		b.enqueue(ps.out, b.gossipMsgExLocked(free), nc, &ps.dropWarned, ps.label)
	}
	b.exMu.Unlock()
	b.logf("broker: shard %d peered with shard %d at %s", b.opts.ShardID, w.ID, addr)
	return nil
}

// servePeer handles an inbound peer connection (post-handshake).
func (b *Broker) servePeer(nc net.Conn, conn *wire.Conn, hello *wire.Hello) {
	if b.opts.ShardID == 0 {
		_ = conn.Send(&wire.ErrorMsg{Code: wire.ErrCodeProtocol, Msg: "broker is not sharded"})
		return
	}
	ps := &peerState{
		out:   make(chan wire.Message, sendQueueDepth),
		nc:    nc,
		label: "peer (unbound)",
	}
	b.exMu.Lock()
	if b.closed.Load() {
		b.exMu.Unlock()
		return
	}
	b.links[ps] = true
	b.exMu.Unlock()

	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		b.writerLoop(conn, ps.out, nc, nil)
	}()
	b.enqueue(ps.out, &wire.Welcome{ID: b.opts.ShardID}, nc, &ps.dropWarned, ps.label)
	b.logf("broker: shard %d accepted peer from %s (%s)", b.opts.ShardID, conn.RemoteAddr(), hello.Name)

	b.runPeerLoop(conn, ps)
	close(ps.out)
}

// runPeerLoop is the read loop shared by both link directions. On exit the
// link is torn down and its outstanding migrations are re-homed.
func (b *Broker) runPeerLoop(conn *wire.Conn, ps *peerState) {
	// Gossip is the heartbeat; allow a generous number of missed ticks
	// before declaring the link dead.
	conn.ReadTimeout = 10 * b.opts.GossipInterval
	if conn.ReadTimeout < 2*b.opts.HeartbeatTimeout {
		conn.ReadTimeout = 2 * b.opts.HeartbeatTimeout
	}
	for {
		msg, err := conn.Recv()
		if err != nil {
			break
		}
		switch m := msg.(type) {
		case *wire.ShardGossip:
			b.onGossip(ps, m)
		case *wire.MigrateRequest:
			b.onMigrateRequest(ps, m)
		case *wire.MigrateTasklet:
			b.onMigrateTasklet(ps, m)
		case *wire.MigrateAck:
			b.onMigrateAck(ps, m)
		case *wire.MigrateResult:
			b.onMigrateResult(m)
		case *wire.Bye:
			goto done
		default:
			b.logf("broker: %s sent unexpected %s", ps.label, msg.Type())
			goto done
		}
	}
done:
	b.removePeer(ps)
	b.logf("broker: %s disconnected", ps.label)
}

// bindPeerExLocked names a link with the remote's shard ID. The first bound
// link for an ID receives pulls; a duplicate link (mutual dial) only takes
// over once the first is gone. Callers hold exMu.
func (b *Broker) bindPeerExLocked(ps *peerState, id uint64) {
	if id == 0 || ps.id == id {
		return
	}
	ps.id = id
	ps.label = fmt.Sprintf("peer shard %d", id)
	if cur := b.peers[id]; cur == nil || cur.gone {
		b.peers[id] = ps
	}
}

// removePeer tears a link down. Tasklets whose MigrateTasklet frames
// travelled on this link are re-submitted locally no matter what: with
// mutual dial a sibling link to the same shard may survive, but frames
// queued on the dead link are gone with it. Re-homing is safe even when
// the peer did adopt the tasklet — deleting the record here dedups its
// late MigrateResult, so the worst case is wasted duplicate execution.
// Adopted tasklets are only cancelled once the last link to their origin
// is gone (the origin re-runs them when its own sending link died).
// Idempotent; callers hold no locks.
func (b *Broker) removePeer(ps *peerState) {
	b.exMu.Lock()
	if ps.gone {
		b.exMu.Unlock()
		return
	}
	ps.gone = true
	delete(b.links, ps)
	if ps.id != 0 && b.peers[ps.id] == ps {
		delete(b.peers, ps.id)
	}
	var back []migratedRec
	for tid, rec := range b.migrated {
		if rec.link == ps {
			delete(b.migrated, tid)
			back = append(back, rec)
		}
	}
	var orphans []core.TaskletID
	if ps.id != 0 {
		// Promote a surviving sibling link (mutual dial) so pulls and
		// MigrateResults keep flowing without waiting for its next gossip.
		var sibling *peerState
		for l := range b.links {
			if l.id == ps.id && !l.gone {
				sibling = l
				break
			}
		}
		if sibling != nil {
			if b.peers[ps.id] == nil {
				b.peers[ps.id] = sibling
			}
		} else {
			for tid, rec := range b.adopted {
				if rec.peer != ps.id {
					continue
				}
				delete(b.adopted, tid)
				orphans = append(orphans, tid)
			}
		}
	}
	b.exMu.Unlock()

	// A dead link can strand a whole exchange burst; re-home it through the
	// partitions in per-partition bulk Submits instead of one engine call
	// per tasklet.
	if len(back) > 0 {
		b.resubmitMigrated(back)
	}
	dropped := 0
	for _, tid := range orphans {
		if b.cancelOne(tid) {
			dropped++
		}
	}
	if len(back) > 0 || dropped > 0 {
		b.logf("broker: shard %d link to shard %d lost: re-homed %d migrated, dropped %d adopted",
			b.opts.ShardID, ps.id, len(back), dropped)
		b.purgePending()
	}
	b.schedule()
}

// resubmitMigrated re-runs tasklets whose migration failed (rejection or
// link death). The job accounting never noticed the detour: each tasklet
// gets a fresh ID under the same job slot. Callers hold no locks.
func (b *Broker) resubmitMigrated(back []migratedRec) {
	groups := make([][]lifecycle.Event, len(b.parts))
	b.jobMu.Lock()
	for _, rec := range back {
		job := b.jobs[rec.t.Job]
		if job == nil || job.cancelled {
			// Job cancellation deletes its migrated records, so a live record
			// pointing at a dead job means accounting went wrong somewhere —
			// say so instead of losing the tasklet silently.
			if job == nil {
				b.logf("broker: dropping re-homed tasklet %d: job %d unknown", rec.t.ID, rec.t.Job)
			}
			continue
		}
		ev, pi := b.submitEvent(rec.t, b.nextTasklet.Add(1))
		job.tasklets = append(job.tasklets, ev.Tasklet.ID)
		groups[pi] = append(groups[pi], ev)
	}
	b.jobMu.Unlock()
	for pi, evs := range groups {
		b.feedPartition(b.parts[pi], evs)
	}
	b.schedule()
}

// ---------- gossip & pull planning ----------

// gossipLoop emits load gossip on every peer link each interval and plans
// at most one exchange pull per tick.
func (b *Broker) gossipLoop() {
	tick := time.NewTicker(b.opts.GossipInterval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
		case <-b.stop:
			return
		}
		b.gossipTick()
	}
}

// freeSlotsSample reads the fleet's free-slot total for gossip. Takes b.mu
// (the index belongs to the scheduler); callers must not hold exMu — the
// sample is taken before the gossip section to keep b.mu and exMu disjoint.
func (b *Broker) freeSlotsSample() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.index.FreeSlots()
}

// gossipMsgExLocked builds a ShardGossip frame from the given free-slot
// sample, refreshing the finalization-rate EWMA as a side effect. Callers
// hold exMu.
func (b *Broker) gossipMsgExLocked(free int) *wire.ShardGossip {
	queue := int(b.pendingN.Load())
	fin := b.finalizedN.Load()
	sample := float64(fin-b.lastFinal) / b.opts.GossipInterval.Seconds()
	b.lastFinal = fin
	if !b.exchRateOK {
		b.exchRate, b.exchRateOK = sample, true
	} else {
		b.exchRate = shard.EWMA(b.exchRate, sample)
	}
	b.mShardQueue.Set(int64(queue))
	b.gossipSeq++
	return &wire.ShardGossip{
		Shard: b.opts.ShardID, Seq: b.gossipSeq,
		QueueDepth: queue, FreeSlots: free, Rate: b.exchRate,
	}
}

func (b *Broker) gossipTick() {
	free := b.freeSlotsSample()
	b.exMu.Lock()
	if b.closed.Load() {
		b.exMu.Unlock()
		return
	}
	g := b.gossipMsgExLocked(free)
	for ps := range b.links {
		b.enqueue(ps.out, g, ps.nc, &ps.dropWarned, ps.label)
	}

	if b.opts.Exchange {
		self := shard.Load{Shard: g.Shard, Queue: g.QueueDepth, Free: g.FreeSlots, Rate: g.Rate}
		loads := make([]shard.Load, 0, len(b.peers))
		for _, ps := range b.peers {
			if !ps.gone && ps.loadOK {
				loads = append(loads, ps.load)
			}
		}
		if from, n, ok := b.opts.ExchangePolicy.PlanPull(self, loads); ok {
			if ps := b.peers[from]; ps != nil && !ps.gone {
				b.mExchRequests.Inc()
				b.enqueue(ps.out, &wire.MigrateRequest{Shard: b.opts.ShardID, Max: n},
					ps.nc, &ps.dropWarned, ps.label)
			}
		}
	}
	b.exMu.Unlock()
}

func (b *Broker) onGossip(ps *peerState, m *wire.ShardGossip) {
	b.exMu.Lock()
	defer b.exMu.Unlock()
	b.bindPeerExLocked(ps, m.Shard)
	if m.Seq <= ps.lastSeq {
		return // stale or duplicate
	}
	ps.lastSeq = m.Seq
	ps.load = shard.Load{Shard: m.Shard, Queue: m.QueueDepth, Free: m.FreeSlots, Rate: m.Rate}
	ps.loadOK = true
}

// ---------- migration ----------

// onMigrateRequest answers a peer's pull with queued tasklets, newest
// first (the back of a queue has waited least; the front is about to
// place anyway). lifecycle.Engine.Migrate decides what may move and
// cancels it locally before it travels; adopted work stays put. The scan
// nests partition locks under exMu (the one allowed exMu → part.mu
// nesting); holding exMu throughout pins ps alive across the enqueues.
func (b *Broker) onMigrateRequest(ps *peerState, m *wire.MigrateRequest) {
	var out []lifecycle.Effect
	picked := 0

	b.exMu.Lock()
	b.bindPeerExLocked(ps, m.Shard)
	if b.closed.Load() || ps.gone || m.Shard == 0 {
		b.exMu.Unlock()
		return
	}
	lim := m.Max
	if c := b.opts.ExchangePolicy.MaxPull; lim > c {
		lim = c
	}
	for pi := len(b.parts) - 1; pi >= 0 && picked < lim; pi-- {
		part := b.parts[pi]
		part.mu.Lock()
		var taken map[core.TaskletID]bool
		for i := len(part.pending) - 1; i >= 0 && picked < lim; i-- {
			tid := part.pending[i]
			if _, isAdopted := b.adopted[tid]; isAdopted {
				// Adopted work never re-migrates: its only job accounting lives
				// at the origin shard, so a failed onward hop could not be
				// re-submitted here (no local job record to hang it on).
				continue
			}
			// A voting fan-out queues one entry per replica; once the first
			// has moved the tasklet is no longer live and the rest are refused.
			tc, fx, ok := part.life.Migrate(tid)
			if !ok {
				continue
			}
			if taken == nil {
				taken = map[core.TaskletID]bool{}
			}
			taken[tid] = true
			out, _ = b.applyPartFxLocked(part, fx, out)
			b.migrated[tid] = migratedRec{t: tc, peer: m.Shard, link: ps}
			b.enqueue(ps.out, &wire.MigrateTasklet{
				Origin:      tid,
				Program:     tc.Program,
				ProgramData: b.program(tc.Program),
				Params:      tc.Params,
				QoC:         tc.QoC,
				Fuel:        tc.Fuel,
				Seed:        tc.Seed,
			}, ps.nc, &ps.dropWarned, ps.label)
			picked++
		}
		if taken != nil {
			keep := part.pending[:0]
			for _, tid := range part.pending {
				if !taken[tid] {
					keep = append(keep, tid)
				}
			}
			b.pendingN.Add(int64(len(keep) - len(part.pending)))
			part.pending = keep
		}
		part.mu.Unlock()
	}
	b.exMu.Unlock()

	if picked == 0 {
		return
	}
	// Cancelling a queued tasklet can promote a coalescing waiter whose
	// effects (a rare cache-hit Deliver) need jobMu — applied here, outside
	// exMu.
	b.applyOutFx(out)
	b.mExchMigrated.Add(int64(picked))
	b.logf("broker: shard %d sent %d queued tasklets to shard %d", b.opts.ShardID, picked, m.Shard)
	b.schedule()
}

// onMigrateTasklet adopts a tasklet from a peer: fresh local ID, fresh
// Submit through this shard's lifecycle partitions (memo and coalescing
// apply in this shard's key space).
func (b *Broker) onMigrateTasklet(ps *peerState, m *wire.MigrateTasklet) {
	reject := func() {
		b.enqueue(ps.out, &wire.MigrateAck{Shard: b.opts.ShardID, Origin: m.Origin, Accepted: false},
			ps.nc, &ps.dropWarned, ps.label)
	}
	if b.closed.Load() {
		reject()
		return
	}
	b.progMu.Lock()
	if _, ok := b.programs[m.Program]; !ok {
		if core.HashProgram(m.ProgramData) != m.Program {
			b.progMu.Unlock()
			reject()
			return
		}
		data := make([]byte, len(m.ProgramData))
		copy(data, m.ProgramData)
		b.programs[m.Program] = data
	}
	b.progMu.Unlock()

	ev, pi := b.submitEvent(core.Tasklet{
		Program: m.Program, Params: m.Params,
		QoC: m.QoC, Fuel: m.Fuel, Seed: m.Seed, Submitted: time.Now(),
	}, b.nextTasklet.Add(1))
	b.exMu.Lock()
	if ps.gone || ps.id == 0 {
		b.exMu.Unlock()
		reject()
		return
	}
	b.adopted[ev.Tasklet.ID] = adoptedRec{origin: m.Origin, peer: ps.id}
	b.mExchAdopted.Inc()
	// Ack before Submit so the Ack always precedes the MigrateResult a memo
	// hit would deliver synchronously.
	b.enqueue(ps.out, &wire.MigrateAck{Shard: b.opts.ShardID, Origin: m.Origin, Accepted: true},
		ps.nc, &ps.dropWarned, ps.label)
	b.exMu.Unlock()

	b.feedPartition(b.parts[pi], []lifecycle.Event{ev})
	b.schedule()
}

// onMigrateAck handles rejections: the origin re-submits locally.
func (b *Broker) onMigrateAck(ps *peerState, m *wire.MigrateAck) {
	b.exMu.Lock()
	b.bindPeerExLocked(ps, m.Shard)
	if m.Accepted {
		b.exMu.Unlock()
		return
	}
	rec, ok := b.migrated[m.Origin]
	if ok {
		delete(b.migrated, m.Origin)
	}
	b.exMu.Unlock()
	if ok {
		b.resubmitMigrated([]migratedRec{rec})
	}
}

// onMigrateResult feeds a migrated tasklet's final back into the origin
// shard's normal delivery path under its original job slot.
func (b *Broker) onMigrateResult(m *wire.MigrateResult) {
	b.exMu.Lock()
	rec, ok := b.migrated[m.Origin]
	if ok {
		delete(b.migrated, m.Origin)
	}
	b.exMu.Unlock()
	if !ok {
		return // job cancelled while the tasklet was away
	}
	ef := lifecycle.Effect{
		Kind:      lifecycle.EffectDeliver,
		Tasklet:   rec.t.ID,
		Attempts:  m.Attempts,
		Submitted: rec.t.Submitted,
		Final: core.Result{
			Tasklet: rec.t.ID, Job: rec.t.Job, Index: rec.t.Index,
			Provider: m.Provider, Status: m.Status, Return: m.Return,
			Emitted: m.Emitted, FaultCode: m.FaultCode, FaultMsg: m.FaultMsg,
			Exec: time.Duration(m.ExecNanos),
		},
	}
	b.deliver(&ef)
}

// returnAdoptedExLocked ships an adopted tasklet's final home. Called from
// deliver, which already consumed the adoption record; callers hold exMu.
func (b *Broker) returnAdoptedExLocked(rec adoptedRec, ef *lifecycle.Effect) {
	ps := b.peers[rec.peer]
	if ps == nil || ps.gone {
		return // origin gone; it re-homed the tasklet when the link died
	}
	final := ef.Final
	b.enqueue(ps.out, &wire.MigrateResult{
		Origin:    rec.origin,
		Status:    final.Status,
		Return:    final.Return,
		Emitted:   final.Emitted,
		FaultCode: final.FaultCode,
		FaultMsg:  final.FaultMsg,
		Provider:  final.Provider,
		Attempts:  ef.Attempts,
		ExecNanos: int64(final.Exec),
	}, ps.nc, &ps.dropWarned, ps.label)
}

// ---------- shard group ----------

// ShardGroup runs N brokers in one process, full-mesh peered, with a
// consistent-hash ring mapping program hashes to shard addresses. It is
// the in-process deployment used by tests, benchmarks, and experiment E11;
// multi-process groups wire the same pieces via the tasklet-broker CLI
// flags (-shard-id, -peer).
type ShardGroup struct {
	ring    *shard.Ring
	brokers []*Broker
	addrs   []string
}

// NewShardGroup creates n brokers from a shared option template; ShardID
// is assigned 1..n. A nil Metrics keeps per-shard registries separate, and
// a nil Policy gives each shard its own default policy instance (policies
// carry mutable state, so sharing one across shards would race).
func NewShardGroup(n int, opts Options) *ShardGroup {
	return NewShardGroupWith(n, func(int) Options { return opts })
}

// NewShardGroupWith creates n brokers, calling mk(i) for shard i's options
// (its ShardID is overwritten to i+1).
func NewShardGroupWith(n int, mk func(i int) Options) *ShardGroup {
	g := &ShardGroup{ring: shard.NewRing(0)}
	for i := 0; i < n; i++ {
		o := mk(i)
		o.ShardID = uint64(i + 1)
		g.brokers = append(g.brokers, New(o))
		g.ring.Add(o.ShardID)
	}
	return g
}

// Listen binds every shard and peers them full-mesh. Port 0 gives every
// shard an ephemeral port; an explicit port gives shard i port+i. It
// returns the per-shard addresses, index-aligned with shard IDs 1..n.
func (g *ShardGroup) Listen(addr string) ([]string, error) {
	host, portStr, splitErr := net.SplitHostPort(addr)
	port := 0
	if splitErr == nil {
		port, _ = strconv.Atoi(portStr)
	}
	for i, b := range g.brokers {
		la := addr
		if port != 0 && i > 0 {
			la = net.JoinHostPort(host, strconv.Itoa(port+i))
		}
		a, err := b.Listen(la)
		if err != nil {
			g.Close()
			return nil, err
		}
		g.addrs = append(g.addrs, a)
	}
	for i := range g.brokers {
		for j := i + 1; j < len(g.brokers); j++ {
			if err := g.brokers[i].ConnectPeer(g.addrs[j]); err != nil {
				g.Close()
				return nil, err
			}
		}
	}
	return g.addrs, nil
}

// AddrFor returns the owning shard's address for a program's bytecode.
func (g *ShardGroup) AddrFor(program []byte) string {
	return g.AddrForHash(uint64(core.HashProgram(program)))
}

// AddrForHash returns the owning shard's address for a program hash.
func (g *ShardGroup) AddrForHash(h uint64) string {
	owner, ok := g.ring.Owner(h)
	if !ok {
		return ""
	}
	return g.addrs[owner-1]
}

// Addrs returns the per-shard addresses (index i is shard ID i+1).
func (g *ShardGroup) Addrs() []string { return g.addrs }

// Broker returns shard i's broker (0-based).
func (g *ShardGroup) Broker(i int) *Broker { return g.brokers[i] }

// Size returns the number of shards.
func (g *ShardGroup) Size() int { return len(g.brokers) }

// Close shuts every shard down.
func (g *ShardGroup) Close() error {
	var first error
	for _, b := range g.brokers {
		if err := b.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
