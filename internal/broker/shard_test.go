package broker

import (
	"net"
	"testing"
	"time"

	"repro/internal/consumer"
	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/provider"
	"repro/internal/shard"
	"repro/internal/tvm"
	"repro/internal/wire"
)

// slowSrc burns enough interpreter time that queues outlive gossip ticks.
const slowSrc = `func main(n int) int {
	var s int = 0;
	for (var i int = 0; i < 20000; i = i + 1) { s = s + i; }
	return n * n;
}`

func shardGroup(t *testing.T, n int, opts Options) (*ShardGroup, []string) {
	t.Helper()
	g := NewShardGroup(n, opts)
	addrs, err := g.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g, addrs
}

func addProvider(t *testing.T, addr string, po provider.Options) *provider.Provider {
	t.Helper()
	po.BrokerAddr = addr
	p, err := provider.Connect(po)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func intRows(n int) [][]int64 {
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{int64(i)}
	}
	return rows
}

func checkSquares(t *testing.T, res []consumer.TaskResult, n int) {
	t.Helper()
	if len(res) != n {
		t.Fatalf("got %d results, want %d", len(res), n)
	}
	for i, r := range res {
		if !r.OK() || r.Return.I != int64(i*i) {
			t.Fatalf("result[%d] = %+v, want %d", i, r, i*i)
		}
	}
}

// TestShardGroupExchangeSmoke is the multi-shard smoke test: two peered
// shards, all jobs submitted to shard 1 whose only provider is heavily
// throttled, a fast fleet on shard 2. The exchange must move work over and
// every tasklet must complete with the right answer.
func TestShardGroupExchangeSmoke(t *testing.T) {
	g, addrs := shardGroup(t, 2, Options{
		Exchange:       true,
		GossipInterval: 5 * time.Millisecond,
		ExchangePolicy: shard.Policy{MinGap: 1},
	})
	addProvider(t, addrs[0], provider.Options{Slots: 1, Speed: 100, Throttle: 0.05, Name: "slow"})
	addProvider(t, addrs[1], provider.Options{Slots: 4, Speed: 100, Name: "fast"})

	c, err := consumer.Connect(addrs[0], "skewed")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 48
	job, err := c.Submit(compileJob(t, slowSrc, intRows(n)...))
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Collect(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	checkSquares(t, res, n)

	migrated := g.Broker(0).Metrics().Counter("broker.exchange.migrated").Value()
	adopted := g.Broker(1).Metrics().Counter("broker.exchange.adopted").Value()
	requests := g.Broker(1).Metrics().Counter("broker.exchange.requests").Value()
	t.Logf("migrated=%d adopted=%d requests=%d", migrated, adopted, requests)
	if migrated == 0 || adopted == 0 {
		t.Fatalf("exchange moved nothing: migrated=%d adopted=%d", migrated, adopted)
	}
	if requests == 0 {
		t.Fatal("underloaded shard never sent a pull")
	}
}

// TestShardGroupSingleShard checks that a 1-shard group behaves like a
// plain broker: same end-to-end results, zero exchange traffic. (The
// rigorous event-level differential for the sharded world lives in
// internal/sim's TestShardedSingleMatchesUnsharded.)
func TestShardGroupSingleShard(t *testing.T) {
	g, addrs := shardGroup(t, 1, Options{Exchange: true, GossipInterval: 5 * time.Millisecond})
	addProvider(t, addrs[0], provider.Options{Slots: 2, Speed: 100, Name: "p"})

	c, err := consumer.Connect(addrs[0], "solo")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 16
	job, err := c.Submit(compileJob(t, squareSrc, intRows(n)...))
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Collect(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	checkSquares(t, res, n)
	if v := g.Broker(0).Metrics().Counter("broker.exchange.migrated").Value(); v != 0 {
		t.Fatalf("single-shard group migrated %d tasklets", v)
	}
}

// TestShardPeerLossResubmit kills the adopting shard mid-exchange: every
// migrated-but-unfinished tasklet must be re-submitted at its origin and
// the job must still deliver each result exactly once.
func TestShardPeerLossResubmit(t *testing.T) {
	g, addrs := shardGroup(t, 2, Options{
		Exchange:       true,
		GossipInterval: 5 * time.Millisecond,
		ExchangePolicy: shard.Policy{MinGap: 1},
	})
	addProvider(t, addrs[0], provider.Options{Slots: 1, Speed: 100, Throttle: 0.2, Name: "origin"})
	// The adopter is slower still, so adopted work lingers when it dies.
	addProvider(t, addrs[1], provider.Options{Slots: 2, Speed: 100, Throttle: 0.05, Name: "doomed"})

	c, err := consumer.Connect(addrs[0], "resubmit")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 32
	job, err := c.Submit(compileJob(t, slowSrc, intRows(n)...))
	if err != nil {
		t.Fatal(err)
	}

	migratedC := g.Broker(0).Metrics().Counter("broker.exchange.migrated")
	deadline := time.Now().Add(10 * time.Second)
	for migratedC.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no migration happened within 10s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := g.Broker(1).Close(); err != nil {
		t.Fatal(err)
	}

	res, err := job.Collect(ctxT(t))
	if err != nil {
		t.Fatal(err)
	}
	checkSquares(t, res, n)
	t.Logf("migrated=%d before peer loss", migratedC.Value())
}

// fakePeer builds an in-memory peer link (a net.Pipe end, no wire loop).
// The buffered out channel absorbs every frame a test provokes.
func fakePeer(t *testing.T, id uint64) *peerState {
	t.Helper()
	c1, c2 := net.Pipe()
	t.Cleanup(func() { c1.Close(); c2.Close() })
	return &peerState{id: id, out: make(chan wire.Message, 32),
		nc: c1, label: "fake peer"}
}

// TestMigrateRequestSkipsAdopted: work adopted from one peer must never be
// offered onward to another. An adopted tasklet's job accounting lives at
// its origin shard (local Job is 0), so a failed second hop could not be
// re-submitted here and the tasklet would be lost.
func TestMigrateRequestSkipsAdopted(t *testing.T) {
	b := New(Options{ShardID: 1, Exchange: true, GossipInterval: time.Hour})
	defer b.Close()

	src := fakePeer(t, 2)
	b.exMu.Lock()
	b.links[src] = true
	b.peers[2] = src
	b.exMu.Unlock()

	prog := []byte("adopted-program")
	b.onMigrateTasklet(src, &wire.MigrateTasklet{
		Origin:      77,
		Program:     core.HashProgram(prog),
		ProgramData: prog,
		Params:      []tvm.Value{tvm.Int(3)},
		Fuel:        1 << 20,
	})
	b.exMu.Lock()
	nAdopted := len(b.adopted)
	b.exMu.Unlock()
	nPending := int(b.pendingN.Load())
	if nAdopted != 1 || nPending != 1 {
		t.Fatalf("adoption setup: adopted=%d pending=%d, want 1 and 1", nAdopted, nPending)
	}

	third := fakePeer(t, 3)
	b.exMu.Lock()
	b.links[third] = true
	b.peers[3] = third
	b.exMu.Unlock()
	b.onMigrateRequest(third, &wire.MigrateRequest{Shard: 3, Max: 8})

	b.exMu.Lock()
	defer b.exMu.Unlock()
	if len(b.migrated) != 0 {
		t.Fatalf("adopted tasklet was re-migrated: %d migrated records", len(b.migrated))
	}
	if len(b.adopted) != 1 || b.pendingN.Load() != 1 {
		t.Fatalf("adoption disturbed: adopted=%d pending=%d", len(b.adopted), b.pendingN.Load())
	}
	select {
	case m := <-third.out:
		t.Fatalf("shard 3 was offered %s for adopted work", m.Type())
	default:
	}
}

// TestMigrateRequestSkipsDeadlineTasklets: a tasklet whose QoC carries a
// deadline never migrates — its timer is armed on this shard and stays
// authoritative — while a plain tasklet queued beside it does.
func TestMigrateRequestSkipsDeadlineTasklets(t *testing.T) {
	b := New(Options{ShardID: 1, Exchange: true, GossipInterval: time.Hour})
	defer b.Close()

	pid := core.HashProgram([]byte("queued-program"))
	for _, qoc := range []core.QoC{{Deadline: time.Hour}, {}} {
		ev, pi := b.submitEvent(core.Tasklet{
			Program: pid, Params: []tvm.Value{tvm.Int(int64(qoc.Deadline))},
			QoC: qoc, Fuel: 1 << 20, Submitted: time.Now(),
		}, b.nextTasklet.Add(1))
		b.feedPartition(b.parts[pi], []lifecycle.Event{ev})
	}
	if n := b.pendingN.Load(); n != 2 {
		t.Fatalf("setup: pending=%d, want 2", n)
	}

	dst := fakePeer(t, 2)
	b.exMu.Lock()
	b.links[dst] = true
	b.peers[2] = dst
	b.exMu.Unlock()
	b.onMigrateRequest(dst, &wire.MigrateRequest{Shard: 2, Max: 8})

	b.exMu.Lock()
	defer b.exMu.Unlock()
	if len(b.migrated) != 1 || b.pendingN.Load() != 1 {
		t.Fatalf("migrated=%d pending=%d, want 1 and 1", len(b.migrated), b.pendingN.Load())
	}
	for _, rec := range b.migrated {
		if rec.t.QoC.Deadline != 0 {
			t.Fatalf("deadline tasklet %d was migrated", rec.t.ID)
		}
	}
	select {
	case m := <-dst.out:
		if mt, ok := m.(*wire.MigrateTasklet); !ok || mt.QoC.Deadline != 0 {
			t.Fatalf("shard 2 was sent %+v, want the plain tasklet", m)
		}
	default:
		t.Fatal("shard 2 was sent nothing")
	}
}

// TestDuplicateLinkDeathRehomesMigrated: with mutual dial two links to the
// same shard exist and MigrateTasklet frames can travel on either. When
// the link that carried a migration dies, its record must be re-homed even
// though the sibling link survives — frames queued on the dead link are
// gone with it.
func TestDuplicateLinkDeathRehomesMigrated(t *testing.T) {
	b := New(Options{ShardID: 1, Exchange: true, GossipInterval: time.Hour})
	defer b.Close()

	bound, dup := fakePeer(t, 2), fakePeer(t, 2)
	prog := []byte("migrated-program")
	pid := core.HashProgram(prog)

	b.exMu.Lock()
	b.links[bound] = true
	b.peers[2] = bound
	b.links[dup] = true
	tk := core.Tasklet{ID: 5, Job: 9, Program: pid,
		Params: []tvm.Value{tvm.Int(1)}, Fuel: 1 << 20, Submitted: time.Now()}
	b.migrated[tk.ID] = migratedRec{t: tk, peer: 2, link: dup}
	b.exMu.Unlock()
	b.progMu.Lock()
	b.programs[pid] = prog
	b.progMu.Unlock()
	job := &jobState{id: 9, consumer: 1, total: 1, tasklets: []core.TaskletID{5}}
	b.jobMu.Lock()
	b.jobs[9] = job
	b.jobMu.Unlock()

	b.removePeer(dup)

	b.exMu.Lock()
	if len(b.migrated) != 0 {
		t.Fatalf("migration on dead duplicate link not re-homed: %d records left", len(b.migrated))
	}
	if b.peers[2] != bound {
		t.Fatalf("bound link displaced by duplicate's death")
	}
	b.exMu.Unlock()
	if n := b.pendingN.Load(); n != 1 {
		t.Fatalf("re-homed tasklet not re-queued: pending=%d", n)
	}
	b.jobMu.Lock()
	if len(job.tasklets) != 2 {
		t.Fatalf("re-submit did not extend the job slot list: %v", job.tasklets)
	}
	b.jobMu.Unlock()

	// The bound link dying too must promote nothing (no siblings left) and
	// leave the re-homed record alone — it now belongs to no peer.
	b.removePeer(bound)
	b.exMu.Lock()
	if b.peers[2] != nil {
		t.Fatalf("dead shard still has a bound link")
	}
	b.exMu.Unlock()
	if n := b.pendingN.Load(); n != 1 {
		t.Fatalf("second link death disturbed the re-homed tasklet: pending=%d", n)
	}
}

// TestShardGroupRouting pins the ring-to-address mapping: stable per
// program, and every address is a member of the group.
func TestShardGroupRouting(t *testing.T) {
	g, addrs := shardGroup(t, 3, Options{GossipInterval: time.Hour})
	progs := [][]byte{[]byte("prog-a"), []byte("prog-b"), []byte("prog-c"), []byte("prog-d")}
	for _, p := range progs {
		a := g.AddrFor(p)
		if a != g.AddrFor(p) {
			t.Fatal("routing is not stable")
		}
		found := false
		for _, known := range addrs {
			if a == known {
				found = true
			}
		}
		if !found {
			t.Fatalf("AddrFor returned unknown address %q", a)
		}
	}
}
