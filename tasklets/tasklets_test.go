package tasklets

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"
)

// stack brings up a broker and n providers for a test.
func stack(t *testing.T, n int, opts BrokerOptions) (*Broker, string) {
	t.Helper()
	b, err := NewBroker(opts)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	for i := 0; i < n; i++ {
		p, err := StartProvider(ProviderOptions{Broker: addr, Slots: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
	}
	return b, addr
}

func TestQuickstartFlow(t *testing.T) {
	_, addr := stack(t, 2, BrokerOptions{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	prog, err := Compile(`func main(n int) int { return n * n; }`)
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.Map(prog, [][]Value{{Int(3)}, {Int(4)}, {Int(5)}}, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	results, err := job.Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{9, 16, 25}
	for i, r := range results {
		if !r.OK() || r.Return.I != want[i] {
			t.Fatalf("result[%d] = %+v, want %d", i, r, want[i])
		}
	}
}

func TestRunSingle(t *testing.T) {
	_, addr := stack(t, 1, BrokerOptions{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	prog, err := Compile(`func main(a int, b int) int { return a + b; }`)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Run(prog, []Value{Int(20), Int(22)}, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK() || r.Return.I != 42 {
		t.Fatalf("result = %+v", r)
	}
}

func TestRunLocalMatchesRemote(t *testing.T) {
	_, addr := stack(t, 1, BrokerOptions{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	prog, err := Compile(`
func main(n int) int {
	var acc int = 0;
	for (var i int = 0; i < n; i = i + 1) { acc = acc + i * i; }
	emit(acc % 1000);
	return acc;
}`)
	if err != nil {
		t.Fatal(err)
	}
	local, err := RunLocal(prog, Int(100))
	if err != nil {
		t.Fatal(err)
	}
	remote, err := c.Run(prog, []Value{Int(100)}, JobOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !local.Return.Equal(remote.Return) {
		t.Fatalf("local %s != remote %s", local.Return, remote.Return)
	}
	if len(local.Emitted) != len(remote.Emitted) || !local.Emitted[0].Equal(remote.Emitted[0]) {
		t.Fatalf("emitted diverged: %v vs %v", local.Emitted, remote.Emitted)
	}
}

func TestVotingQoCFromPublicAPI(t *testing.T) {
	_, addr := stack(t, 3, BrokerOptions{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	prog, err := Compile(`func main(n int) int { return n + 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Run(prog, []Value{Int(1)}, JobOptions{QoC: QoC{Mode: Voting, Replicas: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK() || r.Return.I != 2 || r.Attempts < 2 {
		t.Fatalf("voting result = %+v", r)
	}
}

func TestCompileErrorSurfacesPosition(t *testing.T) {
	_, err := Compile(`func main() int { return x; }`)
	if err == nil || !strings.Contains(err.Error(), "undefined variable") {
		t.Fatalf("err = %v", err)
	}
}

func TestUnknownPolicyRejected(t *testing.T) {
	if _, err := NewBroker(BrokerOptions{Policy: "nope"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestProviderRequiresBroker(t *testing.T) {
	if _, err := StartProvider(ProviderOptions{}); err == nil {
		t.Fatal("empty broker address accepted")
	}
}

func TestBrokerProvidersVisible(t *testing.T) {
	b, _ := stack(t, 2, BrokerOptions{})
	deadline := time.Now().Add(5 * time.Second)
	for {
		if len(b.Providers()) == 2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("providers = %v", b.Providers())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestDisassembleExposed(t *testing.T) {
	prog, err := Compile(`func main() int { return 7; }`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prog.Disassemble(), "pushi 7") {
		t.Fatal("disassembly missing")
	}
	if len(prog.Bytecode()) == 0 {
		t.Fatal("bytecode empty")
	}
}

func TestLocalFallbackWhenFleetEmpty(t *testing.T) {
	// No providers at all: the deadline expires broker-side, and the
	// consumer's local fallback still produces the right answer.
	b, err := NewBroker(BrokerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	prog, err := Compile(`func main(n int) int { return n * 3; }`)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Run(prog, []Value{Int(14)}, JobOptions{
		QoC: QoC{Deadline: 200 * time.Millisecond, LocalFallback: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK() || !r.Local || r.Return.I != 42 {
		t.Fatalf("fallback result = %+v", r)
	}
}

func TestStressHeterogeneousFleetWithRedundancy(t *testing.T) {
	// A wider live deployment: 8 providers across three speed classes,
	// 200 tasklets with 2-way redundancy. Exercises concurrent slots,
	// program caching, replica placement on distinct providers and result
	// routing, all over real sockets.
	if testing.Short() {
		t.Skip("stress test")
	}
	b, err := NewBroker(BrokerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	throttles := []float64{1, 1, 1, 0.6, 0.6, 0.25, 0.25, 0.25}
	for i, th := range throttles {
		p, err := StartProvider(ProviderOptions{
			Broker: addr, Slots: 2, Throttle: th, Name: fmt.Sprintf("s%d", i),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
	}

	prog, err := Compile(`
func main(n int) int {
	var acc int = 0;
	for (var i int = 0; i < 20000; i = i + 1) { acc = acc + i % 9; }
	return n * 2 + acc - acc;
}`)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 200
	params := make([][]Value, n)
	for i := range params {
		params[i] = []Value{Int(int64(i))}
	}
	job, err := c.Map(prog, params, JobOptions{
		QoC: QoC{Mode: Redundant, Replicas: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	res, err := job.Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	providers := map[uint64]int{}
	for i, r := range res {
		if !r.OK() || r.Return.I != int64(i*2) {
			t.Fatalf("res[%d] = %+v", i, r)
		}
		providers[uint64(r.Provider)]++
	}
	if len(providers) < 4 {
		t.Fatalf("work concentrated on %d providers; expected spread", len(providers))
	}
}

func TestFleetQuery(t *testing.T) {
	_, addr := stack(t, 2, BrokerOptions{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Wait until both providers registered their slots.
	deadline := time.Now().Add(5 * time.Second)
	for {
		fleet, pending, err := c.Fleet()
		if err != nil {
			t.Fatal(err)
		}
		ready := 0
		for _, p := range fleet {
			if p.Slots == 2 && p.Speed > 0 {
				ready++
			}
		}
		if len(fleet) == 2 && ready == 2 {
			if pending != 0 {
				t.Fatalf("pending = %d, want 0", pending)
			}
			if fleet[0].ID >= fleet[1].ID {
				t.Fatalf("directory not sorted: %+v", fleet)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never ready: %+v", fleet)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Run work, then confirm the executed counters move.
	prog, err := Compile(`func main(n int) int { return n; }`)
	if err != nil {
		t.Fatal(err)
	}
	params := make([][]Value, 8)
	for i := range params {
		params[i] = []Value{Int(int64(i))}
	}
	job, err := c.Map(prog, params, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := job.Collect(ctx); err != nil {
		t.Fatal(err)
	}
	fleet, _, err := c.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	var executed int64
	for _, p := range fleet {
		executed += p.Executed
	}
	if executed != 8 {
		t.Fatalf("executed total = %d, want 8", executed)
	}
}
