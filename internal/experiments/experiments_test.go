package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func quick() Options { return Options{Quick: true, Seed: 7} }

func TestIDsComplete(t *testing.T) {
	want := []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e13"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", got, want)
		}
	}
	for _, id := range got {
		if Title(id) == "" {
			t.Fatalf("experiment %s has no title", id)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("e99", quick()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestE1Overheads(t *testing.T) {
	res, err := RunE1(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 5 {
		t.Fatalf("rows = %v", res.Rows)
	}
	out := res.Render()
	for _, want := range []string{"TCL compile", "round trip", "slowdown"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestE2CrossoverShape(t *testing.T) {
	res, err := RunE2(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("series = %d", len(res.Series))
	}
	local, remote, lan := res.Series[0], res.Series[1], res.Series[2]
	// On tiny tasklets, offload over a real network must lose to local.
	if lan.Y[0] <= local.Y[0] {
		t.Fatalf("tiny tasklet: LAN offload (%.3fms) should lose to local (%.3fms)", lan.Y[0], local.Y[0])
	}
	// On the largest swept size, the 4x-faster provider must win even
	// with the LAN RTT added.
	last := len(local.Y) - 1
	if lan.Y[last] >= local.Y[last] {
		t.Fatalf("large tasklet: LAN offload (%.1fms) should beat slow local (%.1fms)", lan.Y[last], local.Y[last])
	}
	// The loopback series bounds the middleware's own overhead: it must
	// sit below the LAN series everywhere.
	for i := range remote.Y {
		if remote.Y[i] >= lan.Y[i] {
			t.Fatalf("series inconsistent at %v", remote.X[i])
		}
	}
}

func TestE3SpeedupShape(t *testing.T) {
	res, err := RunE3(quick())
	if err != nil {
		t.Fatal(err)
	}
	speedup := res.Series[0]
	if speedup.Y[0] != 1 {
		t.Fatalf("speedup at 1 provider = %v", speedup.Y[0])
	}
	for i := 1; i < speedup.Len(); i++ {
		if speedup.Y[i] <= speedup.Y[i-1] {
			t.Fatalf("speedup not monotone: %v", speedup.Y)
		}
	}
	// 8 providers on a 128-task batch should achieve near-linear speedup.
	for i, x := range speedup.X {
		if x == 8 && speedup.Y[i] < 6 {
			t.Fatalf("speedup at 8 providers = %.2f, want > 6", speedup.Y[i])
		}
	}
}

func TestE4HeterogeneityShape(t *testing.T) {
	res, err := RunE4(quick())
	if err != nil {
		t.Fatal(err)
	}
	bySeries := map[string]*seriesView{}
	for _, s := range res.Series {
		bySeries[strings.Fields(s.Name)[0]] = &seriesView{x: s.X, y: s.Y}
	}
	random, fastest := bySeries["random"], bySeries["fastest"]
	if random == nil || fastest == nil {
		t.Fatalf("missing series in %v", res.Series)
	}
	// Homogeneous fleet (spread 1): policies within 10%.
	if r := random.at(1) / fastest.at(1); r < 0.9 || r > 1.3 {
		t.Fatalf("homogeneous fleet should tie: random %.1f vs fastest %.1f", random.at(1), fastest.at(1))
	}
	// Strong heterogeneity: fastest clearly wins.
	if random.at(16) <= fastest.at(16) {
		t.Fatalf("spread 16: random %.1f should exceed fastest %.1f", random.at(16), fastest.at(16))
	}
}

type seriesView struct{ x, y []float64 }

func (s *seriesView) at(x float64) float64 {
	for i, xv := range s.x {
		if xv == x {
			return s.y[i]
		}
	}
	return -1
}

func TestE5ChurnShape(t *testing.T) {
	res, err := RunE5(quick())
	if err != nil {
		t.Fatal(err)
	}
	// Series: 3 completion curves then 3 overhead curves.
	if len(res.Series) != 6 {
		t.Fatalf("series = %d", len(res.Series))
	}
	redundant := res.Series[2]
	if !strings.Contains(redundant.Name, "redundant2") {
		t.Fatalf("series order changed: %s", redundant.Name)
	}
	// Redundancy keeps completion at 100% across the sweep.
	for i, y := range redundant.Y {
		if y < 99.9 {
			t.Fatalf("redundant completion at MTBF %v = %.1f%%", redundant.X[i], y)
		}
	}
	// Attempt overhead grows as MTBF shrinks for the retry level.
	retryOverhead := res.Series[4]
	first, last := retryOverhead.Y[0], retryOverhead.Y[len(retryOverhead.Y)-1]
	if last <= first {
		t.Fatalf("attempts/task should grow with churn: %v", retryOverhead.Y)
	}
}

func TestE6QoCCostShape(t *testing.T) {
	res, err := RunE6(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// attempts/task: 1, 2, 3 for best-effort and redundant-2/3; on this
	// agreeing fleet voting-3/5 cost exactly their majorities, 2 and 3.
	parse := func(row [2]string) float64 {
		var v float64
		if _, err := fmt.Sscanf(row[1], "attempts/task %f", &v); err != nil {
			t.Fatalf("row %q unparseable: %v", row[1], err)
		}
		return v
	}
	be, r2, r3 := parse(res.Rows[0]), parse(res.Rows[1]), parse(res.Rows[2])
	if !(be < r2 && r2 < r3) {
		t.Fatalf("attempt ordering wrong: %v %v %v", be, r2, r3)
	}
	if be > 1.01 {
		t.Fatalf("best effort attempts/task = %v, want 1", be)
	}
	if v3, v5 := parse(res.Rows[3]), parse(res.Rows[4]); v3 != 2 || v5 != 3 {
		t.Fatalf("voting3/voting5 attempts/task = %v/%v, want the majorities 2/3", v3, v5)
	}
}

func TestE7ThroughputShape(t *testing.T) {
	res, err := RunE7(quick())
	if err != nil {
		t.Fatal(err)
	}
	tput := res.Series[0]
	// The broker saturates quickly on noop tasklets; the figure's shape is
	// "high and roughly flat" — no batch size may collapse throughput.
	var max float64
	for _, y := range tput.Y {
		if y > max {
			max = y
		}
	}
	for i, y := range tput.Y {
		if y < max/5 {
			t.Fatalf("throughput collapsed at batch %v: %v (max %v)", tput.X[i], y, max)
		}
	}
	if max < 1000 {
		t.Fatalf("broker throughput %.0f tasklets/s is implausibly low", max)
	}
}

func TestE8MemoizationShape(t *testing.T) {
	res, err := RunE8(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 5 {
		t.Fatalf("series = %d", len(res.Series))
	}
	hitRate, onP50, offP50 := res.Series[0], res.Series[1], res.Series[2]
	// The heaviest skew must serve more from the memo than uniform.
	first, last := hitRate.Y[0], hitRate.Y[len(hitRate.Y)-1]
	if last <= first {
		t.Fatalf("hit rate should grow with skew: %v", hitRate.Y)
	}
	if first < 30 {
		t.Fatalf("uniform hit rate = %.1f%%, repeats should dominate even unskewed", first)
	}
	// Median latency with the memo on must clearly beat memo off at every
	// skew (most submissions are served without executing).
	for i := range onP50.Y {
		if onP50.Y[i] >= offP50.Y[i] {
			t.Fatalf("skew %v: memo-on p50 %.1fms not below memo-off %.1fms",
				onP50.X[i], onP50.Y[i], offP50.Y[i])
		}
	}
}

func TestE9DataPlaneShape(t *testing.T) {
	res, err := RunE9(quick())
	if err != nil {
		t.Fatal(err)
	}
	// A throughput series then a p99 series.
	if len(res.Series) != 2 {
		t.Fatalf("series = %d", len(res.Series))
	}
	tput := res.Series[0]
	if !strings.Contains(tput.Name, "tasklets/s") {
		t.Fatalf("series order changed: %s", tput.Name)
	}
	// Noop tasklets over loopback: anything under 1k/s means the data
	// plane broke, not that the machine is slow.
	for i, y := range tput.Y {
		if y < 1000 {
			t.Fatalf("%s at conc %v = %.0f tasklets/s, implausibly low", tput.Name, tput.X[i], y)
		}
	}
	// The pooled send path must allocate strictly less than the legacy
	// Marshal+write discipline (the PR's ≥30%-fewer-allocs criterion; in
	// practice 0 vs 1).
	var pooled, legacy float64
	for _, row := range res.Rows {
		var v float64
		if _, err := fmt.Sscanf(row[1], "%f", &v); err != nil {
			t.Fatalf("row %q unparseable: %v", row[1], err)
		}
		if strings.Contains(row[0], "pooled") {
			pooled = v
		} else {
			legacy = v
		}
	}
	if pooled >= legacy {
		t.Fatalf("pooled send path allocs/msg = %v, legacy = %v; pooling regressed", pooled, legacy)
	}
}

func TestE13PartitionShape(t *testing.T) {
	res, err := RunE13(quick())
	if err != nil {
		// RunE13 fails on any non-OK result, and on a >= 8-way host below
		// a 1.5x live speedup.
		t.Fatal(err)
	}
	live := 0
	for _, row := range res.Rows {
		if !strings.HasPrefix(row[0], "live loopback") {
			continue
		}
		live++
		var tput float64
		if _, err := fmt.Sscanf(row[1], "%f tasklets/s", &tput); err != nil {
			t.Fatalf("row %q unparseable: %v", row[1], err)
		}
		// Noop tasklets over loopback: anything under 1k/s means the broker
		// core broke, not that the machine is slow.
		if tput < 1000 {
			t.Fatalf("%s: %.0f tasklets/s, implausibly low", row[0], tput)
		}
	}
	if live != 2 {
		t.Fatalf("%d live rows, want -partitions=1 and GOMAXPROCS: %v", live, res.Rows)
	}
}

func TestRenderIncludesNotes(t *testing.T) {
	res := &Result{ID: "X", Title: "t", Notes: []string{"hello note"}}
	if !strings.Contains(res.Render(), "hello note") {
		t.Fatal("notes missing from render")
	}
}

func TestRunDispatchesAndLogs(t *testing.T) {
	var sb strings.Builder
	opts := quick()
	opts.Out = &sb
	start := time.Now()
	res, err := Run("e3", opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "E3" {
		t.Fatalf("res = %+v", res)
	}
	if !strings.Contains(sb.String(), "finished in") {
		t.Fatalf("log output = %q", sb.String())
	}
	_ = start
}
