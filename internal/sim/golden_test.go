package sim

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
)

// The golden file pins the simulator's observable behaviour bit-for-bit
// across refactors: it was generated *before* the tasklet lifecycle was
// extracted into internal/lifecycle, so any divergence between these runs
// and the recorded values means the shared engine changed scheduling,
// QoC, memoization, or finalization behaviour. Regenerate only when a
// behaviour change is intentional: go test ./internal/sim -run Golden -update
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json")

// goldenFinal is the per-tasklet slice of a final result that must stay
// identical: status, executing provider, returned value, and fuel accounting.
type goldenFinal struct {
	Status   uint8  `json:"status"`
	Provider uint64 `json:"provider"`
	RetKind  uint8  `json:"retKind"`
	RetI     int64  `json:"retI"`
	FuelUsed uint64 `json:"fuelUsed"`
}

// goldenRun is one scenario's pinned outcome.
type goldenRun struct {
	MakespanNS     int64         `json:"makespanNS"`
	Completed      int           `json:"completed"`
	Failed         int           `json:"failed"`
	Attempts       int           `json:"attempts"`
	LostAttempts   int           `json:"lostAttempts"`
	WastedAttempts int           `json:"wastedAttempts"`
	CacheHits      int           `json:"cacheHits"`
	Coalesced      int           `json:"coalesced"`
	DeviceExecuted []int         `json:"deviceExecuted"`
	Finals         []goldenFinal `json:"finals"`
}

// goldenScenarios builds the pinned scenarios. They cover every lifecycle path the refactor moves: QoC voting
// with a faulty minority, memo hits and coalesced flights, deadlines,
// redundant fan-out with cancellations, provider churn with lost-attempt
// re-issue, and mixed arrivals over a heterogeneous fleet.
func goldenScenarios(t *testing.T) map[string]Config {
	t.Helper()
	votingFaulty := Config{
		Devices: []DeviceSpec{
			{Class: core.ClassDesktop, Slots: 2},
			{Class: core.ClassDesktop, Slots: 2},
			{Class: core.ClassDesktop, Slots: 2},
			{Class: core.ClassDesktop, Slots: 2, Faulty: true},
		},
		Tasks: keyedTasks(64, 20_000_000, []uint64{11, 12, 11, 13, 11, 12, 14, 11},
			100*time.Millisecond, core.QoC{Mode: core.QoCVoting, Replicas: 3}),
		Seed: 17,
	}

	mixed := Config{
		Devices: []DeviceSpec{
			{Class: core.ClassServer, Slots: 4, Speed: 400},
			{Class: core.ClassDesktop, Slots: 2, Speed: 100},
			{Class: core.ClassMobile, Slots: 1, Speed: 25},
		},
		Policy:  policy(t, "fastest", 42),
		Latency: 5 * time.Millisecond,
		Seed:    7,
	}
	for i := 0; i < 48; i++ {
		spec := TaskSpec{
			Fuel:    uint64(1+i%5) * 30_000_000,
			Arrival: time.Duration(i) * 120 * time.Millisecond,
		}
		switch i % 4 {
		case 1:
			spec.QoC = core.QoC{Mode: core.QoCRedundant, Replicas: 2}
		case 2:
			spec.QoC = core.QoC{Deadline: 2 * time.Second}
		case 3:
			spec.Key = uint64(20 + i%3)
		}
		mixed.Tasks = append(mixed.Tasks, spec)
	}

	churn := Config{
		Devices: []DeviceSpec{
			{Class: core.ClassDesktop, Slots: 1, MTBF: 5 * time.Second, MTTR: 2 * time.Second},
			{Class: core.ClassDesktop, Slots: 1},
		},
		Tasks:       uniformTasks(60, 50_000_000),
		DetectDelay: 500 * time.Millisecond,
		Seed:        11,
	}

	// Multi-slot devices lose several attempts at once: the order the
	// losses are fed in decides where each re-issue runs.
	churnMultislot := Config{
		Devices: []DeviceSpec{
			{Class: core.ClassServer, Slots: 4, MTBF: 3 * time.Second, MTTR: 2 * time.Second},
			{Class: core.ClassDesktop, Slots: 4, MTBF: 4 * time.Second, MTTR: 2 * time.Second},
			{Class: core.ClassDesktop, Slots: 2},
		},
		Tasks:       uniformTasks(300, 50_000_000),
		DetectDelay: 500 * time.Millisecond,
		Seed:        11,
	}

	memoBurst := Config{
		Devices: homogeneous(2, 2, 100),
		Tasks:   keyedTasks(40, 40_000_000, []uint64{5, 6, 5, 5, 7}, 50*time.Millisecond, core.QoC{}),
		Seed:    3,
	}

	return map[string]Config{
		"voting_faulty_memo": votingFaulty,
		"mixed_modes":        mixed,
		"churn_retries":      churn,
		"churn_multislot":    churnMultislot,
		"memo_burst":         memoBurst,
	}
}

func goldenFromStats(stats *Stats) goldenRun {
	g := goldenRun{
		MakespanNS:     int64(stats.Makespan),
		Completed:      stats.Completed,
		Failed:         stats.Failed,
		Attempts:       stats.Attempts,
		LostAttempts:   stats.LostAttempts,
		WastedAttempts: stats.WastedAttempts,
		CacheHits:      stats.CacheHits,
		Coalesced:      stats.Coalesced,
		DeviceExecuted: stats.DeviceExecuted,
	}
	for _, f := range stats.Finals {
		g.Finals = append(g.Finals, goldenFinal{
			Status:   uint8(f.Status),
			Provider: uint64(f.Provider),
			RetKind:  uint8(f.Return.Kind),
			RetI:     f.Return.I,
			FuelUsed: f.FuelUsed,
		})
	}
	return g
}

// TestSimGoldenPinned replays the pinned scenarios and requires every
// recorded field — aggregate counters, per-device execution counts, and
// every tasklet's final result — to match the pre-refactor goldens exactly.
func TestSimGoldenPinned(t *testing.T) {
	path := filepath.Join("testdata", "golden.json")
	got := map[string]goldenRun{}
	for name, cfg := range goldenScenarios(t) {
		stats, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = goldenFromStats(stats)
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read goldens (regenerate with -update): %v", err)
	}
	var want map[string]goldenRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name := range want {
		w, g := want[name], got[name]
		if g.MakespanNS != w.MakespanNS || g.Completed != w.Completed || g.Failed != w.Failed ||
			g.Attempts != w.Attempts || g.LostAttempts != w.LostAttempts ||
			g.WastedAttempts != w.WastedAttempts || g.CacheHits != w.CacheHits ||
			g.Coalesced != w.Coalesced {
			t.Errorf("%s: aggregates diverged from pre-refactor golden:\n got %+v\nwant %+v",
				name, stripFinals(g), stripFinals(w))
		}
		if !reflect.DeepEqual(g.DeviceExecuted, w.DeviceExecuted) {
			t.Errorf("%s: per-device execution counts diverged:\n got %v\nwant %v",
				name, g.DeviceExecuted, w.DeviceExecuted)
		}
		if len(g.Finals) != len(w.Finals) {
			t.Errorf("%s: finals count %d, want %d", name, len(g.Finals), len(w.Finals))
			continue
		}
		for i := range w.Finals {
			if g.Finals[i] != w.Finals[i] {
				t.Errorf("%s: final %d diverged:\n got %+v\nwant %+v", name, i, g.Finals[i], w.Finals[i])
			}
		}
	}
}

func stripFinals(g goldenRun) goldenRun {
	g.Finals = nil
	g.DeviceExecuted = nil
	return g
}
