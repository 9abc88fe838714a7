package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/stdtasks"
)

// loopKind is stated in the output of every workload. Consumers block on
// Job.Results(), so callers that wait are the real arrival process; an open
// loop on a shared 2-core host ran tens of ms late against a 0.05 ms round
// trip, which would swamp the signal.
const loopKind = "closed loop, 2 clients"

// metricDef names one metric; BENCHMARK.json carries the same table and the
// smoke test keeps the two in step. bound, end-to-end only, is the relative
// worsening that counts as a regression.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// The five time-based bounds are 0.25 where the issue has 0.10-0.15: the
// reference host's noisy minutes spread single runs wider than those (README,
// "Why the time-based bounds are 0.25").
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"tasklets_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"cpu_us_per_tasklet", "us", "lower", 0.25},
	{"attempts_per_tasklet", "1", "lower", 0.05},
	{"ok_frac", "1", "higher", 0.001},
}

const (
	// setups is how many times an untraced run sets the stack up. Every one
	// is timed and setup_s is their median; only the last carries the
	// measured window, which gets all of the run's seconds: the run-time cap
	// leaves room for one window of the issue's length, not three.
	setups = 3
	// windowSlices is how many equal slices the untraced window is recorded
	// in. Every metric is taken over the whole window; the slices are the
	// samples behind min, max and the spread -compare judges "unresolved" by.
	windowSlices = 5
)

var perLayerDefs = []metricDef{
	{name: "consumer.submit_us_p50", unit: "us", better: "lower"},
	{name: "consumer.first_result_ms_p50", unit: "ms", better: "lower"},
	{name: "consumer.job_ms_p50", unit: "ms", better: "lower"},
	{name: "consumer.nonexec_ms_p50", unit: "ms", better: "lower"},
	{name: "broker.sched_passes", unit: "count", better: "lower"},
	{name: "broker.sched_pass_us_mean", unit: "us", better: "lower"},
	{name: "broker.placed_per_pass_mean", unit: "1", better: "higher"},
	{name: "broker.pending_depth_mean", unit: "1", better: "lower"},
	{name: "broker.send_dropped", unit: "count", better: "lower"},
	{name: "broker.latency_ms_p50", unit: "ms", better: "lower"},
	{name: "lifecycle.attempts_launched", unit: "count", better: "lower"},
	{name: "lifecycle.attempts_ok", unit: "count", better: "higher"},
	{name: "lifecycle.attempts_lost", unit: "count", better: "lower"},
	{name: "lifecycle.attempts_other", unit: "count", better: "lower"},
	{name: "lifecycle.deadline_expired", unit: "count", better: "lower"},
	{name: "lifecycle.apply_ns_per_tasklet", unit: "ns", better: "lower"},
	{name: "qoc.useful_ratio", unit: "1", better: "higher"},
	{name: "qoc.tracker_ns_per_tasklet", unit: "ns", better: "lower"},
	{name: "memo.hit_ratio", unit: "1", better: "higher"},
	{name: "memo.coalesced", unit: "count", better: "higher"},
	{name: "memo.stores", unit: "count", better: "lower"},
	{name: "memo.evictions", unit: "count", better: "lower"},
	{name: "memo.keyfor_ns", unit: "ns", better: "lower"},
	{name: "memo.get_ns", unit: "ns", better: "lower"},
	{name: "memo.put_ns", unit: "ns", better: "lower"},
	{name: "scheduler.capacity_used_frac", unit: "1", better: "higher"},
	{name: "scheduler.pick_ns", unit: "ns", better: "lower"},
	{name: "provider.executed", unit: "count", better: "higher"},
	{name: "provider.rejected", unit: "count", better: "lower"},
	{name: "provider.memo_served", unit: "count", better: "higher"},
	{name: "provider.assigns_per_batch", unit: "1", better: "higher"},
	{name: "provider.exec_us_mean", unit: "us", better: "lower"},
	{name: "wire.encode_ns_per_tasklet", unit: "ns", better: "lower"},
	{name: "wire.decode_ns_per_tasklet", unit: "ns", better: "lower"},
	{name: "wire.bytes_per_tasklet", unit: "B", better: "lower"},
	{name: "wire.loopback_frame_us", unit: "us", better: "lower"},
	{name: "tvm.run_us_per_tasklet", unit: "us", better: "lower"},
	{name: "tvm.load_us", unit: "us", better: "lower"},
	{name: "tasklang.compile_us", unit: "us", better: "lower"},
	{name: "metrics.observe_ns", unit: "ns", better: "lower"},
	{name: "stack.allocs_per_tasklet", unit: "1", better: "lower"},
	{name: "stack.alloc_bytes_per_tasklet", unit: "B", better: "lower"},
	{name: "stack.heap_growth_bytes_per_tasklet", unit: "B", better: "lower"},
	{name: "stack.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "stack.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "stack.metg_us", unit: "us", better: "lower"},
	{name: "budget.layers_sum_us", unit: "us", better: "lower"},
	{name: "budget.coverage", unit: "1", better: "higher"},
	{name: "trace.overhead_frac", unit: "1", better: "lower"},
}

// summary is one end-to-end metric of a run: the value reported and the
// samples beside it. setup_s is the median of its samples, the set-ups; every
// other metric is taken over the whole window and its samples are the
// window's slices.
type summary struct {
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Bound   float64   `json:"bound"`
	Value   float64   `json:"value"`
	Median  float64   `json:"median"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

type layerValue struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Value  float64 `json:"value"`
}

type counts struct {
	Attempted  int64   `json:"attempted"`
	OK         int64   `json:"ok"`
	BadStatus  int64   `json:"bad_status"`
	Wrong      int64   `json:"wrong_value"`
	Missing    int64   `json:"missing"`
	FailedFrac float64 `json:"failed_frac"`
	// FirstFailure describes the first non-OK result seen, if any.
	FirstFailure string `json:"first_failure,omitempty"`
}

func (c *counts) add(r *sliceResult) {
	c.Attempted += r.attempted()
	c.OK += r.ok
	c.BadStatus += r.badStatus
	c.Wrong += r.wrong
	c.Missing += r.missing
	c.FailedFrac = float64(c.Attempted-c.OK) / float64(c.Attempted)
	if c.FirstFailure == "" {
		c.FirstFailure = r.firstFailure
	}
}

// tracedInfo describes the traced run the per-layer numbers come from.
type tracedInfo struct {
	WindowS              float64     `json:"window_s"`
	TaskletsPerS         float64     `json:"tasklets_per_s"`
	UntracedTaskletsPerS float64     `json:"untraced_tasklets_per_s"`
	Spans                int         `json:"spans"`
	SpansDropped         int64       `json:"spans_dropped"`
	Counts               counts      `json:"counts"`
	METG                 []metgPoint `json:"metg_sweep,omitempty"`
}

type workloadReport struct {
	Name           string `json:"name"`
	Why            string `json:"why"`
	Loop           string `json:"loop"`
	InputsSHA256   string `json:"inputs_sha256"`
	WarmupTasklets int    `json:"warmup_tasklets"`

	// From the untraced run (absent with -trace 1).
	WindowS        float64            `json:"window_s,omitempty"`
	EndToEnd       map[string]summary `json:"end_to_end,omitempty"`
	LatencySamples uint64             `json:"latency_samples,omitempty"`
	LatencyTailQ   float64            `json:"latency_p99_quantile,omitempty"`
	Counts         *counts            `json:"counts,omitempty"`

	// From the traced run (absent with -trace 0).
	PerLayer map[string]layerValue `json:"per_layer,omitempty"`
	Traced   *tracedInfo           `json:"traced,omitempty"`
}

type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitHead    string `json:"git_head"`
	Note       string `json:"note"`
}

type report struct {
	Host      hostInfo         `json:"host"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Setups    int              `json:"setups"`
	Workloads []workloadReport `json:"workloads"`
}

func readHost() hostInfo {
	h := hostInfo{
		CPUModel: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitHead: "unknown",
		Note: "broker, providers, consumers and the load generator share one process; cpu_us_per_tasklet covers all of them",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// Only ask git inside a work tree, so a bare checkout is not searched
	// upwards for a repository that is not this one.
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(dir + "/.git"); err == nil {
			if out, err := exec.Command("git", "-C", dir, "rev-parse", "HEAD").Output(); err == nil {
				h.GitHead = strings.TrimSpace(string(out))
			}
			break
		}
	}
	return h
}

// quantile interpolates linearly between the order statistics of v.
func quantile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func summarize(d metricDef, value float64, samples []float64) summary {
	return summary{Unit: d.unit, Better: d.better, Bound: d.bound, Value: value,
		N: len(samples), Samples: samples,
		Median: quantile(samples, 0.5), Min: quantile(samples, 0), Max: quantile(samples, 1)}
}

// measureEndToEnd makes the untraced run: nSetups fresh stacks, each set up
// and warmed, the last of which then measures one window of the given length.
func measureEndToEnd(w *workloadSpec, in *inputs, seconds float64, nSetups int, rep *workloadReport) error {
	plan := []windowPlan{{dur: time.Duration(seconds * float64(time.Second)), slices: windowSlices}}
	var setupS []float64
	var window *windowResult
	for i := 1; i <= nSetups; i++ {
		var p []windowPlan
		if i == nSetups {
			p = plan
		}
		res, s, err := runStack(w, in, p)
		if err != nil {
			return err
		}
		setupS = append(setupS, s)
		if len(res) > 0 {
			window = &res[0]
		}
	}
	whole := window.endToEnd()
	samples := map[string][]float64{}
	for i := range window.slices {
		if sl := &window.slices[i]; sl.ok > 0 {
			for name, v := range sl.endToEnd() {
				samples[name] = append(samples[name], v)
			}
		}
	}
	rep.EndToEnd = map[string]summary{}
	for _, d := range endToEndDefs {
		if d.name == "setup_s" {
			rep.EndToEnd[d.name] = summarize(d, quantile(setupS, 0.5), setupS)
			continue
		}
		rep.EndToEnd[d.name] = summarize(d, whole[d.name], samples[d.name])
	}
	rep.WindowS = window.seconds
	rep.LatencySamples = window.lat.n
	rep.LatencyTailQ = window.lat.tailQuantile()
	rep.Counts = &counts{}
	rep.Counts.add(&window.sliceResult)
	return nil
}

// measureLayers makes the traced run: one stack, an untraced and then a
// traced window of equal length (their ratio is the tracing overhead), then
// the socket-free probes. The two windows share the run's seconds; on the
// workload that carries the METG sweep they take half and the sweep the rest.
func measureLayers(w *workloadSpec, in *inputs, seconds float64, spansPath string, rep *workloadReport) error {
	window := time.Duration(seconds / 2 * float64(time.Second))
	if w.metg {
		window /= 2
	}
	res, _, err := runStack(w, in, []windowPlan{{dur: window, slices: 1}, {dur: window, slices: 1, traced: true}})
	if err != nil {
		return err
	}
	plain, traced := &res[0], &res[1]
	m := traced.layerMetrics()
	m["trace.overhead_frac"] = 1 - traced.rate()/plain.rate()

	// The probes measure the frame shapes and multiplicities this run had.
	batch := int(m["provider.assigns_per_batch"] + 0.5)
	if batch < 1 {
		batch = 1 // no AssignBatch seen: every attempt travelled in a single frame
		m["provider.assigns_per_batch"] = 1
	}
	n := float64(traced.ok)
	facts := liveFacts{
		attempts: m["lifecycle.attempts_launched"] / n,
		tvmRuns:  (m["provider.executed"] - m["provider.memo_served"]) / n,
		batch:    batch,
		cpuUS:    plain.cpuUS / float64(plain.ok),
	}
	code, err := stdtasks.Bytecode(w.program)
	if err != nil {
		return err
	}
	probes, err := runProbes(w, in, code, facts)
	if err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	for k, v := range probes {
		m[k] = v
	}
	nproc := runtime.NumCPU()
	m["scheduler.capacity_used_frac"] = (m["provider.executed"] - m["provider.memo_served"]) *
		m["tvm.run_us_per_tasklet"] / 1e6 / (traced.seconds * w.capacity(nproc))

	// METG is a property of the stack, not of a workload, so one traced run
	// carries the sweep and the others report 0: not measured here.
	var sweep []metgPoint
	m["stack.metg_us"] = 0
	if w.metg {
		grain := time.Duration(seconds / 2 / float64(len(metgGrains)) * float64(time.Second))
		if m["stack.metg_us"], sweep, err = measureMETG(grain, nproc); err != nil {
			return fmt.Errorf("metg: %w", err)
		}
	}

	rep.PerLayer = map[string]layerValue{}
	for _, d := range perLayerDefs {
		v, ok := m[d.name]
		if !ok {
			return fmt.Errorf("per-layer metric %s was not measured", d.name)
		}
		rep.PerLayer[d.name] = layerValue{Unit: d.unit, Better: d.better, Value: v}
	}
	rep.Traced = &tracedInfo{
		WindowS: traced.seconds, TaskletsPerS: traced.rate(), UntracedTaskletsPerS: plain.rate(),
		Spans: len(traced.trace.spans), SpansDropped: traced.trace.dropped, METG: sweep,
	}
	rep.Traced.Counts.add(&plain.sliceResult)
	rep.Traced.Counts.add(&traced.sliceResult)
	if spansPath != "" {
		return traced.trace.writeSpans(spansPath)
	}
	return nil
}

// print writes every metric of the workload by name with its unit.
func (rep *workloadReport) print(out *bufio.Writer) {
	fmt.Fprintf(out, "== %s (%s) inputs %s\n", rep.Name, rep.Loop, rep.InputsSHA256[:12])
	if rep.EndToEnd != nil {
		fmt.Fprintf(out, "  end to end, tracing off: setup_s is the median of %d set-ups; the rest is taken over one %.3g s window, [n min median max] are its slices\n",
			rep.EndToEnd["setup_s"].N, rep.WindowS)
		for _, d := range endToEndDefs {
			s := rep.EndToEnd[d.name]
			fmt.Fprintf(out, "  %-38s %14.6g %-5s [n %d  min %.6g  median %.6g  max %.6g]\n", d.name, s.Value, s.Unit, s.N, s.Min, s.Median, s.Max)
		}
		c := rep.Counts
		fmt.Fprintf(out, "  %-38s %14.6g %-5s %d failed of %d (%d bad status, %d wrong value, %d missing); %d latency samples, p99 taken at quantile %g\n",
			"failed_frac", c.FailedFrac, "1", c.Attempted-c.OK, c.Attempted, c.BadStatus, c.Wrong, c.Missing, rep.LatencySamples, rep.LatencyTailQ)
		if c.FirstFailure != "" {
			fmt.Fprintf(out, "  first failure: %s\n", c.FirstFailure)
		}
	}
	if rep.PerLayer != nil {
		for _, d := range perLayerDefs {
			fmt.Fprintf(out, "  %-38s %14.6g %s\n", d.name, rep.PerLayer[d.name].Value, d.unit)
		}
	}
}
