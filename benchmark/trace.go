package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
)

// Tracing here is outside-in: spans around the benchmark's own calls into
// the consumer API and deltas of the public metric registries over the
// traced window. Spans inside broker, provider and consumer are a later
// change; those three layers expose no socket-free entry point either, so
// live counters and these spans are all they get.

// Span kinds; the name is what the span file carries.
const (
	spanJob = iota
	spanSubmit
	spanFirstResult
)

var spanNames = [...]string{"consumer.job", "consumer.submit", "consumer.first_result"}

// span is one timed interval. Times are nanoseconds since the stack run
// began; parent indexes the span that caused it (-1 for a job span).
type span struct {
	kind       uint8
	parent     int32
	job        uint64
	start, end int64
}

// spanCap bounds one generator's spans per traced window. The buffer is
// allocated before the window so appends inside it touch no allocator;
// spans beyond the cap are counted, not kept.
const spanCap = 1 << 17

// traceRec is the extra a generator records in a traced window.
type traceRec struct {
	submit      hist // duration of Client.Submit
	firstResult hist // Submit start → first result of the job
	jobTime     hist // Submit start → last result of the job
	nonexec     hist // tasklet latency minus the provider-measured TaskResult.Exec
	spans       []span
	dropped     int64
}

func newTraceRec() *traceRec { return &traceRec{spans: make([]span, 0, spanCap)} }

// addJob records one finished job: its three durations and three spans.
func (t *traceRec) addJob(id uint64, t0, tSub, tFirst, tLast time.Duration) {
	t.submit.record(tSub - t0)
	t.firstResult.record(tFirst - t0)
	t.jobTime.record(tLast - t0)
	if len(t.spans)+3 > cap(t.spans) {
		t.dropped += 3
		return
	}
	parent := int32(len(t.spans))
	t.spans = append(t.spans,
		span{spanJob, -1, id, int64(t0), int64(tLast)},
		span{spanSubmit, parent, id, int64(t0), int64(tSub)},
		span{spanFirstResult, parent, id, int64(t0), int64(tFirst)})
}

func (t *traceRec) merge(o *traceRec) {
	t.submit.merge(&o.submit)
	t.firstResult.merge(&o.firstResult)
	t.jobTime.merge(&o.jobTime)
	t.nonexec.merge(&o.nonexec)
	t.dropped += o.dropped
	base := int32(len(t.spans))
	for _, s := range o.spans {
		if s.parent >= 0 {
			s.parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// writeSpans writes the spans kept in memory during the traced window.
func (t *traceRec) writeSpans(path string) error {
	type spanJSON struct {
		Name    string `json:"name"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
		Parent  int32  `json:"parent"`
		Job     uint64 `json:"job"`
	}
	out := make([]spanJSON, len(t.spans))
	for i, s := range t.spans {
		out[i] = spanJSON{spanNames[s.kind], s.start, s.end, s.parent, s.job}
	}
	data, err := json.Marshal(struct {
		Dropped int64      `json:"dropped"`
		Spans   []spanJSON `json:"spans"`
	}{t.dropped, out})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// Registry counters whose delta over the traced window is reported.
var (
	brokerCounters = []string{
		"attempts.launched", "attempts.ok", "attempts.lost", "attempts.other",
		"tasklets.deadline_expired", "tasklets.completed", "broker.send_dropped", "broker.placed_per_pass",
		"memo.hits", "memo.misses", "memo.stores", "memo.evictions", "memo.coalesced",
	}
	providerCounters = []string{
		"provider.attempts.executed", "provider.attempts.rejected",
		"provider.attempts.memo_served", "provider.batches.received",
	}
)

// liveTracer brackets one traced window.
type liveTracer struct {
	st          *stack
	mem0        runtime.MemStats
	counters0   map[string]int64
	passes0     int
	passNS0     float64
	execs0      int
	execMS0     float64
	samplerStop chan struct{}
	samplerDone chan float64
}

// liveLayers is what the registries and the runtime say about one traced
// window: counter deltas plus a few derived means.
type liveLayers struct {
	counters     map[string]int64
	schedPasses  int
	schedPassNS  float64 // Σ over the window
	execs        int
	execMS       float64 // Σ over the window
	pendingMean  float64
	latencyP50MS float64
	mem0, mem1   runtime.MemStats
	peakRSSMB    float64
}

func (s *stack) counterSnapshot() map[string]int64 {
	snap := make(map[string]int64, len(brokerCounters)+len(providerCounters))
	for _, n := range brokerCounters {
		snap[n] = s.broker.Metrics().Counter(n).Value()
	}
	for _, n := range providerCounters {
		snap[n] = s.provReg.Counter(n).Value()
	}
	return snap
}

func startLiveTracer(st *stack) *liveTracer {
	reg := st.broker.Metrics()
	lt := &liveTracer{
		st:          st,
		samplerStop: make(chan struct{}),
		samplerDone: make(chan float64, 1),
	}
	lt.mem0 = memSnapshot()
	lt.counters0 = st.counterSnapshot()
	pass, exec := reg.Histogram("broker.sched_pass_ns"), reg.Histogram("attempt.exec_ms")
	lt.passes0, lt.passNS0 = pass.Count(), pass.Sum()
	lt.execs0, lt.execMS0 = exec.Count(), exec.Sum()
	// broker.pending_depth is a gauge, so its mean needs sampling.
	depth := reg.Gauge("broker.pending_depth")
	go func() {
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		var sum, n float64
		for {
			select {
			case <-tick.C:
				sum += float64(depth.Value())
				n++
			case <-lt.samplerStop:
				if n == 0 {
					n = 1
				}
				lt.samplerDone <- sum / n
				return
			}
		}
	}()
	return lt
}

func (lt *liveTracer) finish() *liveLayers {
	close(lt.samplerStop)
	reg := lt.st.broker.Metrics()
	l := &liveLayers{counters: lt.st.counterSnapshot(), mem0: lt.mem0, pendingMean: <-lt.samplerDone}
	for n, v := range lt.counters0 {
		l.counters[n] -= v
	}
	pass, exec := reg.Histogram("broker.sched_pass_ns"), reg.Histogram("attempt.exec_ms")
	l.schedPasses, l.schedPassNS = pass.Count()-lt.passes0, pass.Sum()-lt.passNS0
	l.execs, l.execMS = exec.Count()-lt.execs0, exec.Sum()-lt.execMS0
	// The registry keeps every sample and has no window, so this median is
	// over the stack's whole life (warm-up included).
	l.latencyP50MS = reg.Histogram("tasklet.latency_ms").Quantile(0.5)
	l.mem1 = memSnapshot()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		l.peakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return l
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics turns a traced window into the live per-layer metrics.
func (r *windowResult) layerMetrics() map[string]float64 {
	l, t, c := r.live, r.trace, r.live.counters
	n := float64(r.ok)
	cnt := func(name string) float64 { return float64(c[name]) }
	return map[string]float64{
		"consumer.submit_us_p50":       t.submit.quantile(0.5) / 1e3,
		"consumer.first_result_ms_p50": t.firstResult.quantile(0.5) / 1e6,
		"consumer.job_ms_p50":          t.jobTime.quantile(0.5) / 1e6,
		"consumer.nonexec_ms_p50":      t.nonexec.quantile(0.5) / 1e6,

		"broker.sched_passes":         float64(l.schedPasses),
		"broker.sched_pass_us_mean":   ratio(l.schedPassNS, float64(l.schedPasses)) / 1e3,
		"broker.placed_per_pass_mean": ratio(cnt("broker.placed_per_pass"), float64(l.schedPasses)),
		"broker.pending_depth_mean":   l.pendingMean,
		"broker.send_dropped":         cnt("broker.send_dropped"),
		"broker.latency_ms_p50":       l.latencyP50MS,

		"lifecycle.attempts_launched": cnt("attempts.launched"),
		"lifecycle.attempts_ok":       cnt("attempts.ok"),
		"lifecycle.attempts_lost":     cnt("attempts.lost"),
		"lifecycle.attempts_other":    cnt("attempts.other"),
		"lifecycle.deadline_expired":  cnt("tasklets.deadline_expired"),

		"qoc.useful_ratio": ratio(cnt("tasklets.completed"), cnt("attempts.launched")),

		"memo.hit_ratio": ratio(cnt("memo.hits"), cnt("memo.hits")+cnt("memo.misses")),
		"memo.coalesced": cnt("memo.coalesced"),
		"memo.stores":    cnt("memo.stores"),
		"memo.evictions": cnt("memo.evictions"),

		"provider.executed":          cnt("provider.attempts.executed"),
		"provider.rejected":          cnt("provider.attempts.rejected"),
		"provider.memo_served":       cnt("provider.attempts.memo_served"),
		"provider.assigns_per_batch": ratio(cnt("provider.attempts.executed"), cnt("provider.batches.received")),
		"provider.exec_us_mean":      ratio(l.execMS, float64(l.execs)) * 1e3,

		"stack.allocs_per_tasklet":            float64(l.mem1.Mallocs-l.mem0.Mallocs) / n,
		"stack.alloc_bytes_per_tasklet":       float64(l.mem1.TotalAlloc-l.mem0.TotalAlloc) / n,
		"stack.heap_growth_bytes_per_tasklet": (float64(l.mem1.HeapAlloc) - float64(l.mem0.HeapAlloc)) / n,
		"stack.gc_pause_ms":                   float64(l.mem1.PauseTotalNs-l.mem0.PauseTotalNs) / 1e6,
		"stack.peak_rss_mb":                   l.peakRSSMB,
	}
}

// memSnapshot forces a collection and reads the allocator's counters, so a
// pair of snapshots brackets a window with the live heap at both ends.
func memSnapshot() runtime.MemStats {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms
}
