package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/stdtasks"
	"repro/internal/workload"
)

// consumers is the number of consumer connections (= generator goroutines)
// every workload uses. The fleet shapes below are fixed too: neither scales
// with nproc, so two hosts run the same experiment.
const consumers = 2

// providerSpec is one member of a workload's fleet. Speed is always
// overridden to 100 so placement does not depend on a start-up self-benchmark.
type providerSpec struct {
	slots     int
	throttle  float64 // 0 = unthrottled
	failAfter int     // > 0: churning provider, reconnected by the stack
}

// workloadSpec is one fixed closed-loop workload: each of the two consumers
// keeps exactly one job of jobSize tasklets in flight.
type workloadSpec struct {
	name    string
	why     string
	program string // stdtasks name: "noop" or "spin"
	jobSize int
	qoc     core.QoC
	fleet   []providerSpec
	// warmup is the number of tasklets the stack completes (after the cold
	// first job) before the measured window opens.
	warmup int
	// draw fills one consumer's parameter stream from the seed. Nil means the
	// workload has no random input (noop has no parameter; spin_compute has a
	// constant one, held in fixed).
	draw  func(seed uint64, consumer int) []int64
	fixed int64
	// metg marks the one workload whose traced run also carries the METG
	// sweep (see measureMETG).
	metg bool
}

// maxRetries is every workload's QoC.MaxRetries: the most core.QoC allows.
// Two defects of the stack turn into failed tasklets once the default budget
// of 3 is spent, more often the more the host is disturbed: the provider's
// slot-release race (a burst of "no free slot" rejections of one tasklet) and
// the voting tracker spending a retry whenever a replica reports before its
// siblings are placed. A driver takes only workloads on which no operation
// fails; with the budget wide the defects cost attempts instead, which
// attempts_per_tasklet and provider.rejected show. The METG stacks carry the
// same budget.
const maxRetries = 64

func fleetOf(n, slots int) []providerSpec {
	f := make([]providerSpec, n)
	for i := range f {
		f[i].slots = slots
	}
	return f
}

// The grains of memo_zipf and hetero_vote are a tenth of the issue's
// (20 000 → 2 000, 10 000..400 000 → 1 000..40 000) so that a cache-filling
// warm-up and a statistically useful number of voting jobs fit in a window
// of a few seconds; see README.md "Sizing".
const (
	memoPool      = 16384 // 4x the broker memo's default 4096 entries
	memoBaseIters = 2000
	zipfSkew      = 1.1
	paretoAlpha   = 1.5
	paretoLo      = 1000
	paretoHi      = 40000
	// Length of one consumer's pre-generated parameter stream; the generator
	// wraps around when a run exhausts it. The memo stream must outlast a run
	// (a wrap would replay content in order); the Pareto stream is NoCache, so
	// a wrap only repeats sizes, and every distinct size costs one native
	// reference run at input generation.
	zipfStream   = 1 << 18
	paretoStream = 1 << 14
)

var workloads = []workloadSpec{
	{
		name:    "noop_flood",
		why:     "2048-tasklet noop jobs: the control plane does all the work and the TVM none, so batching, partitions and the placement index pay here or nowhere",
		program: "noop", jobSize: 2048,
		qoc:    core.QoC{NoCache: true, MaxRetries: maxRetries},
		fleet:  fleetOf(2, 8),
		warmup: 40 * 2048,
	},
	{
		name:    "spin_compute",
		why:     "64-tasklet spin(50000) jobs (~5 ms each): the TVM does >95% of the work, so a TVM gain shows here and a control-plane change must show none",
		program: "spin", jobSize: 64, fixed: 50000,
		qoc:    core.QoC{NoCache: true, MaxRetries: maxRetries},
		fleet:  fleetOf(2, 2),
		warmup: 2 * 64,
		metg:   true,
	},
	{
		name:    "trickle_rtt",
		why:     "single-tasklet noop jobs: every batch window is a singleton and the CPU mostly idle, so per-message syscall and wake-up cost sets the latency",
		program: "noop", jobSize: 1,
		qoc:    core.QoC{NoCache: true, MaxRetries: maxRetries},
		fleet:  fleetOf(2, 2),
		warmup: 5000,
	},
	{
		name:    "memo_zipf",
		why:     "512-tasklet spin jobs with Zipf(1.1) content over 4x the memo capacity, memo on: key derivation, cache hit/miss/evict and flight coalescing in steady state",
		program: "spin", jobSize: 512,
		qoc:    core.QoC{MaxRetries: maxRetries},
		fleet:  fleetOf(2, 8),
		warmup: 60 * 512,
		draw: func(seed uint64, consumer int) []int64 {
			idx := workload.ZipfIndices(zipfStream, memoPool, zipfSkew, seed*consumers+uint64(consumer)+1)
			out := make([]int64, len(idx))
			for i, k := range idx {
				out[i] = memoBaseIters + int64(k)
			}
			return out
		},
	},
	{
		name:    "hetero_vote",
		why:     "96-tasklet bounded-Pareto spin jobs, 3-way voting on six throttled providers plus one that churns: placement quality, stragglers and QoC fan-in, not host CPU, set the rate",
		program: "spin", jobSize: 96,
		qoc: core.QoC{Mode: core.QoCVoting, Replicas: 3, MaxRetries: maxRetries, NoCache: true},
		fleet: []providerSpec{
			{slots: 2, throttle: 0.16}, {slots: 2, throttle: 0.08}, {slots: 2, throttle: 0.08},
			{slots: 2, throttle: 0.04}, {slots: 2, throttle: 0.04}, {slots: 2, throttle: 0.02},
			{slots: 2, throttle: 0.08, failAfter: 400},
		},
		warmup: 2 * 96,
		draw: func(seed uint64, consumer int) []int64 {
			r := rand.New(rand.NewPCG(seed, uint64(consumer)))
			ratio := math.Pow(float64(paretoLo)/float64(paretoHi), paretoAlpha)
			out := make([]int64, paretoStream)
			for i := range out {
				// Inverse CDF of the Pareto distribution truncated to [lo, hi].
				out[i] = int64(paretoLo / math.Pow(1-r.Float64()*(1-ratio), 1/paretoAlpha))
			}
			return out
		},
	},
}

func findWorkload(name string) (*workloadSpec, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// capacity is the compute the fleet can deliver, in cores: each slot runs
// at its throttle fraction, and the host cannot deliver more than nproc.
func (w *workloadSpec) capacity(nproc int) float64 {
	var c float64
	for _, p := range w.fleet {
		t := p.throttle
		if t == 0 {
			t = 1
		}
		c += float64(p.slots) * t
	}
	return math.Min(c, float64(nproc))
}

// inputs is everything the stack will be offered for one (workload, seed)
// besides the program source: per consumer, the spin parameters with the
// native reference result of each. The stack only ever sees these.
type inputs struct {
	hasParam bool
	iters    [consumers][]int64 // parameter stream; a single element when fixed
	want     [consumers][]int64 // stdtasks.RefSpin(iters[i]), or 0 for noop
	sha256   string
}

func makeInputs(w *workloadSpec, seed uint64) (*inputs, error) {
	in := &inputs{hasParam: w.program == "spin"}
	h := sha256.New()
	h.Write([]byte(w.name))
	h.Write([]byte(stdtasks.Sources[w.program]))
	// Zipf streams repeat few distinct values, so reference results are
	// memoized per value instead of recomputed per element.
	ref := map[int64]int64{}
	for c := 0; c < consumers; c++ {
		switch {
		case w.draw != nil:
			in.iters[c] = w.draw(seed, c)
		case in.hasParam:
			in.iters[c] = []int64{w.fixed}
		default:
			in.iters[c] = []int64{0}
		}
		in.want[c] = make([]int64, len(in.iters[c]))
		for i, n := range in.iters[c] {
			if in.hasParam {
				v, ok := ref[n]
				if !ok {
					v = stdtasks.RefSpin(n)
					ref[n] = v
				}
				in.want[c][i] = v
			}
		}
		if err := binary.Write(h, binary.LittleEndian, in.iters[c]); err != nil {
			return nil, err
		}
	}
	in.sha256 = hex.EncodeToString(h.Sum(nil))
	return in, nil
}
