GO ?= go

.PHONY: all build vet test race check bench bench-vm bench-smoke bench-pairs profile fuzz fuzz-smoke flaky clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# check is the CI gate: every file must be gofmt-clean, everything must
# build, vet clean, and pass the full test suite (including the fuzz seed
# corpus, which plain `go test` replays) under the race detector.
check:
	test -z "$$(gofmt -l .)"
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test -race ./...
	# Batching smoke under race: a job through the batched control plane
	# must come back right.
	$(GO) test -race -run 'TestDifferentialBatching' -count 1 ./internal/broker/
	# Partitioned-core smoke under race: a job must come back
	# result-identical at 1 and 4 partitions (a stripe count only tests can
	# fix), with the same memo hit and coalescing counts; a placement pass
	# must drain partition 0's queue before partition 1's, FIFO within each;
	# and the cross-stripe stress (interleaved submit/result/deadline/cancel
	# plus a provider loss) must finalize every tasklet exactly once and leak
	# no attempts and no deadline timers. The core's own tests (credits,
	# loss order, cancel, timers) run beside them.
	$(GO) test -race -run 'TestDifferentialPartitions|TestDrainOrder|TestPartitionStress' -count 1 ./internal/broker/
	$(GO) test -race -count 1 ./internal/dispatch/
	# Program identity under race, never from the test cache: two programs
	# whose bytecode shares an FNV-1a hash get their own results end to end
	# (memo on and off) and their own broker IDs and memo keys, the same
	# program keeps one ID, and a provider runs each frame's own program
	# whatever ID it carries.
	$(GO) test -race -count 1 -run 'TestCollidingProgramsGetTheirOwnResults|TestBrokerNamesEachProgramOnce|TestConcurrentSubmitsNameProgramOnce|TestProgramMemoBounded|TestKnownProgramWrongArityRefused' ./internal/broker/
	$(GO) test -race -count 1 -run 'TestProviderRunsEachFramesOwnProgram|TestProviderCachesProgram|TestProviderRejectsUnknownProgram|TestBatchResolvesFromItsOwnTable|TestProviderCacheEvictionRoundTrip' ./internal/provider/
	# One frame shape per operation (protocol version 3), under race and never
	# from the test cache: a singleton job crosses the stack as one-entry
	# batch frames, a peer of another version is refused at hello, and the
	# writer wraps every run of results or pushes, a run of one included.
	$(GO) test -race -count 1 -run 'TestSingletonJobTravelsAsOneEntryBatches|TestBrokerRejectsWrongVersion' ./internal/broker/
	$(GO) test -race -count 1 -run 'TestFoldBatchFrames' ./internal/wire/
	# The result memo under race, never from the test cache: every partition
	# engine shares one Cache, so concurrent gets, puts, strength upgrades and
	# TTL expiry must leave its map, eviction order, hand and byte count
	# consistent.
	$(GO) test -race -count 1 ./internal/memo/
	# The benchmark is a nested module (benchmark/go.mod), invisible to the
	# ./... patterns above: vet it and run its unit tests and its 300 ms
	# smoke run of all five workloads against this checkout.
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# bench runs the headline benchmarks with allocation reporting: interpreter
# hot paths, the broker data-plane throughput benchmark, and the wire send
# path. Compare runs across commits with benchstat
# (golang.org/x/perf/cmd/benchstat); the experiment-level numbers in
# EXPERIMENTS.md regenerate via `go run ./cmd/tasklet-bench -exp <id>`.
# Performance claims are made with benchmark/ (see BENCHMARK.json), not here.
bench:
	$(GO) test -run XXX -bench 'BenchmarkVM_|BenchmarkE1_SpinVM|BenchmarkAblation_Optimize|BenchmarkAblation_Memo|BenchmarkBrokerThroughput' -benchmem .
	$(GO) test -run XXX -bench 'BenchmarkConnSend|BenchmarkBatch' -benchmem ./internal/wire/
	$(GO) test -run XXX -bench BenchmarkSchedulerPick -benchmem ./internal/scheduler/
	$(GO) test -run XXX -bench BenchmarkBrokerPlacement -benchmem ./internal/dispatch/
	$(GO) test -run XXX -bench BenchmarkLifecycleEngine -benchmem ./internal/lifecycle/

# bench-vm is the interpreter's before/after measurement: every VM benchmark,
# ten times each with allocation reporting, in the format benchstat reads,
# and E1's native spin loop from its own VM-free package. Run it on both
# commits (`make bench-vm > old.txt`, ... `> new.txt`) and compare with
# `benchstat old.txt new.txt`.
VMBENCH = BenchmarkVM_|BenchmarkE1_Spin
bench-vm:
	$(GO) test -run XXX -bench '$(VMBENCH)' -benchmem -count 10 . ./internal/stdtasks/native/

# profile captures CPU, mutex and block profiles from the saturating
# broker-throughput benchmark — the partitioned core's hot path, at the
# stripe count GOMAXPROCS sets. Inspect with `go tool pprof
# $(PROFILEDIR)/cpu.out` (or mutex.out / block.out) plus the test binary
# left beside them; mutex samples on the core's placement lock and its
# stripes are the first thing to look at when the hot path regresses.
PROFILEDIR ?= profiles
profile:
	mkdir -p $(PROFILEDIR)
	$(GO) test -run XXX -bench 'BenchmarkBrokerThroughput$$' -benchmem \
		-cpuprofile $(PROFILEDIR)/cpu.out \
		-mutexprofile $(PROFILEDIR)/mutex.out \
		-blockprofile $(PROFILEDIR)/block.out \
		-o $(PROFILEDIR)/bench.test .

# bench-pairs compares git revision BASE with the working tree on the live
# benchmark (BENCHMARK.json): it builds both with benchmark/run.sh, runs
# PAIRS alternating pairs per workload on SEEDS, and prints each side's
# median [quartiles], the ratio, wins/losses and a verdict per workload and
# end-to-end metric (TRACE=1: per-layer metrics of traced runs). A claimed
# gain needs ≥ 9/10 wins and a median gap past the base's quartile spread.
BASE ?= HEAD
PAIRS ?= 10
SEEDS ?= 1
WORKLOADS ?= all
TRACE ?= 0
bench-pairs:
	$(GO) run ./cmd/bench-pairs -base '$(BASE)' -pairs $(PAIRS) -seeds '$(SEEDS)' -workloads '$(WORKLOADS)' -trace $(TRACE)

# bench-smoke compiles and runs every throughput/ablation benchmark and every
# VM benchmark exactly once (-benchtime=1x) — the CI gate that keeps the bench
# harness building and executing without paying for statistically meaningful
# timings.
bench-smoke:
	$(GO) test -run XXX -bench 'BenchmarkBrokerThroughput|BenchmarkAblation_|BenchmarkWire_' -benchtime 1x .
	$(GO) test -run XXX -bench '$(VMBENCH)' -benchtime 1x . ./internal/stdtasks/native/
	$(GO) test -run XXX -bench . -benchtime 1x ./internal/wire/
	$(GO) test -run XXX -bench BenchmarkSchedulerPick -benchtime 1x ./internal/scheduler/
	$(GO) test -run XXX -bench 'BenchmarkBrokerPlacement/P=(100|1000)$$' -benchtime 1x ./internal/dispatch/
	$(GO) test -run XXX -bench BenchmarkLifecycleEngine -benchtime 1x ./internal/lifecycle/

# fuzz gives the program decoder + differential interpreter fuzzer a short
# budget; lengthen FUZZTIME for deeper runs.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz FuzzProgramUnmarshal -fuzztime $(FUZZTIME) ./internal/tvm/

# fuzz-smoke gives every fuzzer in the repo a short budget — the CI-sized
# sweep that catches regressions in the decoders and the compiler without
# the cost of a real fuzzing campaign.
SMOKETIME ?= 10s
fuzz-smoke:
	$(GO) test -run XXX -fuzz FuzzProgramUnmarshal -fuzztime $(SMOKETIME) ./internal/tvm/
	$(GO) test -run XXX -fuzz FuzzDecodeValue -fuzztime $(SMOKETIME) ./internal/tvm/
	$(GO) test -run XXX -fuzz FuzzCompile -fuzztime $(SMOKETIME) ./internal/tasklang/
	$(GO) test -run XXX -fuzz FuzzUnmarshal -fuzztime $(SMOKETIME) ./internal/wire/
	$(GO) test -run XXX -fuzz FuzzLifecycle -fuzztime $(SMOKETIME) ./internal/lifecycle/
	$(GO) test -run XXX -fuzz FuzzCache -fuzztime $(SMOKETIME) ./internal/memo/

# flaky reruns, 20 times each, the tests that used to fail a few times in
# twenty (the stress test's provider loss fired on a timer and could find
# the provider idle; E7's points were batches of unequal length, so sibling
# load on a small host skewed them by size), the timing-bound tests of the
# provider's queued attempts and the broker's work-budgeted queue depth
# (including the loss of a provider holding a full queue), and the concurrent
# and refused submission tests (client-numbered job IDs must match the
# broker's under any interleaving): every run must pass.
flaky:
	$(GO) test -count 20 -run 'TestPartitionStress' ./internal/broker/
	$(GO) test -count 20 -run TestE7ThroughputShape ./internal/experiments/
	$(GO) test -count 20 -run 'TestProviderRejectsOverCommit|TestProviderHeartbeats|TestProviderCancelsQueuedAttemptWithoutRunning' ./internal/provider/
	$(GO) test -count 20 -run 'TestBrokerQueuesBehindTinyAttempts|TestBrokerStopsQueueingAfterLongAttempts|TestBrokerNeverQueuesWithoutQueue|TestBrokerQueueDepthFollowsExecTime|TestBrokerShrinksQueueOnLongResult|TestProviderLossWithDeepQueue' ./internal/broker/
	$(GO) test -race -count 20 -run 'TestConcurrentSubmitsOnOneClient|TestKnownProgramWrongArityRefused' ./internal/broker/

clean:
	$(GO) clean ./...
