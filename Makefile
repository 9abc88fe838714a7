GO ?= go

.PHONY: all build vet test race check bench bench-vm bench-smoke profile fuzz fuzz-smoke flaky clean

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
	# Multi-shard smoke: two peered brokers, skewed submission, asserts at
	# least one migration and every job completing (also part of the suite
	# above; kept explicit so sharding regressions fail loudly).
	$(GO) test -race -run 'TestShardGroupExchangeSmoke' -count 1 ./internal/broker/
	# Batching smoke under race: a job through the batched control plane
	# must come back right, live and sharded with the work exchange.
	$(GO) test -race -run 'TestDifferentialBatching' -count 1 ./internal/broker/
	# Partitioned-core smoke under race: a job must come back
	# result-identical at 1 and 4 partitions, with the same memo hit and
	# coalescing counts, and the cross-stripe stress (interleaved submit/result/deadline/cancel plus a provider loss)
	# must finalize every tasklet exactly once and leak no attempts and no
	# deadline timers.
	$(GO) test -race -run 'TestDifferentialPartitions|TestPartitionStress' -count 1 ./internal/broker/
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
	$(GO) test -run XXX -bench BenchmarkBrokerPlacement -benchmem ./internal/broker/
	$(GO) test -run XXX -bench BenchmarkLifecycleEngine -benchmem ./internal/lifecycle/
	$(GO) test -run XXX -bench 'BenchmarkRing|BenchmarkPlanPull' -benchmem ./internal/shard/

# bench-vm is the interpreter's before/after measurement: every VM benchmark,
# ten times each with allocation reporting, in the format benchstat reads.
# Run it on both commits (`make bench-vm > old.txt`, ... `> new.txt`) and
# compare with `benchstat old.txt new.txt`.
VMBENCH = BenchmarkVM_|BenchmarkE1_Spin
bench-vm:
	$(GO) test -run XXX -bench '$(VMBENCH)' -benchmem -count 10 .

# profile captures CPU, mutex and block profiles from the saturating
# broker-throughput benchmark — the partitioned core's hot path. Inspect
# with `go tool pprof $(PROFILEDIR)/cpu.out` (or mutex.out / block.out) plus
# the test binary left beside them; mutex samples on b.mu and the partition
# stripes are the first thing to look at when scaling regresses.
PROFILEDIR ?= profiles
profile:
	mkdir -p $(PROFILEDIR)
	$(GO) test -run XXX -bench 'BenchmarkBrokerThroughput$$' -benchmem \
		-cpuprofile $(PROFILEDIR)/cpu.out \
		-mutexprofile $(PROFILEDIR)/mutex.out \
		-blockprofile $(PROFILEDIR)/block.out \
		-o $(PROFILEDIR)/bench.test .

# bench-smoke compiles and runs every throughput/ablation benchmark and every
# VM benchmark exactly once (-benchtime=1x) — the CI gate that keeps the bench
# harness building and executing without paying for statistically meaningful
# timings.
bench-smoke:
	$(GO) test -run XXX -bench 'BenchmarkBrokerThroughput|BenchmarkAblation_' -benchtime 1x .
	$(GO) test -run XXX -bench '$(VMBENCH)' -benchtime 1x .
	$(GO) test -run XXX -bench . -benchtime 1x ./internal/wire/
	$(GO) test -run XXX -bench BenchmarkSchedulerPick -benchtime 1x ./internal/scheduler/
	$(GO) test -run XXX -bench 'BenchmarkBrokerPlacement/P=(100|1000)$$' -benchtime 1x ./internal/broker/
	$(GO) test -run XXX -bench BenchmarkLifecycleEngine -benchtime 1x ./internal/lifecycle/
	$(GO) test -run XXX -bench . -benchtime 1x ./internal/shard/

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

# flaky reruns, 20 times each, the tests that used to fail a few times in
# twenty (the stress test's provider loss fired on a timer and could find
# the provider idle; E7's points were batches of unequal length, so sibling
# load on a small host skewed them by size) and the timing-bound tests of the
# provider's queued attempts and the broker's queue gate: every run must pass.
flaky:
	$(GO) test -count 20 -run 'TestPartitionStress' ./internal/broker/
	$(GO) test -count 20 -run TestE7ThroughputShape ./internal/experiments/
	$(GO) test -count 20 -run 'TestProviderRejectsOverCommit|TestProviderHeartbeats|TestProviderCancelsQueuedAttemptWithoutRunning' ./internal/provider/
	$(GO) test -count 20 -run 'TestBrokerQueuesBehindTinyAttempts|TestBrokerStopsQueueingAfterLongAttempts|TestBrokerNeverQueuesOnLegacyProvider' ./internal/broker/

clean:
	$(GO) clean ./...
