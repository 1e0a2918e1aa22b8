GO ?= go

.PHONY: build test race vet bench bench-check fuzz chaos chaos-resume check loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The engine, accumulators, cluster runtime and metrics registry are
# concurrent; -race on the full tree is slow, so the gate covers the
# concurrent packages plus the root package (streaming e2e identity),
# the PHMM and calling-sweep kernels (vector-vs-scalar bit-exactness
# property tests, each under the AVX2 and the portable kernel), the LRT
# and the FASTQ parser (fuzz seed corpus). The slowest package, the root
# one, took 217 s under -race on a 2-vCPU VM (Go 1.24); -timeout 15m
# leaves four times that before a package is killed, where go test's
# default 10m left under three.
race:
	$(GO) test -race -timeout 15m . ./internal/core/... ./internal/phmm/... ./internal/cluster/... ./internal/genome/... ./internal/snp/... ./internal/lrt/... ./internal/obs/... ./internal/fastq/... ./internal/ckpt/... ./internal/binfmt/... ./internal/kmer/...

vet:
	$(GO) vet ./...

# Kernel + engine micro-benchmarks with allocation accounting (the
# banded speedup and the 0 allocs/op gates live here), the calling
# sweep's worker ladder, and the accumulator's writer ladder (striped-w1
# minus unlocked-w1 is what the stripe locks cost per range).
# Performance numbers and claims come from the repo benchmark (bench/,
# BENCHMARK.json), not from these.
bench:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/phmm/
	$(GO) test -bench 'BenchmarkMapRead' -benchmem -benchtime 2000x -run '^$$' ./internal/core/
	$(GO) test -bench 'BenchmarkCollectRange' -run '^$$' ./internal/snp/
	$(GO) test -bench 'BenchmarkAccumulatorContention|BenchmarkMerge' -benchmem -run '^$$' ./internal/genome/

# Short coverage-guided fuzz passes over the byte-level inputs — the
# FASTA and FASTQ parsers, the on-disk seed-index decoder and the
# accumulator state codec — and the vector prescreen's lanes (every seed
# corpus always runs as part of plain `go test`).
fuzz:
	$(GO) test -fuzz FuzzRead -fuzztime 20s ./internal/fasta/
	$(GO) test -fuzz FuzzReaderNext -fuzztime 20s ./internal/fastq/
	$(GO) test -fuzz FuzzDecodeIndex -fuzztime 20s ./internal/kmer/
	$(GO) test -fuzz FuzzLoadStateBytes -fuzztime 20s ./internal/genome/
	$(GO) test -fuzz FuzzPrescreenVector -fuzztime 20s ./internal/snp/

# Fault-tolerance gate: seeded chaos collectives, crash/heartbeat
# detection, TCP hardening, and degraded-mode read-split (the streamed
# dealer's ledger; its tests carry Degraded or FTMatches in their
# names) — all deterministic (fixed seeds live in the tests) and
# race-checked.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Fault|Crash|Heartbeat|RecvPatient|Degraded|FTMatches|Dial|Frame|Hardening|Timeout' ./internal/cluster/ ./internal/core/

# Kill-and-recover gate: the real gnumap-snp binary (race-built),
# SIGKILLed at randomized points after checkpoint commits and relaunched
# with -resume until the VCF matches an uninterrupted run byte-for-byte,
# in single-process (plain and with -incremental-every on the same
# barrier) and np=4 read-split cluster modes; plus the SIGTERM
# graceful-stop path (drain, final checkpoint, exit code 3, resume).
chaos-resume:
	$(GO) test -count=1 -timeout 20m -run 'ChaosKillResume|GracefulStopResume' ./cmd/

# The repo's benchmark (bench/, see BENCHMARK.json) is its own module
# pinned to this tree's API by a replace directive, so `go build ./...`
# here never compiles it: vet it and run its short tests against the
# tree, or an API move can pass CI and break the benchmark.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

check: build vet test race bench-check

# The number ROADMAP tracks: non-test Go lines outside bench/. A report,
# not a gate.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs cat | wc -l
