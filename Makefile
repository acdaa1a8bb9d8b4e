GO ?= go

.PHONY: all build test race vet perfbench-vet fmt check soak fuzz bench bench-json trace-overhead telemetry-overhead bench-gate bench-history loc

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the whole suite under the race detector, once: the
# interner/generation/cache synchronization, the lock-free lazy DFAs (the
# mirror automaton and lazy determinization), the stream pipeline, the
# fault-containment chaos and leak tests, the differential harness and the
# serving daemon all run here.
race:
	$(GO) test -race -count=1 ./...

vet:
	$(GO) vet ./...

# perfbench-vet compiles and vets the served benchmark, which is its own
# module (perfbench/go.mod) and so outside ./...: offline, as
# perfbench/run.sh builds it. It calls the library's exported API, so an
# API change that breaks it fails here rather than in a benchmark run.
perfbench-vet:
	cd perfbench && GOPROXY=off GOTOOLCHAIN=local GOFLAGS= $(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt: the following files need formatting:"; \
		echo "$$out"; \
		exit 1; \
	fi

# soak is the opt-in endurance run, deliberately excluded from check:
# 30 seconds of mixed-tenant traffic — steady posters, slow-loris drips,
# mid-body hangups, and a poisoned feed cycling its breaker — against one
# persistent server under the race detector, failing on any undocumented
# status, deadlock, or leaked goroutine.
soak:
	$(GO) test -race -count=1 -run TestSoak ./internal/serve/ -soak 30s -v

# fuzz is the opt-in fuzzing run, excluded from check like soak: each
# fuzz target runs for 60 seconds. The five xmlhedge targets fuzz the
# splitter and Parse against encoding/xml, the prefiltered reader against
# the unfiltered one, the reader under resource limits, skip-policy
# recovery, and reads one byte at a time against whole reads. FuzzFleet evaluates random query sets as fleets under random
# allow-masks against the naive oracle. FuzzLazyDFA steps random words
# through sfa's lazy subset construction and the eager Determinize, under
# budgets that flush; FuzzLazyVsEagerDeterminize holds a random NHA's lazy
# determinization (ha.LazyDet) to its eager one and to the NHA itself.
# FuzzMatchLine holds serve's hand-written NDJSON match lines to
# encoding/json's. FuzzServeFeed posts each input to
# a served feed over HTTP and requires the NDJSON of the library's shared
# pass; it starts a server per input, so an input that reaches new code
# gets ten minimizing runs rather than a minute of them. Every other
# target minimizes a new input in at most 100 runs: unbounded, minimizing
# one input could take the rest of the minute at 0 execs/sec (FuzzLazyDFA
# executed 1,621 inputs in a minute so). A failing input is written under
# the package's testdata/fuzz; commit it as a regression seed once fixed.
fuzz:
	@for t in FuzzSplitVsParse FuzzPrefilterDifferential FuzzRecordReader FuzzRecordReaderSkip FuzzReaderChunking; do \
		echo "fuzz: $$t"; \
		$(GO) test -run NONE -fuzz "^$$t\$$" -fuzztime 60s -fuzzminimizetime 100x ./internal/xmlhedge/ || exit 1; \
	done
	@echo "fuzz: FuzzFleet"
	$(GO) test -run NONE -fuzz '^FuzzFleet$$' -fuzztime 60s -fuzzminimizetime 100x ./internal/core/
	@echo "fuzz: FuzzLazyDFA"
	$(GO) test -run NONE -fuzz '^FuzzLazyDFA$$' -fuzztime 60s -fuzzminimizetime 100x ./internal/sfa/
	@echo "fuzz: FuzzLazyVsEagerDeterminize"
	$(GO) test -run NONE -fuzz '^FuzzLazyVsEagerDeterminize$$' -fuzztime 60s -fuzzminimizetime 100x ./internal/ha/
	@echo "fuzz: FuzzMatchLine"
	$(GO) test -run NONE -fuzz '^FuzzMatchLine$$' -fuzztime 60s -fuzzminimizetime 100x ./internal/serve/
	@echo "fuzz: FuzzServeFeed"
	$(GO) test -run NONE -fuzz '^FuzzServeFeed$$' -fuzztime 60s -fuzzminimizetime 10x ./internal/serve/

# check is the CI gate: formatting, static analysis (go vet ./... and the
# benchmark module's perfbench-vet), the full test suite, one race-detector run over every package, the
# timing budgets (disabled tracing ≤1%; serving telemetry ≤1% on large
# records and ≤5% on the selective shape), and the one
# throughput gate, bench-gate. Exact properties (allocations, transitions
# per node, match sets) are pinned by the test suite itself.
check: fmt vet perfbench-vet build test race trace-overhead telemetry-overhead bench-gate

bench:
	$(GO) test -bench . -benchmem -run NONE ./...

# bench-json writes the quick report to BENCH_core.json. The committed
# report is the full run, `go run ./cmd/xpebench -bench-json -out
# BENCH_core.json`; it records ratios and costs for reading, and no gate
# reads it. Not part of check.
bench-json:
	$(GO) run ./cmd/xpebench -bench-json -quick -out BENCH_core.json

# trace-overhead runs the quick report to /dev/null and enforces the
# tracing budget: the per-record tracing hooks must cost at most 1% while
# disabled (no flight recorder, no slow-record callback attached). Its
# exact twin is TestRunAllocsFlatInRecords in internal/stream, which pins
# disabled tracing at zero allocations per record.
trace-overhead:
	$(GO) run ./cmd/xpebench -bench-json -quick -assert-trace-overhead 1 -out /dev/null

# telemetry-overhead enforces the serving-telemetry budgets: identical
# feed posts through two serve.Servers (default telemetry vs
# DisableTelemetry) in interleaved pairs must show at most 1% median
# overhead on 8 records of 1,500 nodes, and at most 5% (the BLIS
# equivalence band) on the selective shape, about a thousand small
# records of which the prefilter skips three in four. The budgets are
# constants in cmd/xpebench. A failure must be distributionally
# consistent (the 25th-percentile pair also slower), so scheduler noise
# cannot flap the gate.
telemetry-overhead:
	$(GO) run ./cmd/xpebench -assert-telemetry-overhead -quick

# bench-gate is the one throughput gate. Eleven workloads — stream-100k
# at 1, 4, 8 and 16 workers, degraded clean and 1%-poisoned, prefilter
# off and on, shared pass over 8 queries and 8 independent passes, and
# the in-memory select-100k control — are measured at seeds 42, 123 and
# 456, each figure the best of three 200 ms windows. Each workload is
# judged against its current epoch in BENCH_history.ndjson: the entries
# recorded on a host with the same GOMAXPROCS whose mean lies within 25%
# of the median mean of the newest three. A workload fails only when its
# mean drops more than 25%, below every run the epoch recorded, with every
# seed agreeing; the gate then measures the failing workloads again and
# fails only on those that fail a second time.
bench-gate:
	$(GO) run ./cmd/xpebench -assert-history BENCH_history.ndjson

# bench-history appends a dated multi-seed entry to BENCH_history.ndjson,
# with the host's GOMAXPROCS and effective core count. A perf PR records
# its epoch this way: three or more entries on its final tree, in
# separate sessions at least 20 minutes apart, committed with the change.
# A change that moves a workload's mean by more than 25% starts a new
# epoch once its entries are the majority of the newest three; older lines
# are never edited.
bench-history:
	$(GO) run ./cmd/xpebench -record-history BENCH_history.ndjson

# loc prints the non-test line count of every package in the module, one
# `<lines> <import path>` line each: only GoFiles are counted, so _test.go
# files stay out, and so does perfbench/ (its own module). PRs report the
# change per package they touch. Not part of check.
loc:
	@$(GO) list -f '{{.ImportPath}} {{.Dir}} {{join .GoFiles " "}}' ./... | \
	while read -r pkg dir files; do \
		echo "$$(cd "$$dir" && cat /dev/null $$files | wc -l) $$pkg"; \
	done
