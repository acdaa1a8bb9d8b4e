GO ?= go

.PHONY: all build test race vet fmt check soak fuzz bench bench-json trace-overhead telemetry-overhead bench-gate bench-history loc

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the whole suite under the race detector, once: the
# interner/generation/cache synchronization, the lock-free mirror
# automaton, the stream pipeline, the fault-containment chaos and leak
# tests, the differential harness and the serving daemon all run here.
race:
	$(GO) test -race -count=1 ./...

vet:
	$(GO) vet ./...

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

# fuzz is the opt-in fuzzing run, excluded from check like soak: each of
# the four xmlhedge fuzz targets — the splitter against encoding/xml, the
# prefiltered reader against the unfiltered one, the reader under resource
# limits, and skip-policy recovery — runs for 60 seconds. A failing input
# is written under internal/xmlhedge/testdata/fuzz; commit it as a
# regression seed once fixed.
fuzz:
	@for t in FuzzSplitVsParse FuzzPrefilterDifferential FuzzRecordReader FuzzRecordReaderSkip; do \
		echo "fuzz: $$t"; \
		$(GO) test -run NONE -fuzz "^$$t\$$" -fuzztime 60s ./internal/xmlhedge/ || exit 1; \
	done

# check is the CI gate: formatting, static analysis (go vet ./...), the
# full test suite, one race-detector run over every package, a quick
# perf-regression run with the disabled-tracing budget enforced, the
# serving-telemetry budget, and the streaming throughput gates against the
# committed baseline and the multi-seed trajectory (the recorded baseline
# in BENCH_core.json and the BENCH_history.ndjson entries come from the
# non-quick runs).
check: fmt vet build test race trace-overhead telemetry-overhead bench-gate

bench:
	$(GO) test -bench . -benchmem -run NONE ./...

# bench-json regenerates the perf-regression report. Quick mode (default
# here) keeps CI fast; run `go run ./cmd/xpebench -bench-json -out
# BENCH_core.json` for the recorded baseline.
bench-json:
	$(GO) run ./cmd/xpebench -bench-json -quick -out BENCH_core.json

# trace-overhead is bench-json plus the tracing budget: the per-record
# tracing hooks must cost at most 1% while disabled (no flight recorder,
# no slow-record callback attached). It measures only — the committed
# BENCH_core.json baseline is left alone so bench-gate compares against
# the recorded numbers, not this run's.
trace-overhead:
	$(GO) run ./cmd/xpebench -bench-json -quick -assert-trace-overhead 1 -out /dev/null

# telemetry-overhead enforces the serving-telemetry budget: identical
# feed posts through two serve.Servers (default telemetry vs
# DisableTelemetry) in interleaved pairs must show at most 1% median
# overhead — and the failure must be distributionally consistent (the
# 25th-percentile pair also slower), so scheduler noise cannot flap the
# gate.
telemetry-overhead:
	$(GO) run ./cmd/xpebench -assert-telemetry-overhead 1 -quick

# bench-gate is the streaming perf-regression gate, two judgements in
# one run set: every stream-* workload recorded in BENCH_core.json is
# re-measured (best of five fresh runs each, same sizes and worker
# counts) and fails when any drops more than 10% nodes/sec below the
# recorded baseline; then the trajectory workloads are re-measured at
# every recorded seed and judged against the pooled BENCH_history.ndjson
# entries under the effect-size rule (mean drop past 10%, below every
# recorded run, all seeds agreeing).
bench-gate:
	$(GO) run ./cmd/xpebench -assert-baseline BENCH_core.json
	$(GO) run ./cmd/xpebench -assert-history BENCH_history.ndjson

# bench-history appends a dated multi-seed trajectory entry to
# BENCH_history.ndjson (run after a deliberate perf change, then commit
# the file alongside the change).
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
