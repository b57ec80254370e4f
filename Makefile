# Mirrors .github/workflows/ci.yml: `make ci` runs exactly what CI runs.

GO ?= go

.PHONY: all build xcompile test race stress bench bench-json bench-diff batch-smoke chaos chaos-smoke fuzz genstubs fmt vet analyze perfbench ci

all: build

build:
	$(GO) build ./...

# Cross-compile check for the non-Linux build of the batched-I/O layer:
# the sendmmsg/recvmmsg files are gated to linux/amd64+arm64, so a darwin
# build proves the portable fallback actually compiles without them.
xcompile:
	GOOS=darwin GOARCH=arm64 $(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Reuse races show only under some interleavings, so the tests of the
# recycled pieces run many times under the race detector: the client's
# reply slots (a late reply or a stale timer tick must never reach the
# next call on a slot) and the server's per-connection workers (never
# more than the worker bound, none left after the connection closes).
stress:
	$(GO) test -race -count=50 -run 'TestLateReplyDroppedAfterSlotReuse|TestStaleTickDoesNotTimeOutNextCall|TestUnregisterDrainsFiredTick' ./internal/client
	$(GO) test -race -count=50 -run 'TestConnWorkersBounded' ./internal/server

# Benchmark smoke run: one iteration of every benchmark, with allocation
# counts, matching the CI step. For real numbers drop -benchtime=1x.
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x -benchmem ./...

# Machine-readable live benchmark: the generic/specialized/chunked codec
# comparison over netsim, UDP, and TCP, the header-path series, the
# open-loop tail-latency grid (sharded call tracking vs the single-lock
# shards=1 baseline), and the batched-vs-unbatched syscalls/op series,
# written to BENCH_live.json so the perf trajectory is tracked from PR
# to PR. Each refresh is also archived under bench/history/ keyed by
# date and commit, so the trajectory is a series of snapshots instead of
# one overwritten file.
bench-json:
	$(GO) run ./cmd/sunbench -live-spec -header-path -openloop -batch -chaos \
		-calls 2000 -live-spec-reps 3 -clients 4 -depth 16 -rate 4000 -openloop-dur 1s -openloop-reps 5 \
		-chaos-calls 400 -chaos-loss 0.15 -seed 42 \
		-json BENCH_live.json
	mkdir -p bench/history
	cp BENCH_live.json bench/history/$$(date +%Y%m%d)-$$(git rev-parse --short HEAD).json

# Noise-aware perf gate: re-measure the quick live series (netsim +
# header path, socket-free so runner network jitter stays out) three
# times — each rep a complete pass over the grid, the open-loop
# harness's interleaving generalized to the diff, so host drift hits
# every series alike — then compare the per-series medians against the
# committed baseline under per-family thresholds. Specialization series
# are compared as ratios to the same-pass generic yardstick (benchdiff
# does this on both sides), which cancels the host-speed wander between
# the baseline run and now; the raw yardsticks get wide catastrophe
# thresholds of their own. The baseline's live-spec points are
# themselves medians (bench-json passes -live-spec-reps 3), so both
# sides of the comparison carry the same estimator and one lucky pass
# can't poison a point. A regression in any
# series now fails the build instead of scrolling past in a non-fatal
# report. Comparing against a baseline from different hardware needs
# wider thresholds: benchdiff -threshold fam=pct,... overrides.
bench-diff:
	for i in 1 2 3; do \
		$(GO) run ./cmd/sunbench -live-spec -transport sim -calls 2000 -header-path -json bench_head$$i.json >/dev/null || exit 1; \
	done
	$(GO) run ./cmd/benchdiff -gate BENCH_live.json bench_head1.json bench_head2.json bench_head3.json; \
		status=$$?; rm -f bench_head1.json bench_head2.json bench_head3.json; exit $$status

# Chaos suite: the seeded fault-injection tests (netsim link faults,
# faultconn over real sockets) under the race detector — at-most-once
# accounting, reply-cache duplicate suppression, reconnect across
# injected resets, partition/heal convergence, cancellation leak checks.
# Seeded schedules make failures replayable: a seed is part of the test,
# not the environment.
chaos:
	$(GO) test -race -run 'TestChaos' ./internal/integration ./internal/bench
	$(GO) test -race ./internal/faultconn ./internal/netsim

# Quick chaos goodput run over all three transports: proves the retry,
# reconnect, and reply-cache counters fire outside the test harness too.
chaos-smoke:
	$(GO) run ./cmd/sunbench -chaos -transport sim,udp,tcp -clients 2 -chaos-calls 200 -seed 42

# Quick counted run of the batch-mode harness over both kernel
# transports: exercises the writev/coalesce path, the ONC batched-call
# path, and (where the kernel offers it) sendmmsg/recvmmsg.
batch-smoke:
	$(GO) run ./cmd/sunbench -batch -transport udp,tcp -clients 2 -depth 8 -calls 2000

# Short native-fuzz smoke over the decode boundary (the record-marking
# reader and the RPC call-header decoder, fed raw bytes), the record
# reader's read-ahead differential (bytes split at arbitrary points ==
# the same bytes in one read), the header
# template differentials (template bytes == generic marshaler bytes),
# the call-body accept-set differential (fixed-offset parse == header
# walker), the whole-call fusion differentials (fused bytes ==
# template-copy + plan bytes), and the derivation differential
# (tempo-derived plan == hand-built plan, bytes and errors alike).
fuzz:
	$(GO) test -run=NONE -fuzz='FuzzRecRead$$' -fuzztime=10s ./internal/xdr
	$(GO) test -run=NONE -fuzz=FuzzRecReadChunked -fuzztime=10s ./internal/xdr
	$(GO) test -run=NONE -fuzz=FuzzDecodeCallHeader -fuzztime=10s ./internal/rpcmsg
	$(GO) test -run=NONE -fuzz=FuzzCallTemplate -fuzztime=10s ./internal/rpcmsg
	$(GO) test -run=NONE -fuzz='FuzzReplyTemplate$$' -fuzztime=10s ./internal/rpcmsg
	$(GO) test -run=NONE -fuzz=FuzzAcceptedSuccessBody -fuzztime=10s ./internal/rpcmsg
	$(GO) test -run=NONE -fuzz='FuzzCallBody$$' -fuzztime=10s ./internal/rpcmsg
	$(GO) test -run=NONE -fuzz=FuzzCallPlanFused -fuzztime=10s ./internal/wire
	$(GO) test -run=NONE -fuzz=FuzzReplyPlanFused -fuzztime=10s ./internal/wire
	$(GO) test -run=NONE -fuzz=FuzzDerivedPlan -fuzztime=10s ./internal/wire
	$(GO) test -run=NONE -fuzz=FuzzCompiledCodec -fuzztime=10s ./internal/compiledtest

# Build the rpcgen-generated stubs as part of the pipeline: generate
# from the richest testdata spec into a temp package — once plan-only,
# once with -compiled — and vet/build both, so codegen regressions fail
# the build instead of only the unit tests. The compiled pass also runs
# the three-engine differential test against the freshly emitted codecs
# (internal/compiledtest's test files, re-packaged), proving the emitted
# source is not merely compilable but byte-identical to the
# interpreters it replaces — and that the tempo-derived plans match the
# hand-built ones for every freshly generated derivable type.
genstubs:
	rm -rf ci_genstubs
	mkdir -p ci_genstubs
	$(GO) run ./cmd/rpcgen -pkg ci_genstubs -go ci_genstubs/stubs.go internal/rpcgen/testdata/rich.x
	$(GO) vet ./ci_genstubs
	$(GO) build ./ci_genstubs
	$(GO) run ./cmd/rpcgen -compiled -pkg ci_genstubs -go ci_genstubs/stubs.go internal/rpcgen/testdata/rich.x
	sed 's/^package compiledtest$$/package ci_genstubs/' internal/compiledtest/compiled_test.go > ci_genstubs/compiled_test.go
	sed 's/^package compiledtest$$/package ci_genstubs/' internal/compiledtest/derive_test.go > ci_genstubs/derive_test.go
	$(GO) vet ./ci_genstubs
	$(GO) test ./ci_genstubs
	rm -rf ci_genstubs

# Repo-invariant analyzers (cmd/specvet) over the whole tree via the
# go vet vettool protocol, so test files are covered too. Any finding
# fails; justified exceptions carry a //specvet:ok <analyzer> line.
analyze:
	$(GO) build -o .specvet.bin ./cmd/specvet
	$(GO) vet -vettool=$(CURDIR)/.specvet.bin ./...
	rm -f .specvet.bin

# The repository benchmark (perfbench/) is its own module, so the root
# build and tests never compile it; vet and test it here so an API change
# in wire, client or server cannot break the benchmark unnoticed.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

fmt:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

ci: fmt vet analyze build xcompile race stress perfbench bench genstubs bench-diff batch-smoke chaos chaos-smoke fuzz
