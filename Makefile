# gpuddt — build/test/benchmark entry points (stdlib-only Go, no deps)

GO ?= go

.PHONY: all test race check fmt-check trace-check chaos-check scale-check megascale-check vcoll-check app-check tune-check fuzz golden bench bench-smoke figures examples tools clean

all: test

test:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Full CI gate: gofmt, the tracing and chaos gates, build, vet,
# race-enabled tests (includes the differential oracle, channel
# round-trips, golden traces, cmd smoke tests and example builds), then
# a short fuzz smoke on both targets.
check: fmt-check trace-check chaos-check
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test ./internal/conformance -run '^$$' -fuzz FuzzPackUnpack -fuzztime 10s
	$(GO) test ./internal/conformance -run '^$$' -fuzz FuzzDEVSplit -fuzztime 10s

# Formatting gate: fails when gofmt would rewrite any Go file.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# Tracing gate: the span recorder under -race, conformance round-trips
# with tracing asserted (short matrix), and the golden-identical /
# Chrome-schema checks.
trace-check:
	$(GO) test -race ./internal/sim -run TestRecorder
	$(GO) test -short ./internal/conformance -run TestChannelRoundTrips
	$(GO) test ./internal/bench -run 'TestGoldenFiguresTraced|TestPingPongChromeTrace'
	$(GO) test ./internal/trace

# Chaos gate: the fault subsystem's pinned-seed conformance sweep (pack
# ∘ unpack identity, no leaks, bounded retries across every channel),
# the persistent-P2P downgrade proof, race-enabled PML recovery tests,
# and the golden-figure gate re-asserting that a nil fault plan leaves
# the virtual-time figures byte-identical.
chaos-check:
	$(GO) test ./internal/conformance -run 'TestChaos'
	$(GO) test -race ./internal/mpi -run 'TestChaos'
	$(GO) test ./internal/core -run 'TestPackerSeek'
	$(GO) test ./internal/bench -run TestGoldenFigures
	$(GO) test ./internal/conformance -run '^$$' -fuzz FuzzChaosPackUnpack -fuzztime 10s

# Scale-out gate: fat-tree topology tests, hierarchical-collective
# flat-identity and chaos sweeps, the pinned >= 2x alltoall speedup at
# 128 ranks, then the CI smoke sweep run twice — the two JSON reports
# must be byte-identical (the sweep is a pure function of its inputs).
scale-check:
	$(GO) test ./internal/ib -run 'TestFatTree|TestFlatFabric'
	$(GO) test ./internal/cluster
	$(GO) test ./internal/mpi -run 'TestHier'
	$(GO) test ./internal/bench -run 'TestScale'
	$(GO) test ./cmd/scalebench
	$(GO) run ./cmd/scalebench -quick -out /tmp/scale-a.json
	$(GO) run ./cmd/scalebench -quick -out /tmp/scale-b.json
	cmp /tmp/scale-a.json /tmp/scale-b.json

# Mega-scale gate: the sharded-engine determinism suite under -race
# (serial-vs-sharded byte identity, lookahead violation, chaos world),
# the modelled-payload digest equivalence against the real protocol
# stack at 64 ranks, the 50x flyweight memory reduction at 256 ranks,
# the quick modelled sweep with its serial-identity gate, the
# 16384-rank alltoall smoke, and the scalebench smoke run.
megascale-check:
	$(GO) test -race ./internal/sim -run TestSharded
	$(GO) test -race ./internal/model
	$(GO) test ./internal/mem -run 'TestSynthetic|TestSpaceRetired|TestPoolStats'
	$(GO) test ./internal/mpi -run TestPayload
	$(GO) test ./internal/bench -run 'TestMega|TestModelReal|TestFlyweight'
	GPUDDT_MEGA=1 $(GO) test ./internal/bench -run TestMegaSmoke16k -v
	$(GO) run ./cmd/scalebench -quick -out /tmp/megascale.json

# Irregular/nonblocking collective gate: the v-variant conformance
# oracle (irregular counts vs the reference walker across CPU/GPU ×
# hier/flat × eager/rendezvous), the race-enabled v-variant +
# nonblocking-request tests (concurrent I*, Waitall, chaos recovery,
# quiescent staging), the pinned >= 30% overlap fraction with its
# golden figure and Chrome trace, and a fuzz smoke on the count-matrix
# target.
vcoll-check:
	$(GO) test ./internal/conformance -run 'TestVColl'
	$(GO) test -race ./internal/mpi -run 'TestVColl|TestAlltoallv|TestAllgatherv|TestGathervScatterv|TestIcoll'
	$(GO) test ./internal/trace -run TestComputeOverlap
	$(GO) test ./internal/bench -run 'TestOverlapFractionPinned|TestOverlapGoldenTrace|TestGoldenFigures$$'
	$(GO) test ./internal/conformance -run '^$$' -fuzz FuzzAlltoallvCounts -fuzztime 10s

# Application-workload gate: the group-collective oracle (ring/tree vs
# the native allreduce, group-scoped alltoallv/barrier), the typed
# co-scheduling validation table, the grouped Chrome-export schema, the
# race-enabled workload suite (family verification, subarray halo
# spans, the interference smoke and its byte-identical determinism
# re-run), the MoE count-matrix fuzz smoke, and the quick appbench
# sweep run twice — the two JSON reports must be byte-identical.
app-check:
	$(GO) test ./internal/mpi -run 'TestGroup|TestNewGroup'
	$(GO) test ./internal/cluster -run 'TestValidate|TestCoSchedule'
	$(GO) test ./internal/trace -run TestWriteChromeGrouped
	$(GO) test ./internal/mpiio -run TestGroupScopedBarrier
	$(GO) test ./internal/shapes -run TestHaloFace
	$(GO) test -race ./internal/workload
	$(GO) test ./internal/bench -run 'TestAppGrid|TestQuickAppSweep'
	$(GO) test ./cmd/appbench
	$(GO) test ./internal/conformance -run '^$$' -fuzz FuzzMoECounts -fuzztime 10s
	$(GO) run ./cmd/appbench -quick -out /tmp/apps-a.json
	$(GO) run ./cmd/appbench -quick -out /tmp/apps-b.json
	cmp /tmp/apps-a.json /tmp/apps-b.json

# Auto-tuning gate: the Tuning API resolution tests (pointer-or-
# sentinel eager semantics, resolved defaults), the
# in-network reduction oracle (switch vs flat bit-identity under
# -race), the tuner determinism + table round-trip + version/corruption
# rejection suite, the pinned >= 1.2x tuned-vs-default speedup on an
# oversubscribed fat-tree point, the in-network curve digest gate, and
# a tunebench smoke run twice — the two JSON reports must be
# byte-identical (the search is an exhaustive grid over virtual time).
tune-check:
	$(GO) test ./internal/mpi -run 'TestTuning|TestEagerZeroSentinel|TestCollModeRoundTrip'
	$(GO) test -race ./internal/mpi -run 'TestSwitch'
	$(GO) test ./internal/tune
	$(GO) test ./internal/bench -run 'TestScale|TestQuickAppSweep'
	$(GO) run ./cmd/tunebench -quick -out /tmp/tune-a.json
	$(GO) run ./cmd/tunebench -quick -out /tmp/tune-b.json
	cmp /tmp/tune-a.json /tmp/tune-b.json

# Longer fuzzing session against the differential oracle.
fuzz:
	$(GO) test ./internal/conformance -run '^$$' -fuzz FuzzPackUnpack -fuzztime 2m
	$(GO) test ./internal/conformance -run '^$$' -fuzz FuzzDEVSplit -fuzztime 2m
	$(GO) test ./internal/conformance -run '^$$' -fuzz FuzzChaosPackUnpack -fuzztime 2m

# Re-record golden traces after an explained behavioural change.
golden:
	$(GO) test ./internal/bench -run TestGoldenFigures -update
	$(GO) test ./internal/conformance -run TestGoldenTrees -update

# Host-performance benchmarks: Go microbenchmarks plus the
# machine-readable report (seek/cache-hit ns/op, serial-vs-parallel
# sweep wall clock) consumed by CI.
bench:
	$(GO) test -bench=. -benchmem ./...
	$(GO) run ./cmd/benchhost -out BENCH_host.json

# Quick bench smoke for CI: compile and run every benchmark once.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x ./...

# Regenerate every paper figure (writes to stdout; ~3 minutes).
figures:
	$(GO) run ./cmd/ddtbench

# Run every example end to end (each verifies its own bytes).
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/stencil2d
	$(GO) run ./examples/particles
	$(GO) run ./examples/transpose
	$(GO) run ./examples/fftreshape
	$(GO) run ./examples/dtranspose
	$(GO) run ./examples/onesided

tools:
	$(GO) build -o bin/ddtbench ./cmd/ddtbench
	$(GO) build -o bin/pingpong ./cmd/pingpong
	$(GO) build -o bin/kernels ./cmd/kernels
	$(GO) build -o bin/topo ./cmd/topo

clean:
	rm -rf bin
