# Development targets. `make ci` is the gate every change must pass: vet
# (which also fails if `gofmt -l .` names a file), build, the cross build
# (arm64 vet, 386 build), race-enabled tests, the tables byte-identity gate,
# the chaos conformance suites and a short fuzz pass. Outside the gate:
# `make bench-e2e` runs the repository's one declared benchmark (bench/,
# BENCHMARK.json: seven workloads over the four substrates), `make
# bench-compare A=… B=…` gives the verdict on two of its result sets, and
# `make loc` prints the non-test line count per package that CHANGES.md's
# size tables quote.

GO ?= go

.PHONY: ci vet staticcheck build cross test race tables-check bench-e2e bench-compare loc fuzz fuzz-short chaos chaos-net chaos-udp chaos-dtn soak tables

ci: vet staticcheck build cross test race tables-check chaos chaos-net chaos-udp chaos-dtn fuzz-short

vet:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt -l . names unformatted files:"; echo "$$unformatted"; exit 1; \
	fi

# Static analysis beyond vet. Runs when the staticcheck binary is on PATH;
# environments without it (e.g. hermetic containers) skip with a notice
# instead of failing, so `make ci` stays runnable everywhere.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck: not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

build:
	$(GO) build ./...

# The other word size and the other architecture: the sim kernel's
# prefetch is amd64 assembly with a no-op fallback, and the engine's ids
# are int32 beside a 32-bit int on 386.
cross:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The repository's one end-to-end benchmark (bench/README.md): every
# workload BENCHMARK.json declares, each in a fresh child process. Pass
# flags through ARGS, e.g. `make bench-e2e ARGS="-reps 10 -out bench/out/A.json"`.
bench-e2e:
	$(GO) run ./bench $(ARGS)

# Verdict on two result sets written by `bench-e2e ARGS="-reps N -out …"`,
# against the bounds in BENCHMARK.json.
bench-compare:
	$(GO) run ./bench -compare $(A) $(B)

# Non-test Go lines per package, everything outside bench/ (the frozen
# benchmark is not part of the program's size), with a total.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2

# Fuzz pass over the kernel oracles (the wheel against a sorted slice and
# against the sharded queue: every table's byte identity rests on the pop
# order) and the scheduler, decoder and store invariants.
# FuzzStoreModel compares two whole stores after every op of an input, so
# the default minute of minimising each new-coverage input would eat the
# budget; it gets an exec-count bound instead.
fuzz:
	$(GO) test -run xxx -fuzz FuzzKernelHeapOracle -fuzztime 30s ./internal/sim
	$(GO) test -run xxx -fuzz FuzzShardedKernelOracle -fuzztime 30s ./internal/sim
	$(GO) test -run xxx -fuzz FuzzChanTable -fuzztime 30s ./internal/engine
	$(GO) test -run xxx -fuzz FuzzDecodeFrame -fuzztime 30s ./internal/wire
	$(GO) test -run xxx -fuzz FuzzPayloadDecoders -fuzztime 30s ./internal/wire
	$(GO) test -run xxx -fuzz FuzzReadJSONL -fuzztime 30s ./internal/obs
	$(GO) test -run xxx -fuzz FuzzPacketHeader -fuzztime 30s ./internal/dgram
	$(GO) test -run xxx -fuzz FuzzConnectToken -fuzztime 30s ./internal/dgram
	$(GO) test -run xxx -fuzz FuzzSummaryVector -fuzztime 30s ./internal/dtn
	$(GO) test -run xxx -fuzz FuzzStoreModel -fuzztime 30s -fuzzminimizetime 500x ./internal/dtn

# The same fuzz targets with a budget small enough for the ci gate: the
# kernel's pop order decides every seeded table, the wire decoders and the
# datagram packet/token parsers read bytes straight off sockets, and the
# JSONL trace reader takes whatever file it is given, so even a few seconds
# of coverage-guided input on every change is worth the wall clock.
fuzz-short:
	$(GO) test -run xxx -fuzz FuzzKernelHeapOracle -fuzztime 5s ./internal/sim
	$(GO) test -run xxx -fuzz FuzzShardedKernelOracle -fuzztime 5s ./internal/sim
	$(GO) test -run xxx -fuzz FuzzChanTable -fuzztime 5s ./internal/engine
	$(GO) test -run xxx -fuzz FuzzDecodeFrame -fuzztime 5s ./internal/wire
	$(GO) test -run xxx -fuzz FuzzPayloadDecoders -fuzztime 5s ./internal/wire
	$(GO) test -run xxx -fuzz FuzzReadJSONL -fuzztime 5s ./internal/obs
	$(GO) test -run xxx -fuzz FuzzPacketHeader -fuzztime 5s ./internal/dgram
	$(GO) test -run xxx -fuzz FuzzConnectToken -fuzztime 5s ./internal/dgram
	$(GO) test -run xxx -fuzz FuzzSummaryVector -fuzztime 5s ./internal/dtn
	$(GO) test -run xxx -fuzz FuzzStoreModel -fuzztime 5s -fuzzminimizetime 500x ./internal/dtn

# Chaos conformance: the substrate-parity invariants re-run under seeded
# fault plans (wireless loss, link flaps, MSS crash/restart) on the
# simulator, the live runtime, and the TCP network runtime, race detector
# on. See DESIGN.md §8 and §10.
chaos:
	$(GO) test -race -run 'TestChaos' -count 1 ./internal/conformance/
	$(GO) test -race -run 'Test' -count 1 ./internal/faults/
	$(GO) test -race -run 'Test' -count 1 ./internal/netrt/ ./internal/wire/

# Crash-recovery conformance: real relay-node kills and generation-fenced
# restarts under the seeded socket nemesis (latency, stalls, resets), plus
# the nemesis package's own determinism suite — race detector on. See
# DESIGN.md §11.
chaos-net:
	$(GO) test -race -run 'TestCrash' -count 1 -timeout 300s ./internal/conformance/
	$(GO) test -race -count 1 ./internal/nemesis/

# Datagram-substrate conformance: the UDP transport (authenticated dgram
# sessions) driven through the seeded datagram nemesis — drops, duplicates,
# reorders, jitter on every link — plus the dgram package's own protocol
# suite, race detector on. See DESIGN.md §12.
chaos-udp:
	$(GO) test -race -run 'TestUDP' -count 1 -timeout 300s ./internal/conformance/ ./internal/nemesis/
	$(GO) test -race -count 1 ./internal/dgram/

# Store-carry-forward conformance: the custody subsystem's chaos and
# cross-substrate tests — delivery ratio strictly above the park-at-MSS
# baseline under custodian-crash plans, exactly-once + FIFO drain under
# wireless loss on all four substrates, token recovery still regenerating
# exactly once with DTN attached — plus the dtn package's own suite, race
# detector on. See DESIGN.md §13.
chaos-dtn:
	$(GO) test -race -run 'TestChaosDTN|TestConformanceDTN' -count 1 ./internal/conformance/
	$(GO) test -race -count 1 ./internal/dtn/

# Extended loopback soak: churn + CS traffic + fault injection + one relay
# crash/restart cycle over real sockets for 15s under the race detector
# (the same test runs for ~2s in the regular suite; see DESIGN.md §10). Not
# part of `make ci` so CI stays bounded. TRANSPORT=udp soaks the datagram
# sessions instead of TCP streams.
TRANSPORT ?= tcp
soak:
	$(GO) test -race -run 'TestLoopbackSoak' -count 1 ./internal/netrt/ -soak 15s -transport $(TRANSPORT)

# Regenerate the experiment tables (parallel driver, deterministic output).
tables:
	$(GO) run ./cmd/mobilexp -markdown

# The byte-identity gate: `mobilexp -markdown` must equal the checked-in
# cmd/mobilexp/testdata/tables.golden.md. A change that intentionally alters
# protocol behaviour rewrites it with
# `go test ./cmd/mobilexp -run TestTablesGolden -update`.
tables-check:
	$(GO) test -run TestTablesGolden -count 1 ./cmd/mobilexp/
