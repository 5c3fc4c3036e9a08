GO ?= go

.PHONY: build test race bench bench-smoke chaos fmt-check lint lint-json metrics-smoke federation-smoke soak-smoke slo-check store-conformance perfbench-check check clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# chaos replays the deterministic fault-injection suite (seeded
# partitions, burst loss, directory crashes, hedged forwarding) under the
# race detector. The seed matrix lives in the tests themselves.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Hedge|Evicted|Fault|Churn|Partition' \
		./internal/discovery/ ./internal/simnet/ -v

# fmt-check fails when gofmt would rewrite any Go file. The analyzers'
# testdata files are fixtures kept exactly as written, and .bench_build/
# holds perfbench's build caches.
fmt-check:
	@files=$$(gofmt -l . | grep -Ev '(^|/)testdata/|^\.bench_build/'); \
	if [ -n "$$files" ]; then echo "gofmt -l lists unformatted files:"; echo "$$files"; exit 1; fi

# lint checks formatting, then runs go vet plus the ten project analyzers
# (lockcheck, goroutinecheck, detrand, sleeptest, metricnames,
# simnetimport, atomicmix, immutcheck, hotalloc, errdrop). Exit status 1
# means findings; `make lint-json` emits the analyzer findings
# machine-readable.
lint: fmt-check
	$(GO) run ./cmd/sdplint ./...

lint-json:
	$(GO) run ./cmd/sdplint -json ./...

# bench-smoke runs the parallel discovery benchmark once under the race
# detector (a cheap gate that the lock-free snapshot read path stays
# publication-safe), then regenerates the Fig. 9/10 latency series as
# BENCH_fig9.json / BENCH_fig10.json — CI uploads both as artifacts so
# every run leaves a comparable trace.
bench-smoke:
	$(GO) test -race -run '^$$' -bench BenchmarkParallelDiscovery -benchtime=1x ./internal/registry/
	$(GO) run ./cmd/benchfig -fig 9 -max 60 -step 30 -reps 25 -benchjson
	$(GO) run ./cmd/benchfig -fig 10 -max 60 -step 30 -reps 25 -benchjson

# slo-check replays each load scenario with exactly the flags that
# produced its checked-in baseline (bench/baselines/) and diffs the fresh
# report against it under the tolerance bands documented there. Non-zero
# exit = latency/throughput regression or workload drift.
SLO_FLAGS = -seed 42 -nodes 9 -services 60 -ontologies 12 -ops 600 -warmup 60

slo-check:
	$(GO) run ./cmd/sdpload -scenario flash-crowd $(SLO_FLAGS) -sample 100ms \
		-out BENCH_load_flash-crowd.json
	$(GO) run ./cmd/slocheck -baseline bench/baselines/BENCH_load_flash-crowd.json \
		-run BENCH_load_flash-crowd.json -tolerance bench/baselines/tolerances.json
	$(GO) run ./cmd/sdpload -scenario thundering-herd $(SLO_FLAGS) -rate 300 -sample 250ms \
		-fault-scale 2s -out BENCH_load_thundering-herd.json
	$(GO) run ./cmd/slocheck -baseline bench/baselines/BENCH_load_thundering-herd.json \
		-run BENCH_load_thundering-herd.json -tolerance bench/baselines/tolerances-faulty.json
	$(GO) run ./cmd/sdpload -scenario brownout $(SLO_FLAGS) -rate 300 -sample 250ms \
		-fault-scale 2s -out BENCH_load_brownout.json
	$(GO) run ./cmd/slocheck -baseline bench/baselines/BENCH_load_brownout.json \
		-run BENCH_load_brownout.json -tolerance bench/baselines/tolerances-faulty.json

# store-conformance runs the cross-backend storage suite under the race
# detector: every backend (memstore, filestore, boltlike) against the
# shared storetest contract — ordered replay, idempotent reopen,
# concurrent append/replay, crash-recovery by injected truncation — plus
# the sdpd replay/migration integration tests and a short run of the
# record-codec fuzzer over its seed corpus.
store-conformance:
	$(GO) test -race -count=1 ./internal/store/... ./cmd/sdpd/
	$(GO) test -run '^$$' -fuzz FuzzDecodeRecord -fuzztime 10s ./internal/store/

# metrics-smoke boots a real sdpd, scrapes GET /metrics, and fails on
# malformed Prometheus exposition or missing acceptance metrics.
metrics-smoke:
	$(GO) run ./cmd/metricsmoke

# federation-smoke boots three sdpd processes federated over loopback
# UDP, registers a service on one daemon, resolves it from another, and
# checks /metrics shows real backbone traffic.
federation-smoke:
	$(GO) run ./cmd/fedsmoke

# soak-smoke is the 90-second miniature of an overnight soak: a
# three-daemon federation with durable telemetry journals and drift
# watchdogs must stay silent while healthy, serve pre-restart history
# after a restart, and fire goroutine_growth on an injected leak.
soak-smoke:
	$(GO) run ./cmd/soaksmoke

# perfbench-check vets and tests the benchmark module. perfbench/ has its
# own go.mod, so ./... from the root never compiles it, and a changed
# internal signature could otherwise break the benchmark unseen.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# check is the full CI gate.
check: build lint test race store-conformance perfbench-check metrics-smoke federation-smoke soak-smoke slo-check

clean:
	$(GO) clean ./...
