GO ?= go

.PHONY: check vet crossvet lint build test purego race fuzz bench benchsmoke benchcheck benchjson benchdiff benchpairs nativebench loadsmoke loadjson servesmoke loadurl clustersmoke clusterload updatesmoke updateload precsmoke

# staticcheck version pinned so local runs and CI agree; `go run` fetches
# it on demand (network) — lint skips with a notice when that fails.
STATICCHECK_VERSION ?= 2025.1

## check: the tier-1 gate — vet (native and cross), build, full test suite,
## the native suite again over the portable row primitives, and a
## race-detector pass over the concurrency-bearing packages (the native
## shared-memory solver, the virtual machine, fault injection, and the
## harness).
check: vet crossvet build test purego race

## vet: go vet plus a formatting gate — any file gofmt would rewrite fails
## the target (and with it check, lint and the CI vet step).
vet:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "vet: gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; \
	fi

## crossvet: go vet for a non-amd64 target (works offline) — proves the
## package builds without the AVX2 row primitives and that no Go file
## references an amd64-only symbol.
crossvet:
	GOARCH=arm64 $(GO) vet ./...

## lint: vet plus the pinned staticcheck pass (the CI lint step). Offline
## hosts that cannot fetch staticcheck get vet only, with a notice;
## findings from an available staticcheck still fail the target.
lint: vet
	@if $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) -version >/dev/null 2>&1; then \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	else \
		echo "lint: staticcheck $(STATICCHECK_VERSION) unavailable (offline?); vet-only pass"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## purego: the whole native suite over the portable Go row primitives, on
## a host whose default build runs the assembly ones.
purego:
	$(GO) test -tags purego ./internal/native/...

race:
	$(GO) test -race -count=10 -run TestConcurrentSolvesAtTwoWidths ./internal/native
	$(GO) test -race -timeout 10m ./internal/native ./internal/machine ./internal/faultinject ./internal/harness ./internal/serve ./internal/registry ./internal/transport ./internal/cluster ./internal/prec

## fuzz: short never-panic smokes of the Harwell-Boeing reader and the
## transport solve-body decoder (same as CI).
fuzz:
	$(GO) test -fuzz=FuzzReadHarwellBoeing -fuzztime=10s ./internal/sparse
	$(GO) test -fuzz=FuzzDecodeBlock -fuzztime=10s ./internal/transport

bench:
	$(GO) test -bench=. -benchmem .

## benchsmoke: one iteration of every native-engine benchmark (the CI step);
## catches benchmarks that stop compiling or error without paying for timing.
benchsmoke:
	$(GO) test -run=NONE -bench=Native -benchtime=1x -benchmem .

## benchcheck: one-iteration NativeSolve grid to a scratch json, validated by
## benchdiff -check (the CI step) — fails on NaN/zero-throughput rows without
## gating on noisy shared-runner timings.
benchcheck:
	BENCH_JSON=/tmp/sptrsv-nativesolve-ci.json $(GO) test -run=NONE -bench=NativeSolve -benchtime=1x .
	$(GO) run ./cmd/benchdiff -check /tmp/sptrsv-nativesolve-ci.json

## benchjson: regenerate results/nativesolve.json (steady-state SolveInto grid).
benchjson:
	BENCH_JSON=1 $(GO) test -run=NONE -bench=NativeSolve -benchmem .

## benchdiff: per-case GFLOPS deltas between two NativeSolve documents.
## Usage: make benchdiff OLD=results/nativesolve.old.json NEW=results/nativesolve.json
OLD ?= /tmp/sptrsv-nativesolve-old.json
NEW ?= results/nativesolve.json
benchdiff:
	$(GO) run ./cmd/benchdiff $(OLD) $(NEW)

## benchpairs: the paired parent/change comparison of `go run ./benchmark`
## — N alternated runs per workload against the build of commit BASE, every
## value, both medians and the pairs each side won per end-to-end metric.
## Usage: make benchpairs BASE=<rev> [N=5]
N ?= 5
benchpairs:
	scripts/benchpairs.sh "$(BASE)" "$(N)"

## nativebench: predicted-vs-measured speedup table on the default 2-D mesh.
nativebench:
	$(GO) run ./cmd/nativebench

## loadsmoke: short closed-loop run of the serving layer on a small grid
## (the CI step); catches the server path end to end without paying for a
## full benchmark.
loadsmoke:
	$(GO) run ./cmd/solveload -grid2d 31x31 -clients 4 -duration 500ms

## loadjson: regenerate results/solveload.json (serving throughput vs the
## per-request baseline on the 2-D grid bench problem). Run `make loadurl`
## instead to also capture the network datapoint.
loadjson:
	$(GO) run ./cmd/solveload -grid2d 63x63 -clients 8 -duration 3s -json results/solveload.json

## servesmoke: daemon smoke (the CI step) — build the real solved binary,
## start it, ingest GRID2D-15x15 over HTTP, one solve round-trip, scrape
## /metrics, SIGTERM, require a clean drain.
servesmoke:
	$(GO) test -run TestDaemonSmoke -count=1 -v ./cmd/solved

## loadurl: regenerate results/solveload.json including the network
## datapoint — starts a loopback solved daemon, points solveload at it,
## and shuts the daemon down afterwards.
loadurl:
	$(GO) build -o /tmp/sptrsv-solved ./cmd/solved
	/tmp/sptrsv-solved -addr 127.0.0.1:18035 & \
	SOLVED_PID=$$!; sleep 1; \
	$(GO) run ./cmd/solveload -grid2d 63x63 -clients 8 -duration 3s \
		-url http://127.0.0.1:18035 -json results/solveload.json; \
	STATUS=$$?; kill -TERM $$SOLVED_PID; wait $$SOLVED_PID; exit $$STATUS

## updatesmoke: streaming-update smoke (the CI step) — a race-built solved
## daemon under a value-update loop racing solve traffic; every answer must
## satisfy the residual bound against one of the two alternating value sets
## (never a blend) and the refactorization counter must account for every
## update.
updatesmoke:
	$(GO) test -race -run TestUpdateSmoke -count=1 -timeout 10m -v ./cmd/solved

## updateload: regenerate results/solveload.json including the streaming-
## update section — update-to-first-solve latency of PUT /values (refactorize
## on the cached symbolic analysis + hot-swap) vs a full DELETE +
## Harwell-Boeing re-ingest on the same daemon.
updateload:
	$(GO) build -o /tmp/sptrsv-solved ./cmd/solved
	/tmp/sptrsv-solved -addr 127.0.0.1:18036 & \
	SOLVED_PID=$$!; sleep 1; \
	$(GO) run ./cmd/solveload -grid2d 63x63 -clients 8 -duration 3s \
		-url http://127.0.0.1:18036 -update -json results/solveload.json; \
	STATUS=$$?; kill -TERM $$SOLVED_PID; wait $$SOLVED_PID; exit $$STATUS

## precsmoke: mixed-precision smoke (the CI step) — a race-built solved
## daemon serving the same matrix ingested at float64 and under the mixed
## policy; concurrent solves against both must meet the residual bound and
## agree with each other, and /metrics must show the precision info gauge
## plus the per-precision resident-bytes split.
precsmoke:
	$(GO) test -race -run TestPrecSmoke -count=1 -timeout 10m -v ./cmd/solved

## clustersmoke: the kill-a-backend acceptance test (the CI step) — three
## race-built solved daemons behind a race-built solverouter, concurrent
## traffic at the router, one backend SIGKILLed mid-stream; every request
## must still be answered bitwise identical to the in-process solve.
clustersmoke:
	$(GO) test -race -run TestClusterSmoke -count=1 -timeout 10m -v ./cmd/solverouter

## clusterload: regenerate results/solveload.json against a 3-backend
## cluster — the router is started with a deliberately small solve budget
## (-attempts 2) and the matrix is ingested without waiting, so the build
## window surfaces at solveload as 503-with-Retry-After requests that are
## retried and then succeed: the report's status_counts/retried_ok fields
## must show retries and zero terminal failures.
clusterload:
	$(GO) build -o /tmp/sptrsv-solved ./cmd/solved
	$(GO) build -o /tmp/sptrsv-solverouter ./cmd/solverouter
	/tmp/sptrsv-solved -addr 127.0.0.1:18041 & B1=$$!; \
	/tmp/sptrsv-solved -addr 127.0.0.1:18042 & B2=$$!; \
	/tmp/sptrsv-solved -addr 127.0.0.1:18043 & B3=$$!; \
	sleep 1; \
	/tmp/sptrsv-solverouter -addr 127.0.0.1:18040 -attempts 2 \
		-backends http://127.0.0.1:18041,http://127.0.0.1:18042,http://127.0.0.1:18043 & R=$$!; \
	sleep 1; \
	$(GO) run ./cmd/solveload -grid2d 255x255 -clients 8 -duration 5s -nobaseline \
		-url http://127.0.0.1:18040 -json results/solveload.json; \
	STATUS=$$?; kill -TERM $$R $$B1 $$B2 $$B3; wait; exit $$STATUS
