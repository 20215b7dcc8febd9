GO ?= go

.PHONY: check vet crossvet lint build test purego race fuzz bench benchsmoke benchpairs figures servesmoke updatesmoke precsmoke clustersmoke

# staticcheck version pinned so local runs and CI agree; `go run` fetches
# it on demand (network) — lint skips with a notice when that fails.
STATICCHECK_VERSION ?= 2025.1

## check: the tier-1 gate — vet (native and cross), build, full test suite,
## the row primitives' callers again over their portable bodies, and the
## race target.
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

## purego: the row primitives' own suite and both callers' — the native
## sweeps, the dense kernels and the factorization with its golden bits —
## over the portable Go bodies, on a host whose default build runs the
## assembly ones.
purego:
	$(GO) test -tags purego ./internal/rowops/... ./internal/native/... ./internal/dense/... ./internal/chol/...

## race: the two-width concurrent-solve regression and the daemon's
## cancellation soak (pooled request vectors must never be recycled while
## the batcher may still touch them) ten times over each, then a
## race-detector pass over the fourteen concurrency-bearing packages — the
## symbolic factor's lazily built relative indices, the task executor, the
## factorization, the native engine, the virtual machine, fault injection,
## the harness, the degradation ladder, the serving layer, the registry,
## the shared HTTP edge, the transport, the cluster router and the
## precision guard.
race:
	$(GO) test -race -count=10 -run TestConcurrentSolvesAtTwoWidths ./internal/native
	$(GO) test -race -count=10 -run TestConcurrentSolvesWithCancellations ./internal/transport
	$(GO) test -race -timeout 10m ./internal/symbolic ./internal/taskdag ./internal/chol ./internal/native ./internal/machine ./internal/faultinject ./internal/harness ./internal/ladder ./internal/serve ./internal/registry ./internal/httpkit ./internal/transport ./internal/cluster ./internal/prec

## fuzz: short never-panic smokes of the Harwell-Boeing reader and the
## transport solve-body decoder, the symbolic analysis against its
## referee, the row primitives and the panel and block primitives against
## theirs, bit for bit on both value planes, the Schur primitive against
## its, and the factorization at 2, 3 and 8 workers against its one-worker
## run on irregular trees (same as CI).
fuzz:
	$(GO) test -fuzz=FuzzReadHarwellBoeing -fuzztime=10s ./internal/sparse
	$(GO) test -fuzz=FuzzDecodeBlock -fuzztime=10s ./internal/transport
	$(GO) test -fuzz=FuzzAnalyze -fuzztime=10s ./internal/symbolic
	$(GO) test -fuzz=FuzzRowPrimitives -fuzztime=10s ./internal/rowops
	$(GO) test -fuzz=FuzzPanelPrimitives -fuzztime=10s ./internal/rowops
	$(GO) test -fuzz=FuzzSchur -fuzztime=10s ./internal/rowops
	$(GO) test -fuzz=FuzzFactorize -fuzztime=10s ./internal/chol

bench:
	$(GO) test -bench=. -benchmem .

## benchsmoke: one iteration of every native-engine benchmark, of the
## sweeps', of the factorization's, of the dense front kernel's and of the
## set-up stages' (the CI step); catches benchmarks that stop compiling or
## error without paying for timing.
benchsmoke:
	$(GO) test -run=NONE -bench=Native -benchtime=1x -benchmem .
	$(GO) test -run=NONE -bench=Sweep -benchtime=1x ./internal/native
	$(GO) test -run=NONE -bench=Factorize -benchtime=1x ./internal/chol
	$(GO) test -run=NONE -bench=PartialCholesky -benchtime=1x ./internal/dense
	$(GO) test -run=NONE -bench=Prepare -benchtime=1x ./internal/symbolic

## benchpairs: the paired parent/change comparison of `go run ./benchmark`
## — N alternated runs per workload against the build of commit BASE, every
## value, both medians and the pairs each side won per end-to-end metric.
## Usage: make benchpairs BASE=<rev> [N=5]
N ?= 5
benchpairs:
	scripts/benchpairs.sh "$(BASE)" "$(N)"

## figures: rebuild the four published virtual-time outputs (results/
## fig5iso, fig7table, fig8curves, redistbench) with default flags into a
## temporary directory and fail on any difference, naming the file and
## its first differing line (the CI step; about a minute and a half, so
## not part of `go test ./...`).
figures:
	scripts/figures.sh

## servesmoke: daemon smoke (the CI step) — build the real solved binary,
## start it, ingest GRID2D-15x15 over HTTP, one solve round-trip, scrape
## /metrics, SIGTERM, require a clean drain.
servesmoke:
	$(GO) test -run TestDaemonSmoke -count=1 -v ./cmd/solved

## updatesmoke: streaming-update smoke (the CI step) — a race-built solved
## daemon under a value-update loop racing solve traffic; every answer must
## satisfy the residual bound against one of the two alternating value sets
## (never a blend) and the refactorization counter must account for every
## update.
updatesmoke:
	$(GO) test -race -run TestUpdateSmoke -count=1 -timeout 10m -v ./cmd/solved

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
