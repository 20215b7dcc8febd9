// Package registry is the multi-matrix layer of the serving stack: a
// named collection of served matrices, each a warm serve.Server over a
// permuted matrix and its numeric Cholesky factor (whose Sym is the
// symbolic analysis) — the "factor once, then stream solve traffic at
// it" shape the network daemon (internal/transport, cmd/solved) serves
// from.
//
// Lifecycle of one matrix id: building → resident → (draining →)
// evicted. Register starts a background build (ordering, symbolic
// analysis, numeric factorization, server construction); duplicate
// Registers of an id that is already building or resident are
// singleflighted onto the existing entry instead of factoring twice.
// Acquire hands out a ref-counted Handle to a resident entry; the
// typed sentinel errors ErrBuilding, ErrNotFound, and ErrEvicted
// distinguish "come back soon" from "never heard of it" from "was here,
// re-ingest it".
//
// Residency is bounded by Config.MaxResidentBytes: each resident entry
// is charged its factor nonzeros (8 bytes each) plus the live arena
// footprint of its warm solver, and when the total exceeds the budget
// the least-recently-acquired entries are evicted until it fits (the
// entry that just finished building is protected, so a single matrix
// larger than the whole budget still serves). Eviction never tears down
// a server under an in-flight solve: an evicted entry with outstanding
// Handles drains — it leaves the table and the byte accounting
// immediately, but its serve.Server is closed exactly once, by the last
// Release.
package registry

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"sptrsv/internal/prec"
	"sptrsv/internal/serve"
	"sptrsv/internal/sparse"
)

// Typed registry states surfaced as errors (the transport layer maps
// them onto HTTP status codes).
var (
	// ErrNotFound: the id has never been registered (or the registry
	// restarted); the caller should ingest the matrix.
	ErrNotFound = errors.New("registry: matrix not found")
	// ErrBuilding: the id is registered and its factorization is still
	// running; retry shortly.
	ErrBuilding = errors.New("registry: matrix is still building")
	// ErrEvicted: the id was resident and was evicted to fit the
	// resident-bytes budget; re-register to rebuild it.
	ErrEvicted = errors.New("registry: matrix was evicted")
	// ErrClosed: the registry is shutting down; no new builds or
	// acquisitions are admitted.
	ErrClosed = errors.New("registry: closed")
	// ErrOptionsConflict: a Register for an id that is already building
	// or resident asked for different build options than the live entry
	// was built with. The singleflight keeps the existing entry; callers
	// who want the new options must Evict and re-ingest.
	ErrOptionsConflict = errors.New("registry: build options conflict with the live entry")
)

// ValuesError reports an UpdateValues payload that cannot be the matrix's
// values: its length does not match the nonzero count (Got != Want — the
// values of a different matrix), or value Index is Value, which is not
// finite.
type ValuesError struct {
	ID        string
	Got, Want int
	Index     int
	Value     float64
}

func (e *ValuesError) Error() string {
	if e.Got != e.Want {
		return fmt.Sprintf("registry: matrix %q: got %d values, want %d (one per stored nonzero)", e.ID, e.Got, e.Want)
	}
	return fmt.Sprintf("registry: matrix %q: value %d is %v, want a finite number", e.ID, e.Index, e.Value)
}

// BuildError wraps a failed background build; Acquire returns it for the
// failed id until the id is re-registered (which retries the build).
type BuildError struct {
	ID  string
	Err error
}

func (e *BuildError) Error() string {
	return fmt.Sprintf("registry: build of %q failed: %v", e.ID, e.Err)
}

func (e *BuildError) Unwrap() error { return e.Err }

// Config tunes a Registry.
type Config struct {
	// MaxResidentBytes bounds the total resident footprint (factor
	// nonzeros + solver arenas, see Stats.ResidentBytes); 0 means
	// unlimited.
	MaxResidentBytes int64
	// Serve is the configuration template for every per-matrix
	// serve.Server the registry constructs; RegisterWith can override
	// parts of it per matrix (see BuildOptions).
	Serve serve.Config
}

// BuildOptions are the per-matrix overrides RegisterWith applies on top
// of the registry's Config.Serve template. A field overrides only when
// non-nil — callers that want the template unchanged use Register (or an
// all-nil BuildOptions).
type BuildOptions struct {
	// Precision, when non-nil, is the precision policy of this matrix's
	// server (replaces the template's Serve.Precision): float64, mixed
	// (float32 factor storage + refinement), or auto. A matrix resolved
	// to mixed is charged its true float32 footprint against the
	// resident-bytes budget — half the float64 charge.
	Precision *prec.Policy
}

// state is one entry's position in the lifecycle.
type state int

const (
	stateBuilding state = iota
	stateResident
	stateEvicted // tombstone: also the terminal state of a drained entry
	stateFailed  // build failed; tombstone carrying the build error
)

func (s state) String() string {
	switch s {
	case stateBuilding:
		return "building"
	case stateResident:
		return "resident"
	case stateEvicted:
		return "evicted"
	case stateFailed:
		return "failed"
	}
	return "unknown"
}

// generation is one numeric incarnation of an entry: the warm server
// built from one set of matrix values, which holds the matrix and the
// factor it serves. A value swap (UpdateValues) installs a fresh
// generation and marks the old one dead; each generation is closed
// exactly once, when it is dead and its last pinning handle releases —
// in-flight solves always finish on the generation they acquired. srv is
// written once before the generation is published and read-only
// thereafter; the bookkeeping fields are guarded by the registry mutex.
type generation struct {
	srv *serve.Server

	num    int  // 1 for the built generation, +1 per swap (observability)
	refs   int  // handles (and in-flight updates) pinning this generation
	dead   bool // retired by a swap, or its entry evicted: close at refs==0
	closed bool // srv.Close has run (exactly-once guard)
}

// entry is one registered matrix. All fields are guarded by the registry
// mutex except updateMu (which serializes UpdateValues calls per entry
// and is only ever taken before r.mu).
type entry struct {
	id    string
	state state
	built chan struct{} // closed when the build finishes, either way
	err   error         // build failure, set before built closes

	// serveCfg is the per-entry server configuration (the registry
	// template, possibly with RegisterWith overrides applied), fixed at
	// Register time and read by the build goroutine.
	serveCfg serve.Config

	// buildStart stamps Register time so BuildETA can subtract elapsed
	// build time from the duration estimate.
	buildStart time.Time

	// gen is the current generation — what new Acquires see. Old
	// generations live on only through the handles that pinned them.
	gen *generation

	// updateMu serializes value swaps on this entry so concurrent
	// UpdateValues calls never build from the same parent generation.
	updateMu sync.Mutex

	baseBytes int64  // factor nonzeros × 8, charged while resident or draining
	refs      int    // outstanding Handles across all generations
	lastUse   uint64 // LRU clock value of the most recent Acquire
	draining  bool   // evicted with refs > 0 on the current generation
}

// bytes is the entry's charge against the resident budget. The arena
// part is live: it grows after the first solve sizes the arena, so a
// matrix is accounted at its true serving footprint, not its
// just-built one.
func (e *entry) bytes() int64 {
	b := e.baseBytes
	if e.gen != nil && e.gen.srv != nil {
		b += e.gen.srv.Solver().ArenaBytes()
		// A mixed-precision server that hit refinement stagnation holds a
		// lazily built float64 fallback factor; charge what it really
		// holds, not the optimistic float32 half.
		b += e.gen.srv.FallbackBytes()
	}
	return b
}

// Registry is a concurrency-safe named registry of prepared systems.
// Construct with New; shut down with Close.
type Registry struct {
	cfg Config

	mu      sync.Mutex
	cond    *sync.Cond // signalled when refs drop (Close waits on it)
	entries map[string]*entry
	clock   uint64 // LRU clock, incremented per Acquire
	closed  bool

	evictions     uint64
	buildFailures uint64
	buildEWMA     time.Duration // smoothed successful full-build duration (0 = no history)
	// refactorEWMA smooths UpdateValues swap durations separately from
	// buildEWMA: value swaps are orders of magnitude cheaper than full
	// builds, and folding them into one estimate would make the 503
	// Retry-After that BuildETA feeds dishonest again.
	refactorEWMA     time.Duration
	refactorizations uint64         // successful value swaps
	swapDraining     int            // dead generations still pinned by handles
	wg               sync.WaitGroup // in-flight build goroutines
}

// New constructs an empty registry.
func New(cfg Config) *Registry {
	r := &Registry{cfg: cfg, entries: make(map[string]*entry)}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// Register starts a background build of src under the given id and
// returns immediately. It is a singleflight: if id is already building
// or resident, the existing entry is kept and no second factorization
// runs. A failed or evicted id is re-registered (the tombstone is
// replaced and the build retried). Returns ErrClosed after Close.
func (r *Registry) Register(id string, src Source) error {
	return r.register(id, src, r.cfg.Serve)
}

// RegisterWith is Register with per-matrix overrides applied to the
// registry's serve.Config template — the path the transport layer uses
// when an ingest spec names a precision policy for the matrix.
func (r *Registry) RegisterWith(id string, src Source, opts BuildOptions) error {
	cfg := r.cfg.Serve
	if opts.Precision != nil {
		cfg.Precision = *opts.Precision
	}
	return r.register(id, src, cfg)
}

func (r *Registry) register(id string, src Source, cfg serve.Config) error {
	if id == "" {
		return fmt.Errorf("registry: empty matrix id")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	if e, ok := r.entries[id]; ok && (e.state == stateBuilding || e.state == stateResident) {
		// Singleflight: a usable entry already exists — but only if it
		// is (being) built the way this caller asked. Silently keeping an
		// entry with different options would hand the caller a solver
		// they explicitly did not request.
		if e.serveCfg.Precision != cfg.Precision {
			return fmt.Errorf(
				"registry: matrix %q is already %s with precision=%s (asked for precision=%s); evict and re-ingest to change options: %w",
				id, e.state, e.serveCfg.Precision, cfg.Precision, ErrOptionsConflict)
		}
		return nil
	}
	e := &entry{id: id, state: stateBuilding, built: make(chan struct{}),
		serveCfg: cfg, buildStart: time.Now()}
	r.entries[id] = e
	r.wg.Add(1)
	go r.build(e, src)
	return nil
}

// build runs one background factorization and publishes the result.
func (r *Registry) build(e *entry, src Source) {
	defer r.wg.Done()
	a, f, err := src()
	r.mu.Lock()
	defer r.mu.Unlock()
	defer close(e.built)
	if r.entries[e.id] != e {
		// Superseded (re-registered) or removed while building; discard.
		e.state = stateEvicted
		e.err = ErrEvicted
		return
	}
	if err == nil && r.closed {
		err = ErrClosed
	}
	if err != nil {
		e.state = stateFailed
		e.err = &BuildError{ID: e.id, Err: err}
		r.buildFailures++
		return
	}
	// The server resolves the precision policy and may demote the factor
	// to its float32 plane; charge the budget the footprint of the factor
	// it actually serves — 4 bytes per nonzero under mixed precision, not
	// 8.
	srv := serve.New(a, f, e.serveCfg)
	e.gen = &generation{srv: srv, num: 1}
	e.baseBytes = srv.FactorBytes()
	e.state = stateResident
	e.lastUse = r.tick()
	// Fold this build into the duration estimate BuildETA serves from.
	// EWMA with α = 1/4: stable under one outlier, tracks a workload
	// shift (bigger matrices) within a few builds.
	if d := time.Since(e.buildStart); r.buildEWMA == 0 {
		r.buildEWMA = d
	} else {
		r.buildEWMA += (d - r.buildEWMA) / 4
	}
	r.evictOverBudget(e)
}

// BuildETA estimates the remaining build time of a building id: the
// smoothed duration of past successful builds minus the time this build
// has already run (floored at zero — "any moment now"). ok is false
// when the id is not building; eta 0 with ok true means either
// imminent or no history to estimate from. This is what makes the
// transport layer's 503 Retry-After honest instead of a hardcoded
// constant.
func (r *Registry) BuildETA(id string) (eta time.Duration, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, found := r.entries[id]
	if !found || e.state != stateBuilding {
		return 0, false
	}
	if r.buildEWMA == 0 {
		return 0, true
	}
	eta = r.buildEWMA - time.Since(e.buildStart)
	if eta < 0 {
		eta = 0
	}
	return eta, true
}

func (r *Registry) tick() uint64 {
	r.clock++
	return r.clock
}

// Handle is a ref-counted lease on one resident matrix. It pins the
// generation that was current at Acquire time: the server it exposes
// stays alive — and its factor values bitwise stable — even across an
// eviction or a value swap, until Release. Using a released handle is a
// bug in the caller and panics loudly (the alternative — handing out a
// server that may be mid-teardown — turns into a silent use-after-close
// under load).
type Handle struct {
	reg      *Registry
	e        *entry
	gen      *generation
	released bool
	mu       sync.Mutex
}

// ID returns the matrix id the handle leases. It stays valid after
// Release (ids are immutable; only the lease expires).
func (h *Handle) ID() string { return h.e.id }

// use guards every accessor that hands out leased state; the caller
// holds h.mu.
func (h *Handle) use() {
	if h.released {
		panic("registry: Handle used after Release")
	}
}

// Server returns the matrix's warm coalescing server, as of Acquire
// time. Panics if the handle was released.
func (h *Handle) Server() *serve.Server {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.use()
	return h.gen.srv
}

// Matrix returns the permuted matrix with the values of the pinned
// generation. Panics if the handle was released.
func (h *Handle) Matrix() *sparse.SymCSC {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.use()
	return h.gen.srv.Matrix()
}

// Release returns the lease. Idempotent. If the pinned generation became
// dead while this handle was out — its entry evicted, or its values
// swapped — the last release closes its server (exactly once): in-flight
// solves through Server() therefore always finish before teardown.
func (h *Handle) Release() {
	h.mu.Lock()
	if h.released {
		h.mu.Unlock()
		return
	}
	h.released = true
	h.mu.Unlock()
	h.reg.release(h.e, h.gen)
}

// release drops one ref from a generation (and its entry) and performs
// any deferred teardown.
func (r *Registry) release(e *entry, g *generation) {
	r.mu.Lock()
	e.refs--
	g.refs--
	toClose := r.reapLocked(e, g)
	// A Release can also shrink effective pressure ordering; use the
	// opportunity to re-check the budget (arenas grow after first use).
	if e.refs == 0 && e.state == stateResident {
		r.evictOverBudget(nil)
	}
	r.cond.Broadcast()
	r.mu.Unlock()
	if toClose != nil {
		toClose.Close()
	}
}

// reapLocked closes a drained dead generation (r.mu held): if g is dead
// with no refs left it is marked closed and its server returned for
// teardown outside the lock. Entry-level draining bookkeeping is cleared
// when the drained generation is the entry's current one; a swapped-out
// generation instead leaves the swap-draining gauge.
func (r *Registry) reapLocked(e *entry, g *generation) *serve.Server {
	if !g.dead || g.refs != 0 || g.closed {
		return nil
	}
	g.closed = true
	if g == e.gen {
		e.draining = false
	} else {
		r.swapDraining--
	}
	return g.srv
}

// Acquire leases the resident matrix id. The error is one of the typed
// states: ErrNotFound, ErrBuilding, ErrEvicted, ErrClosed, or a
// *BuildError for an id whose background build failed.
func (r *Registry) Acquire(id string) (*Handle, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	e, ok := r.entries[id]
	if !ok {
		return nil, ErrNotFound
	}
	switch e.state {
	case stateBuilding:
		return nil, ErrBuilding
	case stateEvicted:
		return nil, ErrEvicted
	case stateFailed:
		return nil, e.err
	}
	e.refs++
	e.gen.refs++
	e.lastUse = r.tick()
	return &Handle{reg: r, e: e, gen: e.gen}, nil
}

// AcquireWait is Acquire for callers willing to wait out a build: if id
// is building it blocks until the build finishes (or done is closed),
// then acquires. done nil means wait indefinitely.
func (r *Registry) AcquireWait(id string, done <-chan struct{}) (*Handle, error) {
	for {
		h, err := r.Acquire(id)
		if !errors.Is(err, ErrBuilding) {
			return h, err
		}
		r.mu.Lock()
		e := r.entries[id]
		r.mu.Unlock()
		if e == nil {
			continue // re-registered concurrently; re-resolve
		}
		select {
		case <-e.built:
		case <-done:
			return nil, ErrBuilding
		}
	}
}

// Evict removes id from the registry. A resident entry with no
// outstanding handles is torn down immediately; one with in-flight
// solves drains (teardown happens at the last Release). Returns
// ErrNotFound for an unknown id.
func (r *Registry) Evict(id string) error {
	r.mu.Lock()
	e, ok := r.entries[id]
	if !ok || e.state == stateEvicted {
		r.mu.Unlock()
		if ok {
			return nil
		}
		return ErrNotFound
	}
	toClose := r.evictLocked(e)
	r.mu.Unlock()
	if toClose != nil {
		toClose.Close()
	}
	return nil
}

// evictLocked transitions e to evicted (or draining) under r.mu and
// returns the server to close once the lock is released, if teardown is
// due now.
func (r *Registry) evictLocked(e *entry) *serve.Server {
	switch e.state {
	case stateResident:
		r.evictions++
		e.state = stateEvicted
		g := e.gen
		g.dead = true
		// Older swapped-out generations are already dead and reap
		// themselves at their last release; only the current one needs
		// the eviction decision here.
		if g.refs > 0 {
			e.draining = true // last release closes
			return nil
		}
		if !g.closed {
			g.closed = true
			return g.srv
		}
	case stateBuilding:
		// Leave the build to discover the tombstone when it publishes.
		delete(r.entries, e.id)
	case stateFailed:
		e.state = stateEvicted
	}
	return nil
}

// evictOverBudget enforces MaxResidentBytes under r.mu: while the
// resident total exceeds the budget, the least-recently-acquired
// resident entry other than protect is evicted. Draining entries have
// already left the accounting; protect (the entry that just finished
// building) is exempt so one oversized matrix cannot evict itself.
// Servers due for teardown are closed on a goroutine — Close waits for
// the in-flight batch, which must not run under the registry lock.
func (r *Registry) evictOverBudget(protect *entry) {
	if r.cfg.MaxResidentBytes <= 0 {
		return
	}
	for {
		var total int64
		var lru *entry
		resident := 0
		for _, e := range r.entries {
			if e.state != stateResident {
				continue
			}
			resident++
			total += e.bytes()
			if e == protect {
				continue
			}
			if lru == nil || e.lastUse < lru.lastUse {
				lru = e
			}
		}
		// Floor of one: a single resident matrix is never budget-evicted,
		// even when it alone exceeds the budget — an empty registry serves
		// nothing, which is strictly worse.
		if total <= r.cfg.MaxResidentBytes || lru == nil || resident <= 1 {
			return
		}
		if srv := r.evictLocked(lru); srv != nil {
			go srv.Close()
		}
	}
}

// Status reports one matrix's lifecycle position without acquiring it.
func (r *Registry) Status(id string) (MatrixStatus, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok {
		return MatrixStatus{}, ErrNotFound
	}
	return r.statusLocked(e), nil
}

func (r *Registry) statusLocked(e *entry) MatrixStatus {
	st := MatrixStatus{ID: e.id, State: e.state.String(), Refs: e.refs}
	if e.draining {
		st.State = "draining"
	}
	if e.state == stateBuilding && r.buildEWMA > 0 {
		if eta := r.buildEWMA - time.Since(e.buildStart); eta > 0 {
			st.EtaMillis = eta.Milliseconds()
		}
	}
	if e.err != nil {
		st.Error = e.err.Error()
	}
	if e.gen != nil {
		st.N = e.gen.srv.Matrix().N
		st.NnzL = e.gen.srv.Factor().Sym.NnzL
		st.Generation = e.gen.num
	}
	if e.state == stateResident || e.draining {
		st.Bytes = e.bytes()
		// The resolved storage precision — with an auto policy this is the
		// concrete choice the condition estimate made at build time.
		st.Precision = e.gen.srv.Precision().String()
	}
	return st
}

// MatrixStatus is one entry's externally visible state.
type MatrixStatus struct {
	ID    string `json:"id"`
	State string `json:"state"` // building | resident | draining | evicted | failed
	N     int    `json:"n,omitempty"`
	NnzL  int64  `json:"nnz_l,omitempty"`
	Bytes int64  `json:"bytes,omitempty"`
	Refs  int    `json:"refs,omitempty"`
	// Precision is the resolved factor storage precision (float64 |
	// float32), reported while resident or draining.
	Precision string `json:"precision,omitempty"`
	// Generation counts numeric incarnations: 1 after the build, +1 per
	// successful UpdateValues swap.
	Generation int `json:"generation,omitempty"`
	// EtaMillis estimates the remaining build time while building (from
	// the registry's smoothed past-build durations); 0 when unknown.
	EtaMillis int64  `json:"eta_ms,omitempty"`
	Error     string `json:"error,omitempty"`
}

// Stats are the registry-level gauges the metrics endpoint exports.
type Stats struct {
	Resident      int   `json:"resident"`
	Building      int   `json:"building"`
	Draining      int   `json:"draining"`
	ResidentBytes int64 `json:"resident_bytes"`
	// ResidentBytesByPrecision splits ResidentBytes by each resident
	// matrix's resolved storage precision ("float64" / "float32"), so the
	// metrics endpoint can show where the mixed-precision budget win
	// lands. Keys with zero bytes are omitted.
	ResidentBytesByPrecision map[string]int64 `json:"resident_bytes_by_precision,omitempty"`
	// MaxResidentBytes echoes the configured budget (0 = unlimited).
	MaxResidentBytes int64  `json:"max_resident_bytes"`
	Evictions        uint64 `json:"evictions"`
	BuildFailures    uint64 `json:"build_failures"`
	// Refactorizations counts successful UpdateValues swaps;
	// RefactorEwmaMillis is their smoothed update-to-swap duration
	// (tracked separately from the full-build EWMA feeding BuildETA).
	Refactorizations   uint64 `json:"refactorizations"`
	RefactorEwmaMillis int64  `json:"refactor_ewma_ms"`
}

// Stats returns the registry gauges.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Stats{MaxResidentBytes: r.cfg.MaxResidentBytes,
		Evictions: r.evictions, BuildFailures: r.buildFailures,
		Refactorizations:   r.refactorizations,
		RefactorEwmaMillis: r.refactorEWMA.Milliseconds(),
		Draining:           r.swapDraining}
	for _, e := range r.entries {
		switch {
		case e.state == stateBuilding:
			st.Building++
		case e.state == stateResident:
			st.Resident++
			b := e.bytes()
			st.ResidentBytes += b
			if st.ResidentBytesByPrecision == nil {
				st.ResidentBytesByPrecision = make(map[string]int64, 2)
			}
			st.ResidentBytesByPrecision[e.gen.srv.Precision().String()] += b
		case e.draining:
			st.Draining++
		}
	}
	return st
}

// List returns the status of every entry (including tombstones), sorted
// order unspecified.
func (r *Registry) List() []MatrixStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]MatrixStatus, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, r.statusLocked(e))
	}
	return out
}

// Resident returns the ids of all resident matrices (the set /metrics
// renders serve snapshots for) paired with their servers' snapshots.
func (r *Registry) Resident() []ResidentSnapshot {
	type idSrv struct {
		id  string
		srv *serve.Server
	}
	r.mu.Lock()
	var ents []idSrv
	for _, e := range r.entries {
		if e.state == stateResident || e.draining {
			// The server pointer is captured under the lock (e.gen is
			// swappable by UpdateValues); a generation that dies after
			// this still answers Snapshot — it only reads atomics.
			ents = append(ents, idSrv{e.id, e.gen.srv})
		}
	}
	r.mu.Unlock()
	out := make([]ResidentSnapshot, 0, len(ents))
	for _, e := range ents {
		out = append(out, ResidentSnapshot{ID: e.id, Serve: e.srv.Snapshot()})
	}
	return out
}

// ResidentSnapshot pairs a matrix id with its server's metrics snapshot.
type ResidentSnapshot struct {
	ID    string         `json:"id"`
	Serve serve.Snapshot `json:"serve"`
}

// Close shuts the registry down: no new Registers or Acquires are
// admitted, every resident server is closed (after outstanding handles
// release), and Close blocks until in-flight builds and drains finish.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		// Wait for the first Close to finish the drain, then return.
		for r.liveRefs() > 0 {
			r.cond.Wait()
		}
		r.mu.Unlock()
		r.wg.Wait()
		return
	}
	r.closed = true
	var toClose []*serve.Server
	for _, e := range r.entries {
		if e.state == stateResident {
			if srv := r.evictLocked(e); srv != nil {
				toClose = append(toClose, srv)
			}
		}
	}
	for r.liveRefs() > 0 {
		r.cond.Wait()
	}
	r.mu.Unlock()
	for _, srv := range toClose {
		srv.Close()
	}
	r.wg.Wait()
}

// liveRefs counts outstanding handles across all entries (r.mu held).
func (r *Registry) liveRefs() int {
	n := 0
	for _, e := range r.entries {
		n += e.refs
	}
	return n
}
