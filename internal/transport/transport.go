// Package transport is the network front end of the serving stack: an
// HTTP service over a registry of prepared systems (internal/registry),
// turning the in-process warm-solver server (internal/serve) into a
// daemon that can amortize one factorization across solve traffic from
// many remote clients — the paper's factor-once/solve-many economics,
// keyed by matrix id.
//
// Endpoints:
//
//	PUT  /v1/matrix/{id}   ingest: application/json mesh spec
//	                       ({"grid2d":"NXxNY"} | {"cube":N} |
//	                       {"problem":"NAME"}) or a Harwell-Boeing RSA
//	                       body with any other content type. Responds
//	                       202 while the background build runs; ?wait=1
//	                       blocks until the matrix is resident.
//	GET  /v1/matrix/{id}   lifecycle status (building/resident/…)
//	DELETE /v1/matrix/{id} evict (drains in-flight solves first)
//	PUT  /v1/matrix/{id}/values
//	                       streaming value update: an nnz×1 binary block
//	                       (codec.go) of new numeric values for the same
//	                       sparsity pattern. The factor is rebuilt on the
//	                       refactorization fast path (symbolic analysis
//	                       and solver schedule reused) and the warm server
//	                       hot-swapped; in-flight solves finish on the old
//	                       values. 409 on a pattern/options conflict.
//	GET  /v1/matrix/{id}/values
//	                       current values as an nnz×1 binary block (the
//	                       permuted matrix's column-compressed order —
//	                       the order PUT …/values expects)
//	POST /v1/solve/{id}    one solve: length-prefixed binary float64
//	                       block in, same format out (see codec.go).
//	                       Multi-RHS bodies fan out column-wise through
//	                       the coalescing server. ?timeout=DUR bounds
//	                       the solve; client disconnect cancels it.
//	GET  /v1/matrices      status of every registered matrix (JSON)
//	GET  /metrics          Prometheus text: per-matrix serve.Snapshot
//	                       plus registry gauges
//	GET  /healthz          liveness
//
// Error mapping: registry.ErrBuilding → 503 (with a Retry-After derived
// from the registry's build-time estimate, see Registry.BuildETA),
// registry.ErrNotFound → 404, registry.ErrEvicted → 410,
// *serve.OverloadError → 429 (Retry-After 1s),
// deadline/cancel → 504, a failed build → 502, solver rejection of the
// request shape → 400, an exhausted degradation ladder → 500,
// registry.ErrOptionsConflict and *chol.PatternError → 409, a values
// payload of the wrong length or with a non-finite value
// (*registry.ValuesError) or whose refactorization meets a pivot that is
// not positive and finite (dense.ErrNotPD) → 400.
package transport

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"sptrsv/internal/chol"
	"sptrsv/internal/dense"
	"sptrsv/internal/httpkit"
	"sptrsv/internal/native"
	"sptrsv/internal/prec"
	"sptrsv/internal/registry"
	"sptrsv/internal/serve"
	"sptrsv/internal/sparse"
)

// maxIngestBytes bounds a PUT body (Harwell-Boeing uploads).
const maxIngestBytes = 64 << 20

// maxSolveBytes bounds a POST /v1/solve body.
const maxSolveBytes = 256 << 20

// overloadRetryAfter is the Retry-After hint attached to 429 (admission
// queue full) and to 503s that carry no build estimate (draining, or a
// first-ever build with no duration history).
const overloadRetryAfter = time.Second

// Service serves HTTP over one registry.
type Service struct {
	reg *registry.Registry
	mux *http.ServeMux
}

// New builds the service and its routing table.
func New(reg *registry.Registry) *Service {
	s := &Service{reg: reg, mux: http.NewServeMux()}
	s.mux.HandleFunc("PUT /v1/matrix/{id}", s.handlePut)
	s.mux.HandleFunc("GET /v1/matrix/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/matrix/{id}", s.handleEvict)
	s.mux.HandleFunc("PUT /v1/matrix/{id}/values", s.handlePutValues)
	s.mux.HandleFunc("GET /v1/matrix/{id}/values", s.handleGetValues)
	s.mux.HandleFunc("POST /v1/solve/{id}", s.handleSolve)
	s.mux.HandleFunc("GET /v1/matrices", s.handleList)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", httpkit.Healthz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// ingestSpec is the JSON body of a mesh-spec PUT: a registry.Spec
// (grid2d | cube | problem) plus the matrix's precision policy.
type ingestSpec struct {
	registry.Spec
	// Precision names the precision policy for this matrix's server
	// (float64 | mixed | auto); empty keeps the daemon's default. The
	// ?precision= query parameter is the equivalent for Harwell-Boeing
	// uploads (and overrides nothing when the JSON field is set).
	Precision string `json:"precision,omitempty"`
}

// sourceFor translates one ingest request body into a registry Source
// plus the requested precision policy ("" = daemon default). Fields and
// query parameters it does not name — the "strategy" and "kernel" of
// older clients and replayed ingests — are ignored.
func sourceFor(r *http.Request, body []byte) (registry.Source, string, error) {
	precision := r.URL.Query().Get("precision")
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	if strings.TrimSpace(ct) != "application/json" {
		// Anything non-JSON is a Harwell-Boeing upload.
		src, err := registry.HarwellBoeingSource(body)
		return src, precision, err
	}
	var spec ingestSpec
	if err := json.Unmarshal(body, &spec); err != nil {
		return nil, "", fmt.Errorf("transport: bad ingest spec: %w", err)
	}
	if spec.Precision != "" {
		precision = spec.Precision
	}
	src, err := spec.Source()
	return src, precision, err
}

func (s *Service) handlePut(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	body, ok := httpkit.ReadBody(w, r.Body, "transport", "ingest", maxIngestBytes)
	if !ok {
		return
	}
	src, precision, err := sourceFor(r, body)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err, id)
		return
	}
	var opts registry.BuildOptions
	if precision != "" {
		pol, perr := prec.ParsePolicy(precision)
		if perr != nil {
			s.httpError(w, http.StatusBadRequest, perr, id)
			return
		}
		opts.Precision = &pol
	}
	if err = s.reg.RegisterWith(id, src, opts); err != nil {
		s.httpError(w, statusFor(err), err, id)
		return
	}
	if httpkit.WantWait(r.URL.Query().Get("wait")) {
		h, err := s.reg.AcquireWait(id, r.Context().Done())
		if err != nil {
			s.httpError(w, statusFor(err), err, id)
			return
		}
		h.Release()
	}
	st, err := s.reg.Status(id)
	if err != nil {
		s.httpError(w, statusFor(err), err, id)
		return
	}
	code := http.StatusAccepted
	if st.State == "resident" {
		code = http.StatusOK
	}
	httpkit.WriteJSON(w, code, st)
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, err := s.reg.Status(id)
	if err != nil {
		s.httpError(w, statusFor(err), err, id)
		return
	}
	httpkit.WriteJSON(w, http.StatusOK, st)
}

func (s *Service) handleEvict(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.reg.Evict(id); err != nil {
		s.httpError(w, statusFor(err), err, id)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Service) handlePutValues(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	body, ok := httpkit.ReadBody(w, r.Body, "transport", "values", maxIngestBytes)
	if !ok {
		return
	}
	b, err := DecodeBlock(body)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err, id)
		return
	}
	if b.M != 1 {
		s.httpError(w, http.StatusBadRequest,
			fmt.Errorf("transport: values body must be an nnz×1 block, got %d columns", b.M), id)
		return
	}
	if err := s.reg.UpdateValues(id, b.Data); err != nil {
		s.httpError(w, statusFor(err), err, id)
		return
	}
	st, err := s.reg.Status(id)
	if err != nil {
		s.httpError(w, statusFor(err), err, id)
		return
	}
	httpkit.WriteJSON(w, http.StatusOK, st)
}

func (s *Service) handleGetValues(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	h, err := s.reg.Acquire(id)
	if err != nil {
		s.httpError(w, statusFor(err), err, id)
		return
	}
	vals := h.Matrix().Val
	blk := sparse.NewBlock(len(vals), 1)
	copy(blk.Data, vals)
	h.Release()
	writeBlock(w, blk)
}

// writeBlock answers 200 with b in the wire format (codec.go).
func writeBlock(w http.ResponseWriter, b *sparse.Block) {
	writeBody(w, EncodeBlock(make([]byte, 0, blockHeaderLen+len(b.Data)*8), b))
}

// octetStream is the Content-Type of every block reply, shared so a
// reply does not allocate it.
var octetStream = []string{"application/octet-stream"}

// writeBody answers 200 with an encoded block.
func writeBody(w http.ResponseWriter, out []byte) {
	h := w.Header()
	h["Content-Type"] = octetStream
	h.Set("Content-Length", strconv.Itoa(len(out)))
	w.WriteHeader(http.StatusOK)
	w.Write(out)
}

func (s *Service) handleList(w http.ResponseWriter, _ *http.Request) {
	httpkit.WriteJSON(w, http.StatusOK, s.reg.List())
}

func (s *Service) handleSolve(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Read and decode the body before touching the registry: acquiring
	// the handle first would pin the entry — stalling eviction and Close
	// drain — for as long as a slow client takes to upload up to
	// maxSolveBytes. The body buffer is pooled and carries the reply
	// back out, which is exactly as long as the request body.
	buf := httpkit.GetBuffer()
	defer httpkit.PutBuffer(buf)
	body, ok := httpkit.ReadBodyInto(w, r.Body, buf, "transport", "solve", maxSolveBytes)
	if !ok {
		return
	}
	n, m, payload, err := parseBlock(body)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err, id)
		return
	}

	// The request context is the deadline carrier: it already ends on
	// client disconnect, and ?timeout=DUR tightens it. serve.Server
	// observes it per right-hand side.
	ctx := r.Context()
	if r.URL.RawQuery != "" {
		if tq := r.URL.Query().Get("timeout"); tq != "" {
			d, err := time.ParseDuration(tq)
			if err != nil || d <= 0 {
				s.httpError(w, http.StatusBadRequest, fmt.Errorf("transport: bad timeout %q", tq), id)
				return
			}
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, d)
			defer cancel()
		}
	}

	h, err := s.reg.Acquire(id)
	if err != nil {
		s.httpError(w, statusFor(err), err, id)
		return
	}
	defer h.Release()

	// One upfront shape check against the acquired matrix: without it a
	// mismatched multi-RHS body would fan out M goroutines that each get
	// rejected individually — inflating the rejected_invalid counter by M
	// for one bad request.
	if want := h.Matrix().N; n != want {
		err := &native.DimensionError{What: "RHS rows", Got: n, Want: want}
		s.httpError(w, statusFor(err), err, id)
		return
	}

	srv := h.Server()
	if m == 1 {
		x, err := solveColumn(ctx, srv, payload, n, m, 0)
		if err != nil {
			s.httpError(w, statusFor(err), err, id)
			return
		}
		*buf = appendColumns((*buf)[:0], n, [][]float64{*x})
		putVec(x)
		writeBody(w, *buf)
		return
	}
	xs, err := solveColumns(ctx, srv, payload, n, m)
	cols := make([][]float64, 0, m)
	for _, x := range xs {
		if x != nil {
			cols = append(cols, *x)
			defer putVec(x)
		}
	}
	if err != nil {
		s.httpError(w, statusFor(err), err, id)
		return
	}
	*buf = appendColumns((*buf)[:0], n, cols)
	writeBody(w, *buf)
}

// solveColumns fans the m columns of a multi-RHS payload out
// concurrently, so they coalesce back into one warm sweep inside the
// server, and returns each column's answer vector (nil where its solve
// failed) and the first error. The first failed column cancels its
// siblings — the handler is going to report that error whatever the
// survivors do, so letting them run only burns batch width (amplifying
// 429s under overload).
func solveColumns(ctx context.Context, srv *serve.Server, payload []byte, n, m int) ([]*[]float64, error) {
	xs := make([]*[]float64, m)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for j := range xs {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			x, err := solveColumn(ctx, srv, payload, n, m, j)
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
					cancel()
				}
				errMu.Unlock()
				return
			}
			xs[j] = x
		}(j)
	}
	wg.Wait()
	return xs, firstErr
}

// solveColumn decodes column j of an n×m payload into a pooled vector
// and answers it into another through SolveInto, returning the answer's
// vector. A column whose solve was cancelled leaves both vectors to the
// collector: the server may still be reading the one and writing the
// other.
func solveColumn(ctx context.Context, srv *serve.Server, payload []byte, n, m, j int) (*[]float64, error) {
	rhs, x := getVec(n), getVec(n)
	decodeColumn(*rhs, payload, m, j)
	err := srv.SolveInto(ctx, *rhs, *x)
	if err != nil && isCancelled(err) {
		return nil, err
	}
	putVec(rhs)
	if err != nil {
		putVec(x)
		return nil, err
	}
	return x, nil
}

func isCancelled(err error) bool {
	var ce *native.CancelledError
	return errors.As(err, &ce)
}

// statusFor maps the serving stack's typed errors onto HTTP status
// codes.
func statusFor(err error) int {
	var (
		oe *serve.OverloadError
		ce *native.CancelledError
		de *native.DimensionError
		be *registry.BuildError
		pe *chol.PatternError
		ve *registry.ValuesError
	)
	switch {
	case errors.Is(err, registry.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, registry.ErrEvicted):
		return http.StatusGone
	case errors.Is(err, registry.ErrBuilding):
		return http.StatusServiceUnavailable
	case errors.Is(err, registry.ErrOptionsConflict), errors.As(err, &pe):
		return http.StatusConflict
	case errors.As(err, &ve):
		return http.StatusBadRequest
	case errors.Is(err, registry.ErrClosed), errors.Is(err, serve.ErrServerClosed):
		return http.StatusServiceUnavailable
	case errors.As(err, &oe):
		return http.StatusTooManyRequests
	case errors.As(err, &ce):
		return http.StatusGatewayTimeout
	case errors.As(err, &de):
		return http.StatusBadRequest
	case errors.As(err, &be):
		return http.StatusBadGateway
	case errors.Is(err, dense.ErrNotPD):
		// Checked after *registry.BuildError: a build that fails on a
		// pivot stays a failed build (502); here the client's values did.
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// httpError writes the JSON error envelope. 503 and 429 responses carry
// an honest Retry-After: for a building matrix it is the registry's
// remaining-build estimate (smoothed past build durations minus elapsed
// time), so a client or the cluster router backing off by the header
// waits about as long as the build actually needs; everything else gets
// the overload hint.
func (s *Service) httpError(w http.ResponseWriter, code int, err error, id string) {
	if code == http.StatusServiceUnavailable || code == http.StatusTooManyRequests {
		ra := overloadRetryAfter
		if id != "" && errors.Is(err, registry.ErrBuilding) {
			if eta, ok := s.reg.BuildETA(id); ok && eta > 0 {
				ra = eta
			}
		}
		httpkit.SetRetryAfter(w, ra)
	}
	httpkit.WriteError(w, code, err)
}
