// Package httpkit is the HTTP edge the daemon (internal/transport) and
// the cluster router (internal/cluster) share: the size-limited body
// reader, the JSON reply and its {"error": …} envelope, ?wait= parsing,
// the Retry-After rule, /healthz, and the Prometheus text writer (page.go).
// It imports only the standard library, so both front ends can depend on
// it without depending on each other or on the solver stack.
package httpkit

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// ErrorBody is the JSON error envelope of every non-2xx reply the two
// front ends write themselves.
type ErrorBody struct {
	Error string `json:"error"`
}

// WriteJSON answers code with v encoded as JSON.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// WriteError answers code with err's text in the error envelope.
func WriteError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, ErrorBody{Error: err.Error()})
}

// ReadBody reads a request body of at most max bytes. A longer body is
// answered 413 and a read error 400, both naming the body as what under
// the caller's layer prefix ("transport", "cluster"), and ok is false.
func ReadBody(w http.ResponseWriter, r io.Reader, layer, what string, max int) (body []byte, ok bool) {
	body, err := io.ReadAll(io.LimitReader(r, int64(max)+1))
	switch {
	case err != nil:
		WriteError(w, http.StatusBadRequest, fmt.Errorf("%s: reading %s body: %w", layer, what, err))
	case len(body) > max:
		WriteError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("%s: %s body exceeds %d bytes", layer, what, max))
	default:
		return body, true
	}
	return nil, false
}

// WantWait reports whether a ?wait= value asks the ingest to block until
// the matrix is resident.
func WantWait(v string) bool {
	switch strings.ToLower(v) {
	case "1", "true", "yes":
		return true
	}
	return false
}

// SetRetryAfter sets the Retry-After header to d in whole seconds,
// rounded up and at least 1, so "600ms left" does not tell the client to
// come back instantly and draw another 503.
func SetRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := max(1, int64((d+time.Second-1)/time.Second))
	w.Header().Set("Retry-After", fmt.Sprint(secs))
}

// Healthz is the liveness handler: 200 "ok".
func Healthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}
