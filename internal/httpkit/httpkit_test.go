package httpkit

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// TestReadBodyLimit pins the body reader: a body of exactly the limit
// passes, one byte more is a 413 naming the layer, the body and the limit,
// and a read error is a 400. The daemon's and the router's packages pin
// their own error texts.
func TestReadBodyLimit(t *testing.T) {
	const limit = 8
	for _, tc := range []struct {
		name string
		body io.Reader
		code int // 0: the body comes back
		text string
	}{
		{"at the limit", strings.NewReader("12345678"), 0, ""},
		{"one past the limit", strings.NewReader("123456789"), http.StatusRequestEntityTooLarge, "edge: ingest body exceeds 8 bytes"},
		{"read error", io.MultiReader(strings.NewReader("123"), iotest.ErrReader(errors.New("connection reset"))), http.StatusBadRequest, "edge: reading ingest body: connection reset"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			body, ok := ReadBody(rec, tc.body, "edge", "ingest", limit)
			if tc.code == 0 {
				if !ok || string(body) != "12345678" {
					t.Fatalf("body %q ok %v, want the whole body", body, ok)
				}
				return
			}
			var e ErrorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatal(err)
			}
			if ok || rec.Code != tc.code || e.Error != tc.text {
				t.Fatalf("ok %v, %d %q; want %d %q", ok, rec.Code, e.Error, tc.code, tc.text)
			}
		})
	}
}

// TestReadBodyIgnoresContentLength: the buffer grows only as body bytes
// arrive, so a request that claims the whole limit in its Content-Length
// and sends a few bytes costs a few bytes, not the claim.
func TestReadBodyIgnoresContentLength(t *testing.T) {
	const limit = 256 << 20
	req := httptest.NewRequest(http.MethodPost, "/", strings.NewReader("123"))
	req.ContentLength = limit
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	body, ok := ReadBody(httptest.NewRecorder(), req.Body, "edge", "solve", limit)
	runtime.ReadMemStats(&after)
	if !ok || string(body) != "123" {
		t.Fatalf("body %q ok %v, want %q", body, ok, "123")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("reading a 3-byte body that claims %d bytes allocated %d bytes", limit, grew)
	}
}

// TestSetRetryAfter: whole seconds, rounded up, never below 1.
func TestSetRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{
		{0, "1"}, {time.Nanosecond, "1"}, {600 * time.Millisecond, "1"}, {time.Second, "1"},
		{1500 * time.Millisecond, "2"}, {3 * time.Second, "3"},
	} {
		rec := httptest.NewRecorder()
		SetRetryAfter(rec, tc.d)
		if got := rec.Header().Get("Retry-After"); got != tc.want {
			t.Errorf("SetRetryAfter(%v) = %q, want %q", tc.d, got, tc.want)
		}
	}
}

// TestPage pins the exposition: HELP/TYPE once per family, %d for
// integers and %g for floats, and label values escaped as the text
// format defines — \\, \" and \n only, other bytes raw, invalid UTF-8 as
// U+FFFD.
func TestPage(t *testing.T) {
	var p Page
	Single(&p, "a_total", "counter", "Integers.", uint64(1_000_000))
	Single(&p, "b", "gauge", "Floats.", float64(1_000_000))
	p.Family("c", "gauge", "Labels.")
	Sample(&p, "c", 0.75, "k", "q\"b\\n\nt\tü\xffz", "l", "")
	rec := httptest.NewRecorder()
	p.Serve(rec)
	want := "# HELP a_total Integers.\n# TYPE a_total counter\na_total 1000000\n" +
		"# HELP b Floats.\n# TYPE b gauge\nb 1e+06\n" +
		"# HELP c Labels.\n# TYPE c gauge\n" +
		"c{k=\"q\\\"b\\\\n\\nt\tü�z\",l=\"\"} 0.75\n"
	if got := rec.Body.String(); got != want {
		t.Fatalf("page:\n%q\nwant\n%q", got, want)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type %q", ct)
	}
}
