package transport

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"

	"sptrsv/internal/httpkit"
)

// TestReadBodyLimit pins the body reader as the ingest, values and solve
// handlers call it: a body of exactly the limit passes, one byte more is a
// 413 naming the daemon's layer, the body and the limit, and a read error
// is a 400.
func TestReadBodyLimit(t *testing.T) {
	const limit = 8
	for _, tc := range []struct {
		name string
		body io.Reader
		code int // 0: the body comes back
		text string
	}{
		{"at the limit", strings.NewReader("12345678"), 0, ""},
		{"one past the limit", strings.NewReader("123456789"), http.StatusRequestEntityTooLarge, "transport: solve body exceeds 8 bytes"},
		{"read error", io.MultiReader(strings.NewReader("123"), iotest.ErrReader(errors.New("connection reset"))), http.StatusBadRequest, "transport: reading solve body: connection reset"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			body, ok := httpkit.ReadBody(rec, tc.body, "transport", "solve", limit)
			if tc.code == 0 {
				if !ok || string(body) != "12345678" {
					t.Fatalf("body %q ok %v, want the whole body", body, ok)
				}
				return
			}
			var e httpkit.ErrorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatal(err)
			}
			if ok || rec.Code != tc.code || e.Error != tc.text {
				t.Fatalf("ok %v, %d %q; want %d %q", ok, rec.Code, e.Error, tc.code, tc.text)
			}
		})
	}
}
