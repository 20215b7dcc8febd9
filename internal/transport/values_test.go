package transport

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"sptrsv/internal/registry"
	"sptrsv/internal/sparse"
)

// putValues PUTs one nnz×1 binary block of values and returns the
// response with its body preserved for inspection.
func putValues(t *testing.T, ts *httptest.Server, id string, vals []float64) *http.Response {
	t.Helper()
	blk := sparse.NewBlock(len(vals), 1)
	copy(blk.Data, vals)
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/matrix/"+id+"/values",
		bytes.NewReader(EncodeBlock(nil, blk)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp
}

func getValues(t *testing.T, ts *httptest.Server, id string) ([]float64, *http.Response) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/matrix/" + id + "/values")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body = io.NopCloser(bytes.NewReader(body))
		return nil, resp
	}
	blk, err := DecodeBlock(body)
	if err != nil {
		t.Fatalf("decoding values response: %v", err)
	}
	if blk.M != 1 {
		t.Fatalf("values response has %d columns, want 1", blk.M)
	}
	return blk.Data, resp
}

// TestValuesRoundTripAndSwap drives the streaming-update path over HTTP:
// GET the resident values, scale them, PUT them back, and check the
// swap is visible — generation bumped in the status JSON, GET returns
// the new values, and a solve against the updated matrix is bitwise
// identical to a direct solve through the swapped-in server.
func TestValuesRoundTripAndSwap(t *testing.T) {
	ts, reg := newTestStack(t, "g", 9, 9, registry.Config{})

	h, err := reg.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(h.Matrix().Val)
	n := h.Matrix().N
	h.Release()

	got, _ := getValues(t, ts, "g")
	if !slices.Equal(got, want) {
		t.Fatal("GET values does not match the resident matrix values")
	}

	scaled := make([]float64, len(want))
	for i, v := range want {
		scaled[i] = 2 * v
	}
	resp := putValues(t, ts, "g", scaled)
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("PUT values: %d %s", resp.StatusCode, b)
	}
	var st struct {
		Generation int `json:"generation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Generation != 2 {
		t.Fatalf("generation after swap = %d, want 2", st.Generation)
	}
	if got, _ := getValues(t, ts, "g"); !slices.Equal(got, scaled) {
		t.Fatal("GET values after swap does not return the new values")
	}

	// HTTP solve against the swapped matrix == direct solve on the
	// swapped-in server (the stack's standing bitwise contract).
	rhs := sparse.NewBlock(n, 1)
	for i := range rhs.Data {
		rhs.Data[i] = float64(i%7) - 3
	}
	x, hr := doSolve(t, ts, "g", rhs, "")
	if x == nil {
		t.Fatalf("solve after swap: HTTP %d", hr.StatusCode)
	}
	nh, err := reg.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	defer nh.Release()
	direct, err := nh.Server().Solve(t.Context(), rhs.Data)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(x.Data, direct) {
		t.Fatal("HTTP solve after swap is not bitwise identical to the direct solve")
	}

	// The refactorization shows up in /metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mb), "sptrsv_refactorize_total 1") {
		t.Fatalf("metrics missing sptrsv_refactorize_total 1:\n%s", mb)
	}
	if !strings.Contains(string(mb), "sptrsv_refactorize_swap_latency_seconds") {
		t.Fatal("metrics missing sptrsv_refactorize_swap_latency_seconds")
	}
}

// TestValuesErrorMapping pins the HTTP codes for the values endpoints
// and the re-register options conflict.
func TestValuesErrorMapping(t *testing.T) {
	ts, _ := newTestStack(t, "g", 9, 9, registry.Config{})

	if _, resp := getValues(t, ts, "nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET values for unknown id: %d, want 404", resp.StatusCode)
	}
	if resp := putValues(t, ts, "nope", []float64{1}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("PUT values for unknown id: %d, want 404", resp.StatusCode)
	}

	// Wrong-length payload → *registry.ValuesError → 400.
	if resp := putValues(t, ts, "g", []float64{1, 2, 3}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short values payload: %d, want 400", resp.StatusCode)
	}

	// A NaN value → *registry.ValuesError before any numeric work → 400;
	// an indefinite value set → dense.ErrNotPD from the refactorization →
	// 400. Neither reaches the swap.
	vals, _ := getValues(t, ts, "g")
	nan := slices.Clone(vals)
	nan[len(nan)/2] = math.NaN()
	negated := slices.Clone(vals)
	for i := range negated {
		negated[i] = -negated[i]
	}
	for _, bad := range []struct {
		what string
		vals []float64
	}{{"NaN", nan}, {"indefinite", negated}} {
		if resp := putValues(t, ts, "g", bad.vals); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s values payload: %d, want 400", bad.what, resp.StatusCode)
		}
	}
	if after, _ := getValues(t, ts, "g"); !slices.Equal(after, vals) {
		t.Fatal("a rejected values payload changed the served values")
	}

	// A multi-column block is not a values vector → 400.
	blk := sparse.NewBlock(len(vals)/2, 2)
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/matrix/g/values",
		bytes.NewReader(EncodeBlock(nil, blk)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("2-column values payload: %d, want 400", resp.StatusCode)
	}

	// Re-register with conflicting build options → ErrOptionsConflict →
	// 409 (the singleflight regression surfaced over HTTP).
	creq, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/matrix/g",
		strings.NewReader(`{"grid2d":"9x9","precision":"mixed"}`))
	creq.Header.Set("Content-Type", "application/json")
	cresp, err := http.DefaultClient.Do(creq)
	if err != nil {
		t.Fatal(err)
	}
	cb, _ := io.ReadAll(cresp.Body)
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting re-register: %d %s, want 409", cresp.StatusCode, cb)
	}
}
