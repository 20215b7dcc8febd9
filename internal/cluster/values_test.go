package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"testing"
	"time"

	"sptrsv/internal/mesh"
	"sptrsv/internal/registry"
	"sptrsv/internal/sparse"
	"sptrsv/internal/transport"
)

// getValuesFrom fetches /v1/matrix/{id}/values from base and decodes it;
// a non-200 returns nil values plus the status code.
func getValuesFrom(t *testing.T, base, id string) ([]float64, int) {
	t.Helper()
	resp, err := http.Get(base + "/v1/matrix/" + id + "/values")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode
	}
	blk, err := transport.DecodeBlock(body)
	if err != nil {
		t.Fatalf("decoding values from %s: %v", base, err)
	}
	return blk.Data, resp.StatusCode
}

// putValuesTo PUTs a values vector to base and returns the response with
// its body preserved.
func putValuesTo(t *testing.T, base, id string, vals []float64) (*http.Response, []byte) {
	t.Helper()
	blk := sparse.NewBlock(len(vals), 1)
	copy(blk.Data, vals)
	req, err := http.NewRequest(http.MethodPut, base+"/v1/matrix/"+id+"/values",
		bytes.NewReader(transport.EncodeBlock(nil, blk)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, body
}

// referenceSolveScaled computes the ground-truth answer for a grid2d
// matrix after a streaming update to the given values.
func referenceSolveScaled(t *testing.T, nx, ny int, vals []float64, rhs *sparse.Block) []float64 {
	t.Helper()
	reg := registry.New(registry.Config{})
	defer reg.Close()
	src, err := registry.Spec{Grid2D: fmt.Sprintf("%dx%d", nx, ny)}.Source()
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("ref", src); err != nil {
		t.Fatal(err)
	}
	h, err := reg.AcquireWait("ref", nil)
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	if err := reg.UpdateValues("ref", vals); err != nil {
		t.Fatal(err)
	}
	h, err = reg.Acquire("ref")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	want, err := h.Server().Solve(context.Background(), append([]float64(nil), rhs.Data...))
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestRouterValueUpdateFanOutAndRepairReplay: a routed value update
// reaches every replica (solves against the new values are bitwise
// identical to the in-process reference), and the repair path replays
// the latest values — not just the original ingest body — at a replica
// that lost its state.
func TestRouterValueUpdateFanOutAndRepairReplay(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	ing := tc.ingest(t, "g", `{"grid2d":"9x9"}`)

	base, code := getValuesFrom(t, tc.srv.URL, "g")
	if code != http.StatusOK {
		t.Fatalf("routed GET values: %d", code)
	}
	scaled := make([]float64, len(base))
	for i, v := range base {
		scaled[i] = 2 * v
	}

	resp, body := putValuesTo(t, tc.srv.URL, "g", scaled)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed value update: %d (%s), want 200", resp.StatusCode, body)
	}
	var out clusterIngest
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	for b, st := range out.Statuses {
		if st != "resident" {
			t.Fatalf("replica %s after value update: %q", b, st)
		}
	}

	rhs := mesh.RandomRHS(81, 1, 17)
	want := referenceSolveScaled(t, 9, 9, scaled, rhs)
	got, _ := tc.solve(t, "g", rhs)
	assertBitwise(t, want, got, "routed solve after value update")

	// Wipe the preferred replica behind the router's back; the triggered
	// repair must bring it back with the UPDATED values.
	victim := ing.Replicas[0]
	req, _ := http.NewRequest(http.MethodDelete, victim+"/v1/matrix/g", nil)
	if dresp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		dresp.Body.Close()
	}
	got, _ = tc.solve(t, "g", rhs)
	assertBitwise(t, want, got, "routed solve past amnesiac replica")

	deadline := time.Now().Add(10 * time.Second)
	for {
		vals, code := getValuesFrom(t, victim, "g")
		if code == http.StatusOK && slices.Equal(vals, scaled) {
			break
		}
		if time.Now().After(deadline) {
			if code != http.StatusOK {
				t.Fatalf("victim never repaired (last status %d)", code)
			}
			t.Fatal("victim repaired with stale values — repair did not replay the update")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRouterValueUpdatePartial: with one of two replicas dead, a value
// update reports partial success (202 + error detail) and the survivor
// serves the new values.
func TestRouterValueUpdatePartial(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	tc.ingest(t, "g", `{"grid2d":"9x9"}`)
	base, _ := getValuesFrom(t, tc.srv.URL, "g")
	scaled := make([]float64, len(base))
	for i, v := range base {
		scaled[i] = 3 * v
	}

	for _, b := range tc.backends {
		b.kill()
		defer b.revive()
		break
	}
	resp, body := putValuesTo(t, tc.srv.URL, "g", scaled)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("partial value update: %d (%s), want 202", resp.StatusCode, body)
	}
	var out clusterIngest
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Error == "" {
		t.Fatalf("partial value update carries no error detail: %s", body)
	}
	if tc.rt.met.valueUpdPrt.Load() != 1 {
		t.Fatal("partial value-update counter did not move")
	}

	rhs := mesh.RandomRHS(81, 1, 23)
	want := referenceSolveScaled(t, 9, 9, scaled, rhs)
	got, _ := tc.solve(t, "g", rhs)
	assertBitwise(t, want, got, "solve at reduced redundancy after value update")

	// An update for an unrouted id is a 404, not a hang.
	if resp, _ := putValuesTo(t, tc.srv.URL, "nope", scaled); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("value update for unrouted id: %d, want 404", resp.StatusCode)
	}
}
