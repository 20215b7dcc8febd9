package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/url"

	"sptrsv/internal/httpkit"
)

// This file routes streaming value updates (PUT /v1/matrix/{id}/values)
// across the replica set. The router stores the latest accepted values
// payload next to the ingest body, so a repaired or newly promoted
// replica is replayed up to the current numeric generation — re-ingest
// alone would resurrect the original values. The partial-failure
// semantics mirror ingest: every replica swapped → 200, some → 202 with
// a *PartialError detail, none → 502.

func (rt *Router) handleUpdateValues(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rt.met.valueUpds.Add(1)
	body, ok := httpkit.ReadBody(w, r.Body, "cluster", "values", maxProxyBytes)
	if !ok {
		return
	}

	rt.mu.Lock()
	m := rt.matrices[id]
	if m == nil {
		rt.mu.Unlock()
		httpkit.WriteError(w, http.StatusNotFound, fmt.Errorf("cluster: matrix %q not routed here", id))
		return
	}
	m.values = body
	replicas := append([]string(nil), m.replicas...)
	hot := m.hot
	rt.mu.Unlock()

	statuses, perr := rt.updateValuesAt(r.Context(), id, replicas, body)
	replyFanOut(w, clusterIngest{ID: id, Replicas: replicas, Hot: hot, Statuses: statuses}, perr, http.StatusOK, &rt.met.valueUpdPrt)
}

// updateValuesAt fans the values payload out to the given replicas. The
// per-replica retry client already backs off through a 503 (a replica
// mid-rebuild) with the backend's Retry-After.
func (rt *Router) updateValuesAt(ctx context.Context, id string, replicas []string, body []byte) (map[string]string, error) {
	return rt.fanOut(ctx, id, "value update", replicas, func(target string) (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPut,
			target+"/v1/matrix/"+url.PathEscape(id)+"/values", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		return req, nil
	}, func(code int, _ []byte) (string, bool) { return "resident", code == http.StatusOK })
}

// restoreAt brings one set of replicas fully up to date: re-ingest the
// stored body, then — when a streaming update has moved the values past
// the ingest baseline — wait for residency and replay the latest values.
// Used by repair and hot promotion.
func (rt *Router) restoreAt(ctx context.Context, id string, replicas []string) {
	var vals []byte // the latest accepted values payload, nil if none was routed
	rt.mu.Lock()
	if m := rt.matrices[id]; m != nil {
		vals = m.values
	}
	rt.mu.Unlock()
	wait := ""
	if vals != nil {
		// The replay below needs the rebuild finished, not just accepted.
		wait = "1"
	}
	rt.ingestAt(ctx, id, replicas, wait)
	if vals != nil {
		rt.updateValuesAt(ctx, id, replicas, vals)
	}
}
