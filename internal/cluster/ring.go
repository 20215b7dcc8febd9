// Package cluster is the fault-tolerance tier of the serving stack: a
// router (cmd/solverouter) that spreads matrix ids across N solved
// backends with a consistent-hash ring, replicates each matrix on ≥ 2
// backends (more when the solves it routes for a matrix say it is hot),
// health-checks the backends, and retries/fails over on the typed
// error contract internal/transport already speaks over HTTP
// (503+Retry-After, 410, 429, connect errors). The paper's
// substitution algorithms assume every processor survives the sweep; a
// serving tier cannot — this package is where that assumption is
// dropped without losing a single answer.
//
// The pieces:
//
//   - Ring (ring.go): consistent hashing with virtual nodes, mapping a
//     matrix id to an ordered, distinct replica set.
//   - Health (health.go): per-backend state machine
//     up → suspect → down → half-open, driven by an active prober and
//     passive per-request outcomes.
//   - Client (client.go): a retrying HTTP client with capped
//     exponential backoff + jitter that honors Retry-After on 503/429,
//     fails over across targets on 503/410/connect errors, and never
//     outlives the caller's context budget.
//   - Router (router.go): the HTTP tier gluing the three together —
//     ingest fans out to all replicas, solve routes to the healthiest
//     replica and falls over on failure.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is a consistent-hash ring over a fixed set of backends. Each
// backend owns Vnodes points on the ring; a matrix id maps to the
// backends owning the first points at or after the id's hash, walking
// clockwise and skipping duplicates — so Replicas(id, n) is an ordered,
// distinct n-subset that barely changes when a backend joins or leaves.
// A Ring is immutable after New and safe for concurrent use.
type Ring struct {
	backends []string
	points   []ringPoint // sorted ascending by hash
}

// ringPoint is one virtual node: a position on the [0, 2^64) circle and
// the backend that owns it.
type ringPoint struct {
	hash    uint64
	backend int // index into backends
}

// DefaultVnodes is the virtual-node count per backend: enough that the
// arc lengths even out across a handful of backends, small enough that
// building the ring stays trivial.
const DefaultVnodes = 128

// NewRing builds a ring over the given backends. vnodes ≤ 0 selects
// DefaultVnodes. Backend order does not affect placement (only the
// hashes of the backend strings do), but duplicates are rejected —
// a doubled backend would silently own twice the ring.
func NewRing(backends []string, vnodes int) (*Ring, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("cluster: ring wants at least one backend")
	}
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	seen := make(map[string]bool, len(backends))
	for _, b := range backends {
		if b == "" {
			return nil, fmt.Errorf("cluster: empty backend address")
		}
		if seen[b] {
			return nil, fmt.Errorf("cluster: duplicate backend %q", b)
		}
		seen[b] = true
	}
	r := &Ring{
		backends: append([]string(nil), backends...),
		points:   make([]ringPoint, 0, len(backends)*vnodes),
	}
	for bi, b := range r.backends {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:    hash64(fmt.Sprintf("%s#%d", b, v)),
				backend: bi,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break identical hashes deterministically so placement does
		// not depend on sort stability.
		return r.points[i].backend < r.points[j].backend
	})
	return r, nil
}

// Backends returns the ring's backend set in construction order.
func (r *Ring) Backends() []string {
	return append([]string(nil), r.backends...)
}

// Replicas returns the first n distinct backends clockwise from id's
// hash, in preference order. n is clamped into [1, len(backends)].
func (r *Ring) Replicas(id string, n int) []string {
	if n < 1 {
		n = 1
	}
	if n > len(r.backends) {
		n = len(r.backends)
	}
	h := hash64(id)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	taken := make([]bool, len(r.backends))
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if taken[p.backend] {
			continue
		}
		taken[p.backend] = true
		out = append(out, r.backends[p.backend])
	}
	return out
}

// hash64 is FNV-1a with a splitmix64 finalizer. FNV alone clumps on the
// short, sequential vnode labels ("addr#0", "addr#1", ...), skewing arc
// ownership by >50%; the finalizer restores avalanche. Both stages are
// fixed functions — stable across processes and Go versions, which the
// multi-process cluster relies on: a restarted router must re-derive
// the same placement.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
