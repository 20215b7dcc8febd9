package cluster

import (
	"sort"
	"sync"
	"time"
)

// This file is the per-backend health state machine the router routes
// by. Evidence comes from two directions: an active prober (the router
// GETs /healthz on a timer) and passive per-request outcomes reported by
// the retry client. The states:
//
//	up        healthy; first choice for traffic.
//	suspect   a recent failure; still served, but ranked behind up
//	          replicas so one blip does not blackhole a backend.
//	down      failThreshold consecutive failures; out of the rotation
//	          (used only when every replica of an id is down — trying a
//	          dead backend beats failing outright).
//	half-open down with the cooldown elapsed; ranked back into the
//	          rotation behind live replicas so the next probe or request
//	          decides: success returns it to up, failure sends it back
//	          to down with a fresh cooldown.
//
// Any success from any state resets the machine to up. The half-open
// re-entry is what makes a SIGKILLed-and-restarted backend heal without
// operator action.

// State is one backend's health position.
type State int

const (
	StateUp State = iota
	StateSuspect
	StateDown
	StateHalfOpen
)

func (s State) String() string {
	switch s {
	case StateUp:
		return "up"
	case StateSuspect:
		return "suspect"
	case StateDown:
		return "down"
	case StateHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// failThreshold is how many consecutive failures demote a backend from
// suspect to down. Connect errors count double — a refused connection is
// much stronger evidence of death than a 5xx.
const failThreshold = 3

// HealthConfig tunes the state machine. Zero values select defaults.
type HealthConfig struct {
	// DownCooldown is how long a down backend sits out before half-open
	// re-entry; 0 means 2s.
	DownCooldown time.Duration

	// now is the clock, replaceable by tests; nil means time.Now.
	now func() time.Time
}

func (c *HealthConfig) fill() {
	if c.DownCooldown <= 0 {
		c.DownCooldown = 2 * time.Second
	}
	if c.now == nil {
		c.now = time.Now
	}
}

// Health tracks the state of a fixed backend set. Safe for concurrent
// use.
type Health struct {
	cfg HealthConfig

	mu       sync.Mutex
	backends map[string]*backendHealth
}

type backendHealth struct {
	state State
	fails int       // consecutive failure weight since the last success
	since time.Time // when the current state was entered
}

// NewHealth starts every backend as up: the cluster gives a fresh (or
// restarted) backend the benefit of the doubt and lets evidence demote
// it.
func NewHealth(backends []string, cfg HealthConfig) *Health {
	cfg.fill()
	h := &Health{cfg: cfg, backends: make(map[string]*backendHealth, len(backends))}
	for _, b := range backends {
		h.backends[b] = &backendHealth{state: StateUp, since: cfg.now()}
	}
	return h
}

// ReportSuccess records a successful probe or request: the backend is
// up, whatever it was before.
func (h *Health) ReportSuccess(backend string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	bh := h.backends[backend]
	if bh == nil {
		return
	}
	if bh.state != StateUp {
		bh.since = h.cfg.now()
	}
	bh.state = StateUp
	bh.fails = 0
}

// ReportFailure records a failed probe or request. connect marks a
// connection-level failure (refused, reset, timeout dialing), which
// counts double: a process that is gone refuses instantly, and waiting
// out failThreshold singles would route doomed first-attempts at it for
// longer than necessary.
func (h *Health) ReportFailure(backend string, connect bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	bh := h.backends[backend]
	if bh == nil {
		return
	}
	now := h.cfg.now()
	weight := 1
	if connect {
		weight = 2
	}
	switch h.effectiveState(bh, now) {
	case StateUp:
		bh.state = StateSuspect
		bh.since = now
		bh.fails = weight
	case StateSuspect:
		bh.fails += weight
		if bh.fails >= failThreshold {
			bh.state = StateDown
			bh.since = now
		}
	case StateHalfOpen, StateDown:
		// A failed half-open trial (or a last-resort request into a down
		// backend) restarts the cooldown.
		bh.state = StateDown
		bh.since = now
	}
}

// effectiveState applies the time-driven down → half-open transition.
// Called with h.mu held.
func (h *Health) effectiveState(bh *backendHealth, now time.Time) State {
	if bh.state == StateDown && now.Sub(bh.since) >= h.cfg.DownCooldown {
		return StateHalfOpen
	}
	return bh.state
}

// State reports one backend's current state (StateDown for a backend
// the Health has never heard of).
func (h *Health) State(backend string) State {
	h.mu.Lock()
	defer h.mu.Unlock()
	bh := h.backends[backend]
	if bh == nil {
		return StateDown
	}
	return h.effectiveState(bh, h.cfg.now())
}

// Rank orders candidates for a request: up first, then suspect, then
// half-open, then down — preserving the input (ring preference) order
// within each class. Down backends are kept, last: when every replica
// of an id is dead, trying one is still better than refusing outright.
func (h *Health) Rank(candidates []string) []string {
	h.mu.Lock()
	now := h.cfg.now()
	classed := make([][]string, 4) // indexed by rank class
	for _, c := range candidates {
		class := StateDown
		if bh := h.backends[c]; bh != nil {
			class = h.effectiveState(bh, now)
		}
		idx := map[State]int{StateUp: 0, StateSuspect: 1, StateHalfOpen: 2, StateDown: 3}[class]
		classed[idx] = append(classed[idx], c)
	}
	h.mu.Unlock()
	out := make([]string, 0, len(candidates))
	for _, cl := range classed {
		out = append(out, cl...)
	}
	return out
}

// BackendHealth is one backend's externally visible health.
type BackendHealth struct {
	Backend          string    `json:"backend"`
	State            string    `json:"state"`
	ConsecutiveFails int       `json:"consecutive_fails"`
	Since            time.Time `json:"since"`
}

// Snapshot reports every backend's state, sorted by backend address.
func (h *Health) Snapshot() []BackendHealth {
	h.mu.Lock()
	now := h.cfg.now()
	out := make([]BackendHealth, 0, len(h.backends))
	for b, bh := range h.backends {
		out = append(out, BackendHealth{
			Backend:          b,
			State:            h.effectiveState(bh, now).String(),
			ConsecutiveFails: bh.fails,
			Since:            bh.since,
		})
	}
	h.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Backend < out[j].Backend })
	return out
}
