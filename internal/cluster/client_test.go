package cluster

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// fakeSleeper records requested backoff sleeps instead of waiting, so
// the retry schedule is asserted, not timed.
type fakeSleeper struct {
	slept []time.Duration
}

func (f *fakeSleeper) sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	f.slept = append(f.slept, d)
	return nil
}

// scriptedServer answers each request from a scripted (status,
// retryAfter) sequence, repeating the last step once the script runs
// out.
func scriptedServer(t *testing.T, script []struct {
	status     int
	retryAfter string
}) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		i := int(calls.Add(1)) - 1
		if i >= len(script) {
			i = len(script) - 1
		}
		if script[i].retryAfter != "" {
			w.Header().Set("Retry-After", script[i].retryAfter)
		}
		w.WriteHeader(script[i].status)
		io.WriteString(w, http.StatusText(script[i].status))
	}))
	t.Cleanup(srv.Close)
	return srv, &calls
}

func getReq(target string) (*http.Request, error) {
	return http.NewRequest(http.MethodGet, target+"/v1/solve/x", nil)
}

// TestClientRetryTable is the retry-policy contract, table-driven: what
// each failure class does to the attempt sequence and the backoff
// schedule.
func TestClientRetryTable(t *testing.T) {
	type step struct {
		status     int
		retryAfter string
	}
	cases := []struct {
		name         string
		script       []step // one backend's scripted responses
		maxAttempts  int
		wantStatus   int // final response status, 0 when an error is expected
		wantAttempts int
		wantSlept    []time.Duration // exact backoff sleeps requested
		wantExhaust  bool
		wantCause    int // StatusError code inside the ExhaustedError
	}{
		{
			name:         "503 with Retry-After waits then succeeds",
			script:       []step{{503, "2"}, {200, ""}},
			wantStatus:   200,
			wantAttempts: 2,
			wantSlept:    []time.Duration{2 * time.Second},
		},
		{
			name:         "503 without Retry-After backs off by the base",
			script:       []step{{503, ""}, {200, ""}},
			wantStatus:   200,
			wantAttempts: 2,
			wantSlept:    []time.Duration{baseBackoff}, // max(base, cycle-1 backoff jittered at 1.0→base)
		},
		{
			name:         "429 honors Retry-After",
			script:       []step{{429, "1"}, {200, ""}},
			wantStatus:   200,
			wantAttempts: 2,
			wantSlept:    []time.Duration{1 * time.Second},
		},
		{
			name:         "Retry-After capped by MaxRetryAfter",
			script:       []step{{503, "3600"}, {200, ""}},
			wantStatus:   200,
			wantAttempts: 2,
			wantSlept:    []time.Duration{5 * time.Second},
		},
		{
			name:         "budget exhaustion returns typed error wrapping last cause",
			script:       []step{{503, "1"}},
			maxAttempts:  3,
			wantAttempts: 3,
			wantExhaust:  true,
			wantCause:    503,
		},
		{
			name:         "410 on a single target exhausts without sleeping on the last attempt",
			script:       []step{{410, ""}},
			maxAttempts:  2,
			wantAttempts: 2,
			wantExhaust:  true,
			wantCause:    410,
			wantSlept:    []time.Duration{baseBackoff}, // cycle backoff only (single target)
		},
		{
			name:         "4xx is terminal, not retried",
			script:       []step{{400, ""}},
			wantStatus:   400,
			wantAttempts: 1,
		},
		{
			name:         "502 is terminal, not retried",
			script:       []step{{502, ""}},
			wantStatus:   502,
			wantAttempts: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			script := make([]struct {
				status     int
				retryAfter string
			}, len(tc.script))
			for i, s := range tc.script {
				script[i] = struct {
					status     int
					retryAfter string
				}{s.status, s.retryAfter}
			}
			srv, calls := scriptedServer(t, script)
			fs := &fakeSleeper{}
			c := &Client{
				MaxAttempts: tc.maxAttempts,
				jitter:      func() float64 { return 1.0 }, // backoff = full bound, deterministic
				sleep:       fs.sleep,
			}
			res, err := c.Do(context.Background(), []string{srv.URL}, getReq)
			if tc.wantExhaust {
				var ee *ExhaustedError
				if !errors.As(err, &ee) {
					t.Fatalf("want *ExhaustedError, got %v", err)
				}
				if ee.Attempts != tc.wantAttempts {
					t.Fatalf("attempts = %d, want %d", ee.Attempts, tc.wantAttempts)
				}
				var se *StatusError
				if !errors.As(ee, &se) || se.Code != tc.wantCause {
					t.Fatalf("want wrapped StatusError %d, got %v", tc.wantCause, ee.Err)
				}
			} else {
				if err != nil {
					t.Fatalf("Do: %v", err)
				}
				defer res.Resp.Body.Close()
				if res.Resp.StatusCode != tc.wantStatus {
					t.Fatalf("status = %d, want %d", res.Resp.StatusCode, tc.wantStatus)
				}
				if res.Attempts != tc.wantAttempts {
					t.Fatalf("attempts = %d, want %d", res.Attempts, tc.wantAttempts)
				}
			}
			if int(calls.Load()) != tc.wantAttempts {
				t.Fatalf("server saw %d calls, want %d", calls.Load(), tc.wantAttempts)
			}
			if tc.wantSlept != nil {
				if len(fs.slept) != len(tc.wantSlept) {
					t.Fatalf("sleeps = %v, want %v", fs.slept, tc.wantSlept)
				}
				for i := range fs.slept {
					if fs.slept[i] != tc.wantSlept[i] {
						t.Fatalf("sleep[%d] = %v, want %v", i, fs.slept[i], tc.wantSlept[i])
					}
				}
			}
		})
	}
}

// TestClient410ImmediateFailover pins the no-backoff failover: a 410
// from the first replica moves to the second with zero sleep.
func TestClient410ImmediateFailover(t *testing.T) {
	gone := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusGone)
	}))
	defer gone.Close()
	ok := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer ok.Close()

	fs := &fakeSleeper{}
	c := &Client{sleep: fs.sleep, jitter: func() float64 { return 1.0 }}
	res, err := c.Do(context.Background(), []string{gone.URL, ok.URL}, getReq)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	defer res.Resp.Body.Close()
	if res.Target != ok.URL || res.Attempts != 2 {
		t.Fatalf("answered by %s in %d attempts, want %s in 2", res.Target, res.Attempts, ok.URL)
	}
	if len(fs.slept) != 0 {
		t.Fatalf("410 failover slept %v, want no backoff", fs.slept)
	}
}

// TestClientConnectErrorFailover: a dead first replica (refused
// connection) fails over immediately within the first cycle.
func TestClientConnectErrorFailover(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(nil))
	deadURL := dead.URL
	dead.Close() // port now refuses
	ok := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer ok.Close()

	var attempts []Attempt
	fs := &fakeSleeper{}
	c := &Client{sleep: fs.sleep, OnAttempt: func(a Attempt) { attempts = append(attempts, a) }}
	res, err := c.Do(context.Background(), []string{deadURL, ok.URL}, getReq)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	defer res.Resp.Body.Close()
	if res.Target != ok.URL {
		t.Fatalf("answered by %s, want %s", res.Target, ok.URL)
	}
	if len(fs.slept) != 0 {
		t.Fatalf("first-cycle connect failover slept %v, want none", fs.slept)
	}
	if len(attempts) != 2 || attempts[0].Err == nil || !attempts[0].Connect {
		t.Fatalf("attempt log %+v: want a connect-classed failure then success", attempts)
	}
}

// TestClientContextCancelAbortsBackoff: cancellation mid-backoff ends
// the call promptly with the context error and the last backend cause
// both visible.
func TestClientContextCancelAbortsBackoff(t *testing.T) {
	srv, _ := scriptedServer(t, []struct {
		status     int
		retryAfter string
	}{{503, "5"}})
	c := &Client{MaxAttempts: 5} // real sleeper: the 5s Retry-After must be interrupted
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	t0 := time.Now()
	_, err := c.Do(ctx, []string{srv.URL}, getReq)
	if took := time.Since(t0); took > 2*time.Second {
		t.Fatalf("cancellation took %v to surface, want ≪ the 5s Retry-After", took)
	}
	var ee *ExhaustedError
	if !errors.As(err, &ee) {
		t.Fatalf("want *ExhaustedError, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Code != 503 {
		t.Fatalf("error %v does not wrap the last 503 cause", err)
	}
}

// TestClientDeadlineShortCircuitsSleep: when the remaining budget is
// smaller than the required wait, Do fails fast with the real cause
// instead of burning the budget asleep.
func TestClientDeadlineShortCircuitsSleep(t *testing.T) {
	srv, calls := scriptedServer(t, []struct {
		status     int
		retryAfter string
	}{{503, "5"}})
	c := &Client{MaxAttempts: 5}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err := c.Do(ctx, []string{srv.URL}, getReq)
	if took := time.Since(t0); took > time.Second {
		t.Fatalf("deadline-bounded Do took %v", took)
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Code != 503 {
		t.Fatalf("want the 503 cause preserved, got %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("server saw %d calls, want 1 (no budget to retry)", calls.Load())
	}
}

// TestClientAttemptTimeoutFailsOver: a stalled backend (accepts, never
// answers) is abandoned at AttemptTimeout and the request fails over.
func TestClientAttemptTimeoutFailsOver(t *testing.T) {
	stall := httptest.NewServer(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer stall.Close()
	ok := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer ok.Close()

	fs := &fakeSleeper{}
	c := &Client{AttemptTimeout: 100 * time.Millisecond, sleep: fs.sleep}
	res, err := c.Do(context.Background(), []string{stall.URL, ok.URL}, getReq)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	defer res.Resp.Body.Close()
	if res.Target != ok.URL || res.Attempts != 2 {
		t.Fatalf("answered by %s in %d attempts, want failover to %s", res.Target, res.Attempts, ok.URL)
	}
}

// TestClientNoTargets pins the degenerate call.
func TestClientNoTargets(t *testing.T) {
	c := &Client{}
	_, err := c.Do(context.Background(), nil, getReq)
	var ee *ExhaustedError
	if !errors.As(err, &ee) {
		t.Fatalf("want *ExhaustedError, got %v", err)
	}
}

// TestClientRetryOn pins the extra-status extension the router uses for
// 404 failover.
func TestClientRetryOn(t *testing.T) {
	notFound := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusNotFound)
	}))
	defer notFound.Close()
	ok := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer ok.Close()

	c := &Client{RetryOn: []int{http.StatusNotFound}, sleep: (&fakeSleeper{}).sleep}
	res, err := c.Do(context.Background(), []string{notFound.URL, ok.URL}, getReq)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	defer res.Resp.Body.Close()
	if res.Target != ok.URL {
		t.Fatalf("404 with RetryOn did not fail over (answered by %s)", res.Target)
	}

	// Without RetryOn the 404 is terminal.
	c2 := &Client{sleep: (&fakeSleeper{}).sleep}
	res2, err := c2.Do(context.Background(), []string{notFound.URL, ok.URL}, getReq)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	defer res2.Resp.Body.Close()
	if res2.Resp.StatusCode != http.StatusNotFound || res2.Attempts != 1 {
		t.Fatalf("default client retried a 404: %+v", res2)
	}
}
