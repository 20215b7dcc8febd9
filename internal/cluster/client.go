package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"
)

// This file is the retrying HTTP client the router (and the benchmark's
// load generator) speaks to backends with. It encodes the failover
// contract of the transport layer's typed-error → status mapping:
//
//	connect error  backend process is unreachable — fail over to the
//	               next target immediately (no backoff on the first
//	               pass: a replica is standing by).
//	410 Gone       the matrix was evicted on that backend — retrying it
//	               cannot help; fail over immediately, no backoff.
//	503            building/draining — honor Retry-After (the registry
//	               derives it from the build ETA), then try the next
//	               target: a 503 is usually matrix-wide (ingest fanned
//	               out to every replica at once), so hammering a
//	               different replica instantly just collects more 503s.
//	429            admission queue full — honor Retry-After, then fail
//	               over: the next replica may have headroom.
//
// Everything else (200, 4xx, 500, 502, 504) is returned to the caller:
// those outcomes are either success or deterministic — another attempt
// buys nothing.
//
// Once every target has been tried (one full cycle), capped exponential
// backoff with jitter applies between further attempts even for the
// "immediate failover" classes, so a fully dead cluster is retried
// politely instead of hot-looped. The caller's context is the budget:
// a sleep that would overrun the context deadline is not started, and
// cancellation mid-backoff aborts the call — retries never outlive the
// request.

// StatusError is a retryable HTTP response that the retry budget ran
// out on: the terminal cause inside an ExhaustedError when the last
// attempt drew a 503/429/410.
type StatusError struct {
	Target     string
	Code       int
	RetryAfter time.Duration // parsed Retry-After, 0 when absent
	Body       string        // first bytes of the response body
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("cluster: %s returned %d (%s)", e.Target, e.Code, e.Body)
}

// ExhaustedError is the typed terminal error of Do: the retry budget
// (attempts or context) ran out. Err wraps the last cause — a
// *StatusError for an HTTP-level failure, the transport error for a
// connect-level one, joined with the context error when the context
// ended the call.
type ExhaustedError struct {
	Attempts int
	Err      error
}

func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("cluster: retries exhausted after %d attempt(s): %v", e.Attempts, e.Err)
}

func (e *ExhaustedError) Unwrap() error { return e.Err }

// Attempt is one try's outcome, reported to the OnAttempt hook — the
// router feeds these into backend health and its metrics.
type Attempt struct {
	Target  string
	Status  int   // HTTP status, 0 on a transport-level failure
	Err     error // non-nil on a transport-level failure
	Connect bool  // connection-level failure (dial refused/reset, stalled attempt)
}

// retryableStatus is the built-in set of failover-worthy HTTP statuses.
func retryableStatus(code int) bool {
	return code == http.StatusServiceUnavailable ||
		code == http.StatusTooManyRequests || code == http.StatusGone
}

// retryable reports whether an attempt's outcome is one the client
// retries: any transport-level error, the built-in status set, or a
// status listed in RetryOn.
func (c *Client) retryable(a Attempt) bool {
	if a.Err != nil || retryableStatus(a.Status) {
		return true
	}
	for _, code := range c.RetryOn {
		if a.Status == code {
			return true
		}
	}
	return false
}

// Result is a successful Do: the final response and how hard it was to
// get.
type Result struct {
	Resp     *http.Response
	Target   string // the target that answered
	Attempts int    // total attempts, ≥ 1 (Attempts-1 were retried)
}

// Client is a retrying, failing-over HTTP client over an ordered target
// list. The zero value works; fields tune it. Safe for concurrent use.
type Client struct {
	// HTTP sends the individual attempts; nil means http.DefaultClient.
	HTTP *http.Client
	// MaxAttempts bounds total attempts across all targets; 0 means 4.
	MaxAttempts int
	// MaxRetryAfter caps an honored Retry-After header, so a confused
	// backend cannot park the client; 0 means 5s.
	MaxRetryAfter time.Duration
	// AttemptTimeout bounds a single attempt (dial through body headers);
	// an attempt that overruns is treated as a connect-class failure and
	// failed over — this is what turns a stalled backend into a replica
	// switch instead of a hang. 0 disables the per-attempt bound (the
	// caller's context still applies).
	AttemptTimeout time.Duration
	// RetryOn lists extra HTTP statuses to treat as retryable/failover-
	// worthy on top of the built-in 503/429/410 — the router adds 404
	// here, because a replica that was restarted (empty registry) answers
	// 404 for a matrix its siblings still hold.
	RetryOn []int
	// OnAttempt observes every attempt's outcome; nil is fine.
	OnAttempt func(Attempt)

	// sleep is the backoff sleeper, a test seam; nil means a real
	// context-aware sleep.
	sleep func(ctx context.Context, d time.Duration) error
	// jitter yields the [0,1) randomness that spreads backoff sleeps, a
	// test seam; nil means math/rand.
	jitter func() float64
}

// The capped exponential backoff: baseBackoff seeds it, maxBackoff caps
// one sleep.
const (
	baseBackoff = 50 * time.Millisecond
	maxBackoff  = 2 * time.Second
)

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) maxAttempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return 4
}

func (c *Client) maxRetryAfter() time.Duration {
	if c.MaxRetryAfter > 0 {
		return c.MaxRetryAfter
	}
	return 5 * time.Second
}

func (c *Client) doSleep(ctx context.Context, d time.Duration) error {
	if c.sleep != nil {
		return c.sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// errBodyMax bounds how much of a failed response body is kept for the
// error message.
const errBodyMax = 512

// Do runs build(target) against the targets in order, retrying and
// failing over per the policy above, and returns the first terminal
// response. The caller owns Result.Resp.Body. A nil error means an HTTP
// response was obtained (its status may still be 4xx/5xx outside the
// retryable set — routing that is the caller's business); the only
// error type Do returns is *ExhaustedError.
func (c *Client) Do(ctx context.Context, targets []string, build func(target string) (*http.Request, error)) (*Result, error) {
	if len(targets) == 0 {
		return nil, &ExhaustedError{Err: errors.New("cluster: no targets")}
	}
	max := c.maxAttempts()
	var lastErr error
	for attempt := 0; attempt < max; attempt++ {
		target := targets[attempt%len(targets)]
		a, resp, snippet := c.tryOnce(ctx, target, build)
		if c.OnAttempt != nil {
			c.OnAttempt(a)
		}
		if a.Err == nil && !c.retryable(a) {
			return &Result{Resp: resp, Target: target, Attempts: attempt + 1}, nil
		}
		// Retryable: capture the cause, compute the pre-retry wait.
		if a.Err != nil {
			if ctx.Err() != nil {
				// The caller's context ended — that is a budget exhaustion,
				// not a backend failure.
				return nil, &ExhaustedError{Attempts: attempt + 1, Err: joinCause(ctx.Err(), lastErr)}
			}
			lastErr = fmt.Errorf("cluster: %s: %w", target, a.Err)
		} else {
			lastErr = statusErrorFrom(target, resp, snippet, c.maxRetryAfter())
		}
		if attempt == max-1 {
			break // budget spent; no point computing a wait
		}
		wait := c.waitBefore(attempt+1, len(targets), lastErr)
		if wait > 0 {
			if deadline, ok := ctx.Deadline(); ok && time.Until(deadline) < wait {
				// Sleeping would overrun the caller's budget; stop now with
				// the real cause instead of a later DeadlineExceeded.
				return nil, &ExhaustedError{Attempts: attempt + 1, Err: lastErr}
			}
			if err := c.doSleep(ctx, wait); err != nil {
				return nil, &ExhaustedError{Attempts: attempt + 1, Err: joinCause(err, lastErr)}
			}
		}
	}
	return nil, &ExhaustedError{Attempts: max, Err: lastErr}
}

// tryOnce runs one attempt and classifies its outcome. On a retryable
// HTTP response the body is drained (up to errBodyMax, kept as the
// error snippet) and closed here; a terminal response is handed back
// open.
func (c *Client) tryOnce(ctx context.Context, target string, build func(string) (*http.Request, error)) (Attempt, *http.Response, string) {
	actx := ctx
	var cancel context.CancelFunc
	if c.AttemptTimeout > 0 {
		actx, cancel = context.WithTimeout(ctx, c.AttemptTimeout)
	}
	req, err := build(target)
	if err == nil {
		req = req.WithContext(actx)
		var resp *http.Response
		resp, err = c.httpClient().Do(req)
		if err == nil {
			a := Attempt{Target: target, Status: resp.StatusCode}
			if c.retryable(a) {
				snippet, _ := io.ReadAll(io.LimitReader(resp.Body, errBodyMax))
				resp.Body.Close()
				if cancel != nil {
					cancel()
				}
				return a, resp, string(snippet)
			}
			// Terminal: the caller reads the body; tie the attempt context's
			// lifetime to it so AttemptTimeout does not kill the read early
			// yet the context is not leaked.
			if cancel != nil {
				resp.Body = &cancelOnCloseBody{ReadCloser: resp.Body, cancel: cancel}
			}
			return a, resp, ""
		}
	}
	if cancel != nil {
		cancel()
	}
	// Transport-level failure. A stalled attempt (attempt context
	// expired, caller's still live) counts as connect-class: the backend
	// is wedged as far as failover is concerned.
	return Attempt{Target: target, Err: err, Connect: ctx.Err() == nil}, nil, ""
}

// cancelOnCloseBody releases the per-attempt context when the caller
// finishes the response body.
type cancelOnCloseBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelOnCloseBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// waitBefore computes the sleep before the given (0-based) next
// attempt. First cycle through the targets: connect errors and 410 fail
// over immediately, 503/429 honor Retry-After (or one base backoff when
// the header is absent). After a full cycle, capped exponential backoff
// with jitter applies as a floor to everything.
func (c *Client) waitBefore(nextAttempt, targets int, lastErr error) time.Duration {
	var wait time.Duration
	var se *StatusError
	if errors.As(lastErr, &se) && (se.Code == http.StatusServiceUnavailable || se.Code == http.StatusTooManyRequests) {
		wait = se.RetryAfter
		if wait <= 0 {
			wait = baseBackoff
		}
	}
	if nextAttempt >= targets {
		cycle := nextAttempt / targets // ≥ 1 here
		b := min(baseBackoff<<(cycle-1), maxBackoff)
		jitter := rand.Float64
		if c.jitter != nil {
			jitter = c.jitter
		}
		// Spread: [b/2, b).
		b = b/2 + time.Duration(jitter()*float64(b/2))
		if b > wait {
			wait = b
		}
	}
	return wait
}

// statusErrorFrom captures a retryable response as a *StatusError; the
// body snippet was drained by tryOnce before the body closed.
func statusErrorFrom(target string, resp *http.Response, snippet string, capRA time.Duration) *StatusError {
	se := &StatusError{Target: target, Code: resp.StatusCode, Body: snippet}
	if ra := parseRetryAfter(resp.Header.Get("Retry-After")); ra > 0 {
		if ra > capRA {
			ra = capRA
		}
		se.RetryAfter = ra
	}
	return se
}

// parseRetryAfter reads the delay-seconds form of Retry-After (the only
// form this stack emits); an HTTP-date or garbage reads as 0.
func parseRetryAfter(v string) time.Duration {
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	return 0
}

// joinCause pairs a context/budget error with the last backend cause so
// callers can errors.Is/As either.
func joinCause(budget, cause error) error {
	if cause == nil {
		return budget
	}
	return errors.Join(budget, cause)
}
