package native

import (
	"context"
	"errors"
	"fmt"

	"sptrsv/internal/chol"
	"sptrsv/internal/taskdag"
)

// This file defines the native engine's structured failure vocabulary.
// The design rule is the one production direct solvers follow: a solve
// either returns a provably good answer or a typed error promptly — never
// a hang (a wedged worker pool) and never silent garbage (a NaN solution
// with a success status).

// BreakdownError is the numerical-breakdown error shared with the
// sequential solver of package chol: a zero or non-finite pivot, or a
// non-finite entry found by the final solution scan, naming the supernode
// that produced it. Match with errors.As(err, *(*BreakdownError)).
type BreakdownError = chol.BreakdownError

// ErrClosed is the error every solve on a closed Solver returns — the
// deterministic plain error of the Close contract.
var ErrClosed = errors.New("native: solver is closed")

// DimensionError reports a request whose block shape does not match the
// factor. It is returned before any result storage or solver state is
// touched, so malformed requests cost a server nothing but this small
// error value.
type DimensionError struct {
	What      string // the dimension that was wrong (e.g. "RHS rows")
	Got, Want int
}

func (e *DimensionError) Error() string {
	return fmt.Sprintf("native: %s is %d, want %d", e.What, e.Got, e.Want)
}

// CancelledError reports a solve aborted by its context before every
// supernode task completed. Unwrap yields the context's cause, so
// errors.Is(err, context.Canceled) and errors.Is(err,
// context.DeadlineExceeded) work through it.
type CancelledError struct {
	Cause error
}

func (e *CancelledError) Error() string {
	if e.Cause != nil {
		return "native: solve cancelled: " + e.Cause.Error()
	}
	return "native: solve cancelled"
}

func (e *CancelledError) Unwrap() error { return e.Cause }

// TaskPanicError reports a panic recovered inside a supernode task. The
// scheduler converts the panic into this error and cancels the remaining
// tasks instead of deadlocking the pool (a skipped dependency counter
// would otherwise block the solve forever).
type TaskPanicError struct {
	Phase TaskPhase
	Task  int // supernode index of the panicking task
	Value any // the recovered panic value
}

func (e *TaskPanicError) Error() string {
	return fmt.Sprintf("native: %s task %d panicked: %v", e.Phase, e.Task, e.Value)
}

// TaskPhase identifies the sweep a supernode task belongs to.
type TaskPhase int

const (
	// ForwardPhase is the forward-elimination sweep (leaves → root).
	ForwardPhase TaskPhase = iota
	// BackwardPhase is the back-substitution sweep (root → leaves).
	BackwardPhase
)

func (p TaskPhase) String() string {
	if p == ForwardPhase {
		return "forward"
	}
	return "backward"
}

// TaskHook observes every supernode task just before its numeric kernel
// runs. A non-nil return aborts the solve with that error; a panic inside
// the hook is recovered like any task panic; a hook that blocks must
// select on ctx.Done() so cancellation still unwinds the pool promptly.
// The ctx passed in is the per-sweep context — it is cancelled as soon as
// any other task fails or the caller's deadline expires.
//
// Hooks exist for fault injection (package faultinject) and lightweight
// tracing; the production path leaves Options.TaskHook nil, which costs
// one predictable branch per task.
type TaskHook func(ctx context.Context, phase TaskPhase, s int) error

// normalizeCancel turns the executor's cancellation, and bare context
// errors (e.g. returned by a blocking hook that observed ctx.Done), into
// CancelledError so callers see one cancellation type regardless of where
// the abort was noticed.
func normalizeCancel(err error) error {
	if err == nil {
		return nil
	}
	if te, ok := err.(*taskdag.CancelledError); ok {
		return &CancelledError{Cause: te.Cause}
	}
	var ce *CancelledError
	if errors.As(err, &ce) {
		return err
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return &CancelledError{Cause: err}
	}
	return err
}
