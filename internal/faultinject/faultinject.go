// Package faultinject is the regression harness that proves the hardened
// solve pipeline actually works: it builds native.TaskHook values that
// deliberately panic, fail, or stall a chosen supernode task, and can
// poison a factor panel with NaN, so tests can force every failure mode
// the scheduler and the numeric guards are supposed to survive.
// Production code never imports this package.
package faultinject

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"sptrsv/internal/chol"
	"sptrsv/internal/native"
)

// Kind selects the injected failure mode.
type Kind string

const (
	// KindPanic panics inside the chosen supernode task — exercises the
	// scheduler's recover-and-unwind path (historically a permanent
	// deadlock).
	KindPanic Kind = "panic"
	// KindError returns an *InjectedError from the chosen task —
	// exercises first-error propagation and sweep cancellation.
	KindError Kind = "error"
	// KindStall blocks the chosen task for Stall (or until the solve
	// context is cancelled) — exercises deadline behaviour: the solve
	// must return a *native.CancelledError promptly, not hang.
	KindStall Kind = "stall"
	// KindNaN poisons the chosen supernode's factor panel with NaN
	// before the solve — exercises the pivot guards and the final
	// solution scan (*native.BreakdownError naming the supernode).
	KindNaN Kind = "nan"
)

// Injection describes one fault to inject into a native solve.
type Injection struct {
	Kind      Kind
	Phase     native.TaskPhase // sweep the hook fires in (hook kinds only)
	Supernode int              // target supernode task / panel
	Stall     time.Duration    // KindStall block duration
}

// InjectedError is the structured error a KindError injection returns
// from its task, so tests can assert it survived propagation verbatim.
type InjectedError struct {
	Phase     native.TaskPhase
	Supernode int
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultinject: injected error in %s task %d", e.Phase, e.Supernode)
}

// Parse reads a -inject command-line spec:
//
//	panic:S      panic in forward task S
//	error:S      return an InjectedError from forward task S
//	stall:S:DUR  block forward task S for DUR (e.g. stall:3:10s)
//	nan:S        poison supernode S's factor panel with NaN
//
// An optional "@backward" suffix on the supernode moves hook kinds to the
// back-substitution sweep (e.g. panic:3@backward).
func Parse(spec string) (*Injection, error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 2 {
		return nil, fmt.Errorf("faultinject: spec %q: want kind:supernode[:duration]", spec)
	}
	inj := &Injection{Kind: Kind(parts[0]), Phase: native.ForwardPhase}
	target := parts[1]
	if rest, ok := strings.CutSuffix(target, "@backward"); ok {
		inj.Phase = native.BackwardPhase
		target = rest
	}
	s, err := strconv.Atoi(target)
	if err != nil || s < 0 {
		return nil, fmt.Errorf("faultinject: spec %q: bad supernode %q", spec, parts[1])
	}
	inj.Supernode = s
	switch inj.Kind {
	case KindPanic, KindError, KindNaN:
		if len(parts) != 2 {
			return nil, fmt.Errorf("faultinject: spec %q: %s takes no duration", spec, inj.Kind)
		}
	case KindStall:
		if len(parts) != 3 {
			return nil, fmt.Errorf("faultinject: spec %q: stall needs a duration (stall:S:DUR)", spec)
		}
		d, err := time.ParseDuration(parts[2])
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("faultinject: spec %q: bad duration %q", spec, parts[2])
		}
		inj.Stall = d
	default:
		return nil, fmt.Errorf("faultinject: spec %q: unknown kind %q (want panic|error|stall|nan)", spec, parts[0])
	}
	return inj, nil
}

func (inj *Injection) String() string {
	switch inj.Kind {
	case KindStall:
		return fmt.Sprintf("stall %s task %d for %s", inj.Phase, inj.Supernode, inj.Stall)
	case KindNaN:
		return fmt.Sprintf("poison supernode %d panel with NaN", inj.Supernode)
	default:
		return fmt.Sprintf("%s in %s task %d", inj.Kind, inj.Phase, inj.Supernode)
	}
}

// Hook returns the native.TaskHook realizing a hook-kind injection, or
// nil for KindNaN (which corrupts the factor instead of the schedule).
func (inj *Injection) Hook() native.TaskHook {
	kind, phase, target, stall := inj.Kind, inj.Phase, inj.Supernode, inj.Stall
	switch kind {
	case KindPanic:
		return func(_ context.Context, p native.TaskPhase, s int) error {
			if p == phase && s == target {
				panic(fmt.Sprintf("faultinject: deliberate panic in %s task %d", p, s))
			}
			return nil
		}
	case KindError:
		return func(_ context.Context, p native.TaskPhase, s int) error {
			if p == phase && s == target {
				return &InjectedError{Phase: p, Supernode: s}
			}
			return nil
		}
	case KindStall:
		return func(ctx context.Context, p native.TaskPhase, s int) error {
			if p != phase || s != target {
				return nil
			}
			t := time.NewTimer(stall)
			defer t.Stop()
			select {
			case <-ctx.Done():
				// The sweep was cancelled while we were wedged; report the
				// context error so the solve unwinds as a cancellation.
				return ctx.Err()
			case <-t.C:
				return nil
			}
		}
	default:
		return nil
	}
}

// Poison applies a KindNaN injection to the factor, overwriting the
// target supernode's panel with NaN, and returns a function restoring the
// original values. For other kinds it is a no-op.
func (inj *Injection) Poison(f *chol.Factor) (restore func(), err error) {
	if inj.Kind != KindNaN {
		return func() {}, nil
	}
	if inj.Supernode >= len(f.Panels) {
		return nil, fmt.Errorf("faultinject: supernode %d out of range (factor has %d)", inj.Supernode, len(f.Panels))
	}
	panel := f.Panels[inj.Supernode]
	saved := append([]float64(nil), panel...)
	for i := range panel {
		panel[i] = math.NaN()
	}
	return func() { copy(panel, saved) }, nil
}
