package tla

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Cancellation and deadlines: a multi-hour exploration must be stoppable —
// by a ^C, a CI job timeout, or Options.Deadline — and an interrupted run
// must return what it found (Result.Interrupted with the states, depth and
// counters so far, plus a checkpoint when Options.CheckpointDir is set)
// instead of nothing. The engine polls a single atomic stop flag at
// cooperative stop points: between levels, and between frontier states
// during expansion.

// ErrInterrupted is the named error an interrupted run wraps:
// errors.Is(err, ErrInterrupted) reports that Options.Context was canceled
// or Options.Deadline passed, and the Result still carries the partial
// exploration (Result.Interrupted is set).
var ErrInterrupted = errors.New("tla: run interrupted")

// stopper adapts Options.Context and Options.Deadline to the engines'
// cooperative stop flags. A watcher goroutine arms the flag (and an
// optional engine-side notify hook) the moment the context fires; close
// releases the watcher. A nil *stopper (no context, no deadline) is valid
// and never stops, so the hot paths pay one nil-check when cancellation is
// not configured.
type stopper struct {
	fired  atomic.Bool
	mu     sync.Mutex
	cause  error
	cancel context.CancelFunc
	done   chan struct{}
}

// newStopper builds the run's stopper, arming notify (and its own fired
// flag) when the configured context or deadline fires. Returns nil when
// the options configure neither.
func (o Options) newStopper(notify func()) *stopper {
	return newStopper(o.Context, o.Deadline, notify)
}

// newStopper is the shared constructor behind Options.newStopper and the
// trace checker's TraceOptions.Context support.
func newStopper(pctx context.Context, deadline time.Time, notify func()) *stopper {
	if pctx == nil && deadline.IsZero() {
		return nil
	}
	ctx := pctx
	if ctx == nil {
		ctx = context.Background()
	}
	cancel := context.CancelFunc(func() {})
	if !deadline.IsZero() {
		ctx, cancel = context.WithDeadline(ctx, deadline)
	}
	st := &stopper{cancel: cancel, done: make(chan struct{})}
	fire := func() {
		st.mu.Lock()
		st.cause = context.Cause(ctx)
		st.mu.Unlock()
		st.fired.Store(true)
		if notify != nil {
			notify()
		}
	}
	// An already-canceled context fires synchronously: the run observes the
	// stop at its very first poll instead of racing the watcher goroutine.
	select {
	case <-ctx.Done():
		fire()
		return st
	default:
	}
	go func() {
		select {
		case <-ctx.Done():
			fire()
		case <-st.done:
		}
	}()
	return st
}

// stopped reports whether the run should wind down.
func (st *stopper) stopped() bool { return st != nil && st.fired.Load() }

// close releases the watcher goroutine and the deadline timer.
func (st *stopper) close() {
	if st == nil {
		return
	}
	close(st.done)
	st.cancel()
}

// err is the error an interrupted run returns: ErrInterrupted, annotated
// with the context's cause when it adds information (a deadline, a custom
// cancel cause).
func (st *stopper) err() error {
	st.mu.Lock()
	cause := st.cause
	st.mu.Unlock()
	if cause != nil && !errors.Is(cause, context.Canceled) {
		return fmt.Errorf("%w: %w", ErrInterrupted, cause)
	}
	return ErrInterrupted
}
