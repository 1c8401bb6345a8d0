// The client's one exported error surface. The wire protocol carries
// application errors as strings (a response's Err field), and the
// server-side conditions clients must react to — a migrated layout, a
// torn positional append, a missing entry — were previously matched by
// substring only. The sentinels here give callers errors.Is semantics:
// wireErr classifies an incoming wire error and wraps it so the original
// message (and every Contains-based helper in transport) keeps working
// while errors.Is(err, ErrStaleLayout) and friends also hold, through
// any number of fmt.Errorf("...: %w", err) wrapping layers.
package client

import (
	"context"
	"errors"
	"strings"
	"time"
)

var (
	// ErrInvalidOptions marks a DialOpts refusal: an Options field held
	// a nonsense value (negative stripe count, non-power-of-two stripe
	// unit, negative pool width). Match with errors.Is.
	ErrInvalidOptions = errors.New("client: invalid options")

	// ErrCanceled marks an operation cut short by its context. The
	// original context error stays reachable too: errors.Is against
	// context.Canceled or context.DeadlineExceeded also reports true.
	ErrCanceled = errors.New("client: operation canceled")

	// ErrStaleLayout marks an I/O refused because the file's layout
	// changed under the handle (a rebalance migrated it); re-stat and
	// retry, which File/Client methods do internally within their
	// budgets before surfacing this.
	ErrStaleLayout = errors.New("client: stale file layout")

	// ErrNotExist marks a path with no entry on the servers asked.
	ErrNotExist = errors.New("client: file does not exist")

	// ErrTornAppend marks a positional append refused because it
	// partially overlaps data already landed — the server-side guard
	// against pipelined chunks tearing a stripe.
	ErrTornAppend = errors.New("client: torn positional append")

	// ErrParkedFull marks a positional append refused because the
	// server's reorder buffer was full.
	ErrParkedFull = errors.New("client: append reorder buffer full")
)

// apiError attaches a sentinel to a wire error while preserving the
// original message verbatim: substring matchers (transport.IsStaleLayout
// etc.) and log readers see the server's words, errors.Is sees the kind.
type apiError struct {
	msg  string
	kind error
}

func (e *apiError) Error() string { return e.msg }
func (e *apiError) Unwrap() error { return e.kind }

// wireErr classifies an application error that arrived as a wire string.
// The match is on the server-side message fragments (fsys's sentinel
// texts and transport's stale-layout marker); anything unrecognized
// passes through untouched.
func wireErr(err error) error {
	if err == nil {
		return nil
	}
	msg := err.Error()
	switch {
	case strings.Contains(msg, "stale-layout:") || strings.Contains(msg, "stale file layout"):
		return &apiError{msg: msg, kind: ErrStaleLayout}
	case strings.Contains(msg, "no such file or directory"):
		return &apiError{msg: msg, kind: ErrNotExist}
	case strings.Contains(msg, "partially overlaps landed data"):
		return &apiError{msg: msg, kind: ErrTornAppend}
	case strings.Contains(msg, "reorder buffer full"):
		return &apiError{msg: msg, kind: ErrParkedFull}
	}
	return err
}

// canceledError carries both the exported sentinel and the underlying
// context error, so errors.Is matches ErrCanceled as well as
// context.Canceled / context.DeadlineExceeded.
type canceledError struct{ cause error }

func (e *canceledError) Error() string   { return "client: " + e.cause.Error() }
func (e *canceledError) Unwrap() []error { return []error{ErrCanceled, e.cause} }

// canceled wraps a context error into the typed form (idempotent).
func canceled(err error) error {
	if isCanceled(err) {
		return err
	}
	return &canceledError{cause: err}
}

// isCanceled reports whether err is the typed cancellation error.
func isCanceled(err error) bool { return errors.Is(err, ErrCanceled) }

// budgetDeadline is the wall-clock bound for an internal retry budget:
// now+d — today's hard-coded behavior — unless ctx carries an earlier
// deadline of its own.
func budgetDeadline(ctx context.Context, d time.Duration) time.Time {
	dl := time.Now().Add(d)
	if cd, ok := ctx.Deadline(); ok && cd.Before(dl) {
		dl = cd
	}
	return dl
}

// retry is the client's one retry loop, for the transient answers of a
// file whose layout is moving: try runs once, then again after
// retryBackoff while it reports its error transient, until budget —
// tightened to ctx's deadline when that is sooner — has passed. The
// budget starts when the first attempt returns, so a first attempt
// slower than the budget (a large striped I/O under a small policy
// share) still gets its retry. again is false on the first attempt
// only. The last attempt's error is returned (nil on success);
// cancellation between attempts returns ErrCanceled.
func retry(ctx context.Context, budget time.Duration, try func(again bool) (transient bool, err error)) error {
	var deadline time.Time
	for again := false; ; again = true {
		transient, err := try(again)
		if !again {
			deadline = budgetDeadline(ctx, budget)
		}
		if err == nil || !transient || time.Now().After(deadline) {
			return err
		}
		// The backoff keeps a crowd of handles on one migrating file from
		// turning the cutover window into a stat storm against the servers
		// the policy is throttling.
		time.Sleep(retryBackoff)
		if cerr := ctx.Err(); cerr != nil {
			return canceled(cerr)
		}
	}
}

// retryBackoff is the pause between two attempts of a retry.
const retryBackoff = 10 * time.Millisecond
