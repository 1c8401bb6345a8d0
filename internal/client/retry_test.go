package client

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"themisio/internal/transport"
)

// retry's contract, over a fake attempt: how many attempts run, which
// error comes back, and which deadline ends the loop.
func TestRetryBudget(t *testing.T) {
	errMoving := errors.New("layout moving")
	for _, tc := range []struct {
		name    string
		budget  time.Duration
		ctxWait time.Duration // a ctx deadline this far away (zero: none)
		// try is attempt n (from 1); cancel ends the call's ctx.
		try   func(n int, cancel context.CancelFunc) (bool, error)
		check func(t *testing.T, err error, attempts int, took time.Duration)
	}{
		{
			name:   "succeeds on the third attempt",
			budget: time.Second,
			try: func(n int, _ context.CancelFunc) (bool, error) {
				if n < 3 {
					return true, errMoving
				}
				return false, nil
			},
			check: func(t *testing.T, err error, attempts int, _ time.Duration) {
				if err != nil || attempts != 3 {
					t.Fatalf("err %v after %d attempts, want nil after 3", err, attempts)
				}
			},
		},
		{
			name:   "a non-transient error stops after one attempt",
			budget: time.Second,
			try: func(int, context.CancelFunc) (bool, error) {
				return false, transport.ErrLink
			},
			check: func(t *testing.T, err error, attempts int, _ time.Duration) {
				if !errors.Is(err, transport.ErrLink) || attempts != 1 {
					t.Fatalf("err %v after %d attempts, want ErrLink after 1", err, attempts)
				}
			},
		},
		{
			name:   "a transient error forever returns the last one once the budget passes",
			budget: 60 * time.Millisecond,
			try: func(n int, _ context.CancelFunc) (bool, error) {
				return true, fmt.Errorf("attempt %d: %w", n, errMoving)
			},
			check: func(t *testing.T, err error, attempts int, took time.Duration) {
				if want := fmt.Sprintf("attempt %d: %v", attempts, errMoving); err == nil || err.Error() != want {
					t.Fatalf("err %v, want the last attempt's %q", err, want)
				}
				if took < 60*time.Millisecond || attempts < 2 {
					t.Fatalf("gave up after %v and %d attempts, inside the 60ms budget", took, attempts)
				}
			},
		},
		{
			name:   "a first attempt slower than the budget still gets a retry",
			budget: 20 * time.Millisecond,
			try: func(n int, _ context.CancelFunc) (bool, error) {
				if n == 1 {
					time.Sleep(60 * time.Millisecond)
					return true, errMoving
				}
				return false, nil
			},
			check: func(t *testing.T, err error, attempts int, _ time.Duration) {
				if err != nil || attempts != 2 {
					t.Fatalf("err %v after %d attempts, want nil after 2", err, attempts)
				}
			},
		},
		{
			// The deadline ends the loop either in its pause (ErrCanceled)
			// or just after an attempt (that attempt's error): which one is
			// up to the timer, the bound is not.
			name:    "a ctx deadline sooner than the budget wins",
			budget:  10 * time.Second,
			ctxWait: 50 * time.Millisecond,
			try: func(int, context.CancelFunc) (bool, error) {
				return true, errMoving
			},
			check: func(t *testing.T, err error, _ int, took time.Duration) {
				if !errors.Is(err, ErrCanceled) && !errors.Is(err, errMoving) {
					t.Fatalf("err %v, want ErrCanceled or the last attempt's error", err)
				}
				if took > 2*time.Second {
					t.Fatalf("took %v: the 10s budget, not the 50ms ctx deadline, ended the loop", took)
				}
			},
		},
		{
			name:   "a ctx cancelled between attempts returns ErrCanceled",
			budget: 10 * time.Second,
			try: func(n int, cancel context.CancelFunc) (bool, error) {
				if n == 2 {
					cancel()
				}
				return true, errMoving
			},
			check: func(t *testing.T, err error, attempts int, _ time.Duration) {
				if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) || attempts != 2 {
					t.Fatalf("err %v after %d attempts, want ErrCanceled after 2", err, attempts)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			if tc.ctxWait > 0 {
				ctx, cancel = context.WithTimeout(context.Background(), tc.ctxWait)
			}
			defer cancel()
			attempts := 0
			start := time.Now()
			err := retry(ctx, tc.budget, func(again bool) (bool, error) {
				if again != (attempts > 0) {
					t.Errorf("attempt %d: again = %v", attempts+1, again)
				}
				attempts++
				return tc.try(attempts, cancel)
			})
			tc.check(t, err, attempts, time.Since(start))
		})
	}
}

// A write that gives up after part of it landed reports that part. One
// width-1 server lands the first MiB of an 8 MiB write and refuses the
// rest as stale-layout; the re-stat then sees the landed MiB and the
// retry is refused again; the next re-stat fails. The durable prefix is
// 1 MiB on the server and in the handle's size, so Write must return
// 1 MiB: a POSIX retry of what it reports unwritten then appends each
// byte once. (Cancellation between attempts leaves the same way, through
// retry's ErrCanceled; it is not scripted here because a cancel that
// lands mid-RPC takes writeOnce's exit instead.)
func TestWriteReportsDurablePrefix(t *testing.T) {
	const landedMax = 1 << 20
	var mu sync.Mutex
	var data []byte
	stats := 0
	srv := startScriptedServer(t, func(req *transport.Request) *transport.Response {
		mu.Lock()
		defer mu.Unlock()
		switch req.Type {
		case transport.MsgStat:
			if stats++; stats > 1 {
				return &transport.Response{Err: "stat: injected device error"}
			}
			return &transport.Response{Size: int64(len(data)), Stripes: 1, LayoutGen: 7}
		case transport.MsgWrite:
			if len(data) >= landedMax || req.AppendOff != int64(len(data)) {
				return &transport.Response{Err: transport.ErrStaleLayout}
			}
			data = append(data, req.Data...)
			return &transport.Response{N: int64(len(req.Data))}
		}
		return nil
	})
	c, err := DialOpts(testJob("prefix"), []string{srv.addr}, Options{ConnsPerServer: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f := &File{c: c, path: "/f", lay: layoutInfo{stripes: 1, unit: DefaultStripeUnit, set: []string{srv.addr}, gen: 7}}
	payload := make([]byte, 8<<20)
	n, err := f.Write(payload)
	mu.Lock()
	defer mu.Unlock()
	if len(data) != landedMax || stats != 2 {
		t.Fatalf("server holds %d bytes after %d stats; the script wants %d after 2", len(data), stats, landedMax)
	}
	if err == nil || n != landedMax || f.size != landedMax || f.damaged {
		t.Fatalf("Write = %d, %v (handle size %d, damaged %v); want %d, the durable prefix, with the re-stat's error",
			n, err, f.size, f.damaged, landedMax)
	}
}
