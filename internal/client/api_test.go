package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"strings"
	"testing"

	"themisio/internal/transport"
)

// The handle is the package's io citizen.
var (
	_ io.ReadWriteSeeker = (*File)(nil)
	_ io.Closer          = (*File)(nil)
)

// TestOptionsValidation: every malformed Options field is rejected with
// a typed usage error before any socket is dialed; zero values pass.
func TestOptionsValidation(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		ok   bool
	}{
		{"zero value", Options{}, true},
		{"explicit defaults", Options{Stripes: 4, StripeUnit: DefaultStripeUnit, ConnsPerServer: DefaultConnsPerServer}, true},
		{"one of everything", Options{Stripes: 1, StripeUnit: 1, ConnsPerServer: 1}, true},
		{"negative stripes", Options{Stripes: -1}, false},
		{"negative stripe unit", Options{StripeUnit: -1}, false},
		{"non-pow2 stripe unit", Options{StripeUnit: 3000}, false},
		{"non-pow2 large unit", Options{StripeUnit: (1 << 20) + 512}, false},
		{"negative conns", Options{ConnsPerServer: -1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateOptions(tc.opts)
			if tc.ok && err != nil {
				t.Fatalf("valid options rejected: %v", err)
			}
			if !tc.ok {
				if err == nil {
					t.Fatal("malformed options accepted")
				}
				if !errors.Is(err, ErrInvalidOptions) {
					t.Fatalf("error %v is not ErrInvalidOptions", err)
				}
			}
		})
	}
	// DialOpts surfaces the same typed error without needing live servers.
	if _, err := DialOpts(testJob("bad"), []string{"127.0.0.1:1"}, Options{Stripes: -3}); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("DialOpts validation error = %v, want ErrInvalidOptions", err)
	}
}

// TestErrorSentinels: the wire strings servers send classify to the
// exported sentinels, and errors.Is survives the wrapping and prefixing
// the retry/repair paths apply (repairWrite prefixes with "stripe
// <addr>: ", call paths with fmt.Errorf %w).
func TestErrorSentinels(t *testing.T) {
	cases := []struct {
		wire string
		want error
	}{
		{"stale-layout: gen 3 < 4", ErrStaleLayout},
		{"fsys: stale file layout (migrated)", ErrStaleLayout},
		{"fsys: no such file or directory", ErrNotExist},
		{"fsys: positional append partially overlaps landed data", ErrTornAppend},
		{"fsys: positional append reorder buffer full", ErrParkedFull},
	}
	for _, tc := range cases {
		err := wireErr(errors.New(tc.wire))
		if !errors.Is(err, tc.want) {
			t.Fatalf("wire %q does not match sentinel %v", tc.wire, tc.want)
		}
		// The server's exact message survives classification: the
		// Contains-based retry matchers still see it.
		if !strings.Contains(err.Error(), tc.wire) {
			t.Fatalf("classification lost the wire message: %q", err.Error())
		}
		// repairWrite-style prefix wrapping keeps the sentinel reachable.
		wrapped := fmt.Errorf("stripe 127.0.0.1:9999: %w", err)
		if !errors.Is(wrapped, tc.want) {
			t.Fatalf("prefixed form %q lost sentinel %v", wrapped, tc.want)
		}
		// ...and double wrapping, as retry ladders do.
		double := fmt.Errorf("write /f: %w", wrapped)
		if !errors.Is(double, tc.want) {
			t.Fatalf("double-wrapped form lost sentinel %v", tc.want)
		}
	}
	// Unclassified wire errors pass through untouched.
	plain := errors.New("something else entirely")
	if wireErr(plain) != plain {
		t.Fatal("unclassified error must pass through")
	}
	// Cancellation wraps both our sentinel and the stdlib cause.
	cerr := canceled(context.Canceled)
	if !errors.Is(cerr, ErrCanceled) || !errors.Is(cerr, context.Canceled) {
		t.Fatalf("canceled error %v must match both ErrCanceled and context.Canceled", cerr)
	}
	if canceled(cerr) != cerr {
		t.Fatal("canceled must be idempotent")
	}
}

// TestContextCancellation: a dead context fails the call with the typed
// cancellation error — and does not mark the server failed, so the
// client keeps working on a live context afterwards.
func TestContextCancellation(t *testing.T) {
	// Scribble recycled messages: nothing a canceled call abandoned may
	// have gone back to a pool.
	transport.SetLeasePoison(true)
	defer transport.SetLeasePoison(false)
	_, addrs := startFabric(t, listen(t, 2))
	c, err := DialOpts(testJob("ctx"), addrs, Options{Stripes: 2, StripeUnit: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	dead, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := c.OpenContext(dead, "/ctx.bin", true); !errors.Is(err, ErrCanceled) {
		t.Fatalf("OpenContext(dead) = %v, want ErrCanceled", err)
	}
	if _, _, err := c.StatContext(dead, "/nope"); !errors.Is(err, ErrCanceled) {
		t.Fatalf("StatContext(dead) = %v, want ErrCanceled", err)
	}
	if err := c.FlushContext(dead); !errors.Is(err, ErrCanceled) {
		t.Fatalf("FlushContext(dead) = %v, want ErrCanceled", err)
	}

	f, err := c.Open("/ctx.bin", true)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 8192)
	for i := range data {
		data[i] = byte(i * 7)
	}
	_, werr := f.WriteContext(dead, data)
	if !errors.Is(werr, ErrCanceled) {
		t.Fatalf("WriteContext(dead) = %v, want ErrCanceled", werr)
	}
	// The stdlib cause is reachable through the wrap too.
	if !errors.Is(werr, context.Canceled) {
		t.Fatalf("cancellation should expose context.Canceled, got %v", werr)
	}
	// A canceled striped write poisons the handle: durability of the
	// in-flight stripes is unknown, so further writes are refused until
	// the caller reopens.
	if _, err := f.Write(data); err == nil {
		t.Fatal("write on a cancellation-damaged handle succeeded")
	}

	// Cancellation is a caller verdict, not a server failure: both
	// servers are still in the ring and a live context succeeds.
	if len(c.Servers()) != 2 {
		t.Fatalf("cancellation evicted servers: ring = %v", c.Servers())
	}
	g, err := c.OpenContext(context.Background(), "/ctx-live.bin", true)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := g.WriteContext(context.Background(), data); err != nil || n != len(data) {
		t.Fatalf("live write after cancellation: n=%d err=%v", n, err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFileHandle: the handle speaks io — sequential Write, Seek,
// ReadFull, io.EOF at end, fs.ErrClosed after Close.
func TestFileHandle(t *testing.T) {
	transport.SetLeasePoison(true)
	defer transport.SetLeasePoison(false)
	_, addrs := startFabric(t, listen(t, 2))
	c, err := DialOpts(testJob("file"), addrs, Options{Stripes: 2, StripeUnit: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	f, err := c.Open("/h.bin", true)
	if err != nil {
		t.Fatal(err)
	}
	if f.Path() != "/h.bin" {
		t.Fatalf("Path() = %q", f.Path())
	}
	data := make([]byte, 10_000)
	for i := range data {
		data[i] = byte(i*13 + 1)
	}
	if n, err := f.Write(data); err != nil || n != len(data) {
		t.Fatalf("write: n=%d err=%v", n, err)
	}
	if pos, err := f.Seek(0, io.SeekStart); err != nil || pos != 0 {
		t.Fatalf("seek: pos=%d err=%v", pos, err)
	}
	got := make([]byte, len(data))
	if _, err := io.ReadFull(f, got); err != nil {
		t.Fatalf("ReadFull: %v", err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d: got %#x want %#x", i, got[i], data[i])
		}
	}
	// At EOF the handle reports io.EOF, as io.Reader demands.
	if n, err := f.Read(got[:10]); n != 0 || err != io.EOF {
		t.Fatalf("read at EOF: n=%d err=%v, want 0, io.EOF", n, err)
	}
	// io.Copy terminates off the io.EOF contract.
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	if n, err := io.Copy(&sink, f); err != nil || n != int64(len(data)) {
		t.Fatalf("io.Copy: n=%d err=%v", n, err)
	}
	// SeekEnd stats the durable size.
	if pos, err := f.Seek(0, io.SeekEnd); err != nil || pos != int64(len(data)) {
		t.Fatalf("SeekEnd: pos=%d err=%v", pos, err)
	}
	if _, err := f.Seek(0, 99); err == nil {
		t.Fatal("bad whence accepted")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Read(got[:1]); !errors.Is(err, fs.ErrClosed) {
		t.Fatalf("read after close: %v", err)
	}
	if err := f.Close(); !errors.Is(err, fs.ErrClosed) {
		t.Fatalf("double close: %v", err)
	}
}
