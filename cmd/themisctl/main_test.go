package main

import (
	"bytes"
	"io"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"themisio/internal/obsv"
	"themisio/internal/policy"
	"themisio/internal/server"
)

// deadAddr returns an address nothing is listening on.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// Every subcommand must exit non-zero and print the error when its RPC
// fails against an unreachable server — the regression that used to
// let CI scripts treat a dead cluster as success.
func TestExitCodeOnUnreachableServer(t *testing.T) {
	addr := deadAddr(t)
	cases := [][]string{
		{"-servers", addr, "cluster", "status"},
		{"-servers", addr, "cluster", "drain"},
		{"-servers", addr, "rebalance", "status"},
		{"-servers", addr, "flush"},
		{"-servers", addr, "policy", "set", "size-fair"},
		{"-servers", addr, "policy", "status"},
		{"-servers", addr, "stat", "/x"},
		{"-servers", addr, "put", "/x"},
		{"-servers", addr, "get", "/x"},
		{"-servers", addr, "ls", "/"},
		{"-servers", addr, "rm", "/x"},
		{"-servers", addr, "mkdir", "/d"},
	}
	for _, argv := range cases {
		var out, errOut bytes.Buffer
		code := run(argv, strings.NewReader(""), &out, &errOut)
		if code == 0 {
			t.Errorf("%v exited 0 against an unreachable server", argv)
		}
		if errOut.Len() == 0 {
			t.Errorf("%v printed no error", argv)
		}
	}
}

// `metrics` against an unreachable endpoint exits non-zero; against a
// live registry-backed endpoint it prints the exposition, and a prefix
// argument filters to that family's lines.
func TestMetricsCommand(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"metrics", deadAddr(t)}, strings.NewReader(""), &out, &errOut); code == 0 {
		t.Fatal("metrics against an unreachable endpoint exited 0")
	}
	if errOut.Len() == 0 {
		t.Fatal("metrics against an unreachable endpoint printed no error")
	}

	reg := obsv.NewRegistry()
	reg.CounterFunc("themis_test_total", "A counter.", func() float64 { return 7 })
	reg.GaugeFunc("other_gauge", "A gauge.", func() float64 { return 1 })
	ts := httptest.NewServer(obsv.Mux(reg, func() (bool, string) { return true, "" }))
	defer ts.Close()
	addr := strings.TrimPrefix(ts.URL, "http://")

	out.Reset()
	errOut.Reset()
	if code := run([]string{"metrics", addr}, strings.NewReader(""), &out, &errOut); code != 0 {
		t.Fatalf("metrics exited %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "themis_test_total 7") || !strings.Contains(out.String(), "other_gauge 1") {
		t.Fatalf("metrics output: %q", out.String())
	}

	out.Reset()
	if code := run([]string{"metrics", addr, "themis_"}, strings.NewReader(""), &out, &errOut); code != 0 {
		t.Fatalf("filtered metrics exited %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "themis_test_total 7") || strings.Contains(out.String(), "other_gauge") {
		t.Fatalf("filtered metrics output: %q", out.String())
	}
}

// Usage errors exit 2.
func TestExitCodeOnUsageErrors(t *testing.T) {
	for _, argv := range [][]string{
		{},
		{"-no-such-flag"},
		{"stat"},               // missing path
		{"no-such-cmd", "/x"},  // unknown command
		{"rebalance", "bogus"}, // unknown subcommand
		{"policy", "bogus"},    // unknown subcommand
		{"policy", "set"},      // missing policy string
	} {
		var out, errOut bytes.Buffer
		if code := run(argv, strings.NewReader(""), &out, &errOut); code != 2 {
			t.Errorf("%v exited %d, want 2", argv, code)
		}
	}
}

// Against a live server: policy set round-trips the canonical string
// and epoch, a bad policy string is refused with the parser's typed
// error and a non-zero exit, and policy status prints the report.
func TestPolicyCommandsLive(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(ln, server.Config{Policy: policy.SizeFair, Quiet: true})
	go srv.Serve()
	defer srv.Close()
	addr := ln.Addr().String()

	var out, errOut bytes.Buffer
	if code := run([]string{"-servers", addr, "policy", "set", "user-then-size-fair"},
		strings.NewReader(""), &out, &errOut); code != 0 {
		t.Fatalf("policy set exited %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "user-then-size-fair") || !strings.Contains(out.String(), "epoch 1") {
		t.Fatalf("policy set output: %q", out.String())
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"-servers", addr, "policy", "set", "totally-bogus"},
		strings.NewReader(""), &out, &errOut); code == 0 {
		t.Fatal("bogus policy string must exit non-zero")
	}
	if !strings.Contains(errOut.String(), "policy") {
		t.Fatalf("bogus policy error output: %q", errOut.String())
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"-servers", addr, "policy", "status"},
		strings.NewReader(""), &out, &errOut); code != 0 {
		t.Fatalf("policy status exited %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "policy size-fair") {
		// The set above is applied at the next λ (500 ms default); right
		// after boot the server still reports its boot policy string.
		t.Fatalf("policy status output: %q", out.String())
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"-servers", addr, "cluster", "status"},
		strings.NewReader(""), &out, &errOut); code != 0 {
		t.Fatalf("cluster status exited %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "1 members") {
		t.Fatalf("cluster status output: %q", out.String())
	}
}

// A server that accepts, reads the request and never answers must fail
// a control command at its reply deadline instead of hanging it — the
// situation an operator runs `cluster status` in.
func TestControlReplyDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				io.Copy(io.Discard, c) // until themisctl gives up and hangs up
				c.Close()
			}()
		}
	}()
	defer func(d time.Duration) { queryTimeout = d }(queryTimeout)
	queryTimeout = 200 * time.Millisecond

	var out, errOut bytes.Buffer
	start := time.Now()
	code := run([]string{"-servers", ln.Addr().String(), "cluster", "status"}, strings.NewReader(""), &out, &errOut)
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("cluster status took %v against a mute server", took)
	}
	if code != 1 || !strings.Contains(errOut.String(), "deadline") {
		t.Fatalf("exit %d, stderr %q; want 1 and a deadline error", code, errOut.String())
	}
}

// raggedReader hands its bytes out in uneven pieces, as a pipe does.
type raggedReader struct {
	data []byte
	i    int
}

func (r *raggedReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	r.i++
	n := min(1+r.i*7919%100_000, len(p), len(r.data))
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// `put` streams stdin through its fixed buffer: a body larger than two
// buffers, arriving in ragged pieces, reads back byte-identical.
func TestPutStreamsRaggedInput(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(ln, server.Config{Policy: policy.SizeFair, Quiet: true})
	go srv.Serve()
	defer srv.Close()
	addr := ln.Addr().String()

	body := make([]byte, 9<<20)
	for i := range body {
		body[i] = byte(i * 31 >> 3)
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-servers", addr, "put", "/big"}, &raggedReader{data: body}, &out, &errOut); code != 0 {
		t.Fatalf("put exited %d: %s", code, errOut.String())
	}
	if code := run([]string{"-servers", addr, "get", "/big"}, strings.NewReader(""), &out, &errOut); code != 0 {
		t.Fatalf("get exited %d: %s", code, errOut.String())
	}
	if !bytes.Equal(out.Bytes(), body) {
		t.Fatalf("read back %d bytes, differing from the %d put", out.Len(), len(body))
	}
}

// The -stripe-unit flag accepts byte counts, and refuses garbage with a
// usage exit.
func TestParseStripeUnit(t *testing.T) {
	if u, err := parseStripeUnit("0"); err != nil || u != 0 {
		t.Fatalf("0: u=%d err=%v", u, err)
	}
	if u, err := parseStripeUnit("262144"); err != nil || u != 262144 {
		t.Fatalf("262144: u=%d err=%v", u, err)
	}
	for _, bad := range []string{"-5", "64k", "auto", ""} {
		if _, err := parseStripeUnit(bad); err == nil {
			t.Fatalf("%q parsed without error", bad)
		}
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-stripe-unit", "64k", "ls", "/"}, strings.NewReader(""), &out, &errOut); code != 2 {
		t.Fatalf("bad -stripe-unit exited %d, want 2", code)
	}
}

// The -conns-per-server flag accepts counts, and refuses garbage with a
// usage exit.
func TestParseConnsPerServer(t *testing.T) {
	if n, err := parseConnsPerServer("0"); err != nil || n != 0 {
		t.Fatalf("0: n=%d err=%v", n, err)
	}
	if n, err := parseConnsPerServer("4"); err != nil || n != 4 {
		t.Fatalf("4: n=%d err=%v", n, err)
	}
	for _, bad := range []string{"-5", "two", "auto", ""} {
		if _, err := parseConnsPerServer(bad); err == nil {
			t.Fatalf("%q parsed without error", bad)
		}
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-conns-per-server", "two", "ls", "/"}, strings.NewReader(""), &out, &errOut); code != 2 {
		t.Fatalf("bad -conns-per-server exited %d, want 2", code)
	}
}
