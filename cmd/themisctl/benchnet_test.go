package main

import (
	"bytes"
	"net"
	"strings"
	"testing"

	"themisio/internal/policy"
	"themisio/internal/server"
)

// `bench net` against a live in-process server: exits 0, reports a
// positive throughput, accounts every frame, and leaves no scratch
// file behind.
func TestBenchNetLive(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(ln, server.Config{Policy: policy.SizeFair, Quiet: true})
	go srv.Serve()
	defer srv.Close()
	addr := ln.Addr().String()

	var out, errOut bytes.Buffer
	if code := run([]string{"bench", "net", addr}, strings.NewReader(""), &out, &errOut); code != 0 {
		t.Fatalf("bench net exited %d: %s", code, errOut.String())
	}
	text := out.String()
	if !strings.Contains(text, "MB/s") || !strings.Contains(text, "syscalls/frame") {
		t.Fatalf("bench net output missing throughput or syscall report: %q", text)
	}
	if !strings.Contains(text, "frames") || strings.Contains(text, "0 frames,") {
		t.Fatalf("bench net accounted no frames: %q", text)
	}
	// The scratch file is unlinked on the way out.
	var ls, lsErr bytes.Buffer
	if code := run([]string{"-servers", addr, "ls", "/"}, strings.NewReader(""), &ls, &lsErr); code != 0 {
		t.Fatalf("ls exited %d: %s", code, lsErr.String())
	}
	if strings.Contains(ls.String(), ".bench-net") {
		t.Fatalf("scratch file left behind: %q", ls.String())
	}
}

// `bench net -conns 4` sweeps doubling connection counts and prints a
// throughput row per pool size.
func TestBenchNetConnsSweep(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(ln, server.Config{Policy: policy.SizeFair, Quiet: true})
	go srv.Serve()
	defer srv.Close()
	addr := ln.Addr().String()

	var out, errOut bytes.Buffer
	if code := run([]string{"-conns", "4", "bench", "net", addr}, strings.NewReader(""), &out, &errOut); code != 0 {
		t.Fatalf("bench net -conns 4 exited %d: %s", code, errOut.String())
	}
	text := out.String()
	for _, row := range []string{"conns=1\t", "conns=2\t", "conns=4\t"} {
		if !strings.Contains(text, row) {
			t.Fatalf("sweep output missing %q: %q", row, text)
		}
	}
	if strings.Count(text, "MB/s") != 3 {
		t.Fatalf("want one throughput row per sweep size: %q", text)
	}
}

// An unreachable target exits non-zero with the dial error on stderr,
// and malformed invocations are usage errors.
func TestBenchNetErrors(t *testing.T) {
	addr := deadAddr(t)
	var out, errOut bytes.Buffer
	if code := run([]string{"bench", "net", addr}, strings.NewReader(""), &out, &errOut); code == 0 {
		t.Fatal("bench net against a dead server exited 0")
	}
	if errOut.Len() == 0 {
		t.Fatal("bench net printed no error")
	}
	for _, argv := range [][]string{{"bench", "net"}, {"bench", "bogus", "x"}} {
		out.Reset()
		errOut.Reset()
		if code := run(argv, strings.NewReader(""), &out, &errOut); code != 2 {
			t.Fatalf("%v exited %d, want 2", argv, code)
		}
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
