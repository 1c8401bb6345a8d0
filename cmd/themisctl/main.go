// Command themisctl is a small client CLI against live themisd servers:
// put/get/ls/stat/rm through the POSIX-style client library, under an
// explicit job identity so policy behaviour can be exercised by hand,
// plus cluster-fabric operator commands.
//
// Usage:
//
//	themisctl -servers 127.0.0.1:7000 -job demo -user alice -nodes 4 mkdir /data
//	themisctl -servers 127.0.0.1:7000 -stripes 4 put /data/x < local.bin
//	themisctl -servers 127.0.0.1:7000 -stripes 4 get /data/x > out.bin
//	themisctl -servers 127.0.0.1:7000 ls /data
//	themisctl -servers 127.0.0.1:7000 stat /data/x
//	themisctl -servers 127.0.0.1:7000 rm /data/x
//	themisctl -servers 127.0.0.1:7000 cluster status
//	themisctl -servers 127.0.0.1:7001 cluster drain
//	themisctl -servers 127.0.0.1:7000,127.0.0.1:7001 rebalance status
//	themisctl -servers 127.0.0.1:7000,127.0.0.1:7001 flush
//	themisctl -servers 127.0.0.1:7000 policy set size-fair
//	themisctl -servers 127.0.0.1:7000,127.0.0.1:7001 policy status
//	themisctl metrics 127.0.0.1:9100
//	themisctl metrics 127.0.0.1:9100 themis_share_
//	themisctl -servers 127.0.0.1:7000 -stripes 4 -stripe-unit 262144 put /data/x < local.bin
//
// `cluster status` prints the membership table as seen by the first
// server; `cluster drain` asks that server to stop owning ring segments
// ahead of a graceful shutdown; `rebalance status` prints each listed
// server's stripe-migration progress after a member joins; `flush`
// forces every listed server to stage all dirty data out to its
// backing store before returning (the durability barrier to run before
// maintenance).
//
// `policy set` installs a new cluster-wide sharing policy through the
// first listed server — the live hot-swap: the policy epoch bumps,
// gossip carries the new version to every member, and each server
// recompiles at its next λ without a restart or a dropped request.
// `policy status` prints, per listed server, the policy it is
// enforcing (string + applied epoch) and each sharing entity's
// compiled token share versus measured serviced-byte share with the
// convergence residual. By default only the 20 worst entities by
// |residual| are shown (`-top N` adjusts, 0 shows all; `-kind
// {job,user,group}` restricts to one entity kind) — the filter is
// applied server-side, so a 100k-entity fabric answers with a
// screenful. See docs/OPERATIONS.md for the runbook.
//
// `metrics ADDR [PREFIX]` scrapes the operator endpoint a server runs
// with -metrics-addr and prints the Prometheus exposition (optionally
// only the lines for metric names starting with PREFIX) — the one-shot
// debugging scrape for a fabric without a Prometheus server at hand.
//
// Every subcommand exits non-zero when its RPC fails — an unreachable
// server, a refused drain, an unparseable policy string — so shell
// scripts and CI steps can gate on it.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"themisio/internal/client"
	"themisio/internal/cluster"
	"themisio/internal/policy"
	"themisio/internal/transport"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses argv, executes one
// subcommand, and returns the process exit code (0 success, 1 a failed
// RPC or file operation, 2 a usage error). Every error is printed to
// stderr — including the typed wire errors a server answers with — so
// a failing CI script shows why.
func run(argv []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("themisctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	servers := fs.String("servers", "127.0.0.1:7000", "comma-separated server addresses")
	jobID := fs.String("job", "themisctl", "job id embedded in requests")
	user := fs.String("user", "operator", "user id")
	group := fs.String("group", "staff", "group id")
	nodes := fs.Int("nodes", 1, "job size in nodes")
	stripes := fs.Int("stripes", 1, "servers each file's data spans")
	stripeUnitStr := fs.String("stripe-unit", "0",
		"bytes per stripe chunk, a power of two (0 = default)")
	connsPerServerStr := fs.String("conns-per-server", "0",
		"pooled connections per server (0 = default)")
	topN := fs.Int("top", 20, "policy status: show only the top N entities by |residual| (0 = all)")
	kind := fs.String("kind", "", "policy status: restrict rows to one entity kind (job, user or group; empty = all)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	stripeUnit, err := parseStripeUnit(*stripeUnitStr)
	if err != nil {
		fmt.Fprintf(stderr, "themisctl: -stripe-unit: %v\n", err)
		return 2
	}
	connsPerServer, err := parseConnsPerServer(*connsPerServerStr)
	if err != nil {
		fmt.Fprintf(stderr, "themisctl: -conns-per-server: %v\n", err)
		return 2
	}
	args := fs.Args()
	addrs := strings.Split(*servers, ",")

	fail := func(context string, err error) int {
		fmt.Fprintf(stderr, "themisctl: %s: %v\n", context, err)
		return 1
	}
	usage := func(context string, err error) int {
		fmt.Fprintf(stderr, "themisctl: %s: %v\n", context, err)
		return 2
	}

	if len(args) == 1 && args[0] == "flush" {
		for _, addr := range addrs {
			if err := flushCmd(addr); err != nil {
				return fail("flush "+addr, err)
			}
			fmt.Fprintf(stdout, "%s\tflushed\n", addr)
		}
		return 0
	}
	if len(args) < 2 {
		fmt.Fprintln(stderr,
			"usage: themisctl [flags] {put|get|ls|stat|rm|mkdir} PATH | cluster {status|drain} | rebalance status | policy {set STRING|status} | metrics ADDR [PREFIX] | flush")
		return 2
	}
	cmd, path := args[0], args[1]

	switch cmd {
	case "metrics":
		var prefix string
		if len(args) > 2 {
			prefix = args[2]
		}
		if err := metricsCmd(stdout, path, prefix); err != nil {
			return fail("metrics "+path, err)
		}
		return 0
	case "cluster":
		if err := clusterCmd(stdout, addrs[0], path); err != nil {
			return fail("cluster "+path, err)
		}
		return 0
	case "rebalance":
		if path != "status" {
			return usage("rebalance", fmt.Errorf("unknown subcommand %q (want status)", path))
		}
		for _, addr := range addrs {
			if err := rebalanceStatusCmd(stdout, addr); err != nil {
				return fail("rebalance status "+addr, err)
			}
		}
		return 0
	case "policy":
		switch path {
		case "set":
			if len(args) < 3 {
				return usage("policy set", fmt.Errorf("missing policy string"))
			}
			if err := policySetCmd(stdout, addrs[0], args[2]); err != nil {
				return fail("policy set "+args[2], err)
			}
			return 0
		case "status":
			// -top/-kind read naturally after the subcommand
			// (`policy status -top 5 -kind user`), but the global parse
			// stops at the first positional arg — re-parse the tail so
			// both positions work.
			if len(args) > 2 {
				if err := fs.Parse(args[2:]); err != nil {
					return 2
				}
			}
			if *kind != "" && *kind != "all" && *kind != "job" && *kind != "user" && *kind != "group" {
				return usage("policy status", fmt.Errorf("unknown -kind %q (want job, user or group)", *kind))
			}
			for _, addr := range addrs {
				if err := policyStatusCmd(stdout, addr, *topN, *kind); err != nil {
					return fail("policy status "+addr, err)
				}
			}
			return 0
		default:
			return usage("policy", fmt.Errorf("unknown subcommand %q (want set or status)", path))
		}
	case "put", "get", "ls", "stat", "rm", "mkdir":
		// Data commands, handled below after dialing.
	default:
		return usage(cmd, fmt.Errorf("unknown command"))
	}

	c, err := client.DialOpts(policy.JobInfo{
		JobID: *jobID, UserID: *user, GroupID: *group, Nodes: *nodes,
	}, addrs, client.Options{Stripes: *stripes, StripeUnit: stripeUnit, ConnsPerServer: connsPerServer})
	if err != nil {
		return fail(cmd+" "+path, err)
	}
	defer c.Close()

	switch cmd {
	case "mkdir":
		err = c.Mkdir(path)
	case "put":
		var f *client.File
		f, err = c.OpenContext(context.Background(), path, true)
		if err != nil {
			break
		}
		err = putStream(f, stdin)
		f.Close()
	case "get":
		var f *client.File
		f, err = c.OpenContext(context.Background(), path, false)
		if err != nil {
			break
		}
		if _, err = io.Copy(stdout, f); err != nil {
			// A mid-stream read error used to be swallowed here: the
			// command printed a truncated file and exited 0, so a script
			// could never tell a short get from a whole one.
			f.Close()
			break
		}
		err = f.Close()
	case "ls":
		var names []string
		names, err = c.Readdir(path)
		for _, n := range names {
			fmt.Fprintln(stdout, n)
		}
	case "stat":
		var size int64
		var isDir bool
		size, isDir, err = c.Stat(path)
		if err == nil {
			kind := "file"
			if isDir {
				kind = "dir"
			}
			fmt.Fprintf(stdout, "%s\t%s\t%d bytes\n", path, kind, size)
		}
	case "rm":
		err = c.Unlink(path)
	}
	if err != nil {
		return fail(cmd+" "+path, err)
	}
	return 0
}

// parseStripeUnit parses the -stripe-unit flag: a byte count.
func parseStripeUnit(s string) (int64, error) {
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("want a byte count, got %q", s)
	}
	return n, nil
}

// parseConnsPerServer parses the -conns-per-server flag: a count.
func parseConnsPerServer(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("want a connection count, got %q", s)
	}
	return n, nil
}

// putStream copies r into f through one reused buffer of eight
// pipeline chunks, so a checkpoint-sized put keeps the write window
// full without ever holding the whole file in memory.
func putStream(f *client.File, r io.Reader) error {
	buf := make([]byte, 4<<20)
	for {
		n, rerr := io.ReadFull(r, buf)
		if n > 0 {
			if _, err := f.Write(buf[:n]); err != nil {
				return err
			}
		}
		switch rerr {
		case nil:
		case io.EOF, io.ErrUnexpectedEOF:
			return nil
		default:
			return rerr
		}
	}
}

// control is how the operator commands reach a server: the same dial
// path as every other process, one connection per address.
var control = transport.NewPeers(1, 1, 2*time.Second, 0)

// queryTimeout bounds the wait for a control reply: a server that
// accepts and never answers must fail the command, not hang it. A
// variable so a test can shorten it.
var queryTimeout = 5 * time.Second

// flushTimeout is that bound for `flush`, which may legitimately take
// the server's own 30 s stage-out limit.
const flushTimeout = 30*time.Second + 5*time.Second

// controlExchange performs one control request/response round trip with
// a server (the operator commands bypass the client library).
func controlExchange(addr string, req *transport.Request, timeout time.Duration) (*transport.Response, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	resp, err := control.Call(ctx, addr, req)
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, resp.Error()
	}
	return resp, nil
}

// metricsCmd scrapes one server's operator endpoint (the address given
// to themisd -metrics-addr, not the data-plane listen address) and
// prints the exposition, optionally filtered to lines whose metric name
// starts with prefix. An unreachable endpoint or a non-200 answer is an
// error, so scripts can gate on the endpoint being up.
func metricsCmd(w io.Writer, addr, prefix string) error {
	resp, err := (&http.Client{Timeout: 5 * time.Second}).Get("http://" + addr + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	if prefix == "" {
		_, err = io.Copy(w, resp.Body)
		return err
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		name := line
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			name = line[len("# HELP "):]
		}
		if strings.HasPrefix(name, prefix) {
			fmt.Fprintln(w, line)
		}
	}
	return sc.Err()
}

// flushCmd forces one server to stage out every dirty byte. The wait is
// bounded server-side by its flush timeout.
func flushCmd(addr string) error {
	_, err := controlExchange(addr, &transport.Request{Type: transport.MsgFlush}, flushTimeout)
	return err
}

// rebalanceStatusCmd prints one server's stripe-migration progress:
// lifetime files/bytes moved, error and pending counts, and the ring
// epoch the server's layouts were last reconciled against (compare
// with `cluster status`'s epoch — equal means settled).
func rebalanceStatusCmd(w io.Writer, addr string) error {
	resp, err := controlExchange(addr, &transport.Request{Type: transport.MsgRebalanceStatus}, queryTimeout)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\treconciled-epoch %d\n", addr, resp.Epoch)
	for _, line := range resp.Names {
		fmt.Fprintf(w, "%s\t%s\n", addr, line)
	}
	return nil
}

// policySetCmd installs a new cluster-wide sharing policy through one
// member. The member validates the string, so a typo comes back as the
// parser's error before anything changes anywhere.
func policySetCmd(w io.Writer, addr, policyStr string) error {
	resp, err := controlExchange(addr, &transport.Request{
		Type: transport.MsgPolicySet, PolicyStr: policyStr,
	}, queryTimeout)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\tpolicy %s\tepoch %d\n", addr, resp.PolicyStr, resp.PolicyEpoch)
	return nil
}

// policyStatusCmd prints one server's enforced policy and per-entity
// fairness report: compiled token share vs measured serviced-byte
// share with the convergence residual, per job, user and group. After
// a `policy set`, every server converging to the new epoch with small
// residuals is the live signal the swap has landed.
//
// top and kind page the report server-side (top N by |residual|,
// optionally one entity kind) so a 100k-entity fabric answers with a
// screenful, not the world.
func policyStatusCmd(w io.Writer, addr string, top int, kind string) error {
	resp, err := controlExchange(addr, &transport.Request{
		Type: transport.MsgShareReport, ShareTopN: top, ShareKind: kind,
	}, queryTimeout)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\tpolicy %s\tapplied-epoch %d\tscheduler-epoch %d\n",
		addr, resp.PolicyStr, resp.PolicyEpoch, resp.Epoch)
	for _, s := range resp.Shares {
		fmt.Fprintf(w, "%s\t%-5s %-24s compiled %.3f measured %.3f residual %+.3f (%d bytes)\n",
			addr, s.Kind, s.ID, s.Compiled, s.Measured, s.Residual(), s.Bytes)
	}
	return nil
}

// clusterCmd talks the fabric control protocol directly to one server.
func clusterCmd(w io.Writer, addr, sub string) error {
	var typ transport.MsgType
	switch sub {
	case "status":
		typ = transport.MsgClusterStatus
	case "drain":
		typ = transport.MsgDrain
	default:
		return fmt.Errorf("unknown subcommand %q (want status or drain)", sub)
	}
	resp, err := controlExchange(addr, &transport.Request{Type: typ}, queryTimeout)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "epoch %d, %d members (as seen by %s)\n", resp.Epoch, len(resp.Members), addr)
	for _, m := range cluster.FromRecords(resp.Members) {
		fmt.Fprintf(w, "%s\t%s\tincarnation %d\n", m.Addr, m.State, m.Incarnation)
	}
	return nil
}
