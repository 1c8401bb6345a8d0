// Package client is the ThemisIO client library: the POSIX-compliant
// interface of §4.4 (open/close/read/write/lseek/stat/opendir/readdir/
// unlink) over the wire protocol, with job metadata embedded in every
// request and periodic heartbeats to every server (§4.1). On a real
// deployment these entry points are reached by intercepting the libc
// symbols (override/trampoline, §4.4); here they are called directly —
// the arbitration problem is identical either way.
//
// With multiple servers the client places each path on servers via the
// same consistent hash the servers' file system uses. Files may be
// striped: data is split into stripe-unit chunks laid round-robin
// across the path's stripe set, and reads and writes fan out to the
// stripe servers in parallel, so one client's aggregate bandwidth
// scales with the server count. A server that stops answering is
// removed from the client's ring, so its segment reassigns and I/O
// continues on the survivors (the client half of failover).
package client

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"themisio/internal/chash"
	"themisio/internal/cluster"
	"themisio/internal/policy"
	"themisio/internal/transport"
)

// Options tunes a client beyond the defaults. DialOpts validates: a
// negative field, or a StripeUnit that is not a power of two, is refused
// with an error matching ErrInvalidOptions (zero always means "default"
// — the zero Options value stays valid).
type Options struct {
	// Stripes is the number of servers each file's data spans (clipped
	// to the live server count; zero means 1, the unstriped placement
	// of the seed implementation).
	Stripes int
	// StripeUnit is the bytes written to one server before moving to
	// the next (zero selects DefaultStripeUnit). Must be a power of two:
	// the round-robin arithmetic assumes it.
	StripeUnit int64
	// ConnsPerServer is the connection-pool width per server: how many
	// TCP connections the client multiplexes its traffic to one server
	// over. Writes pin each (file, stripe) to one slot so per-stripe
	// append order is preserved; read chunks spread across all slots.
	// Zero selects DefaultConnsPerServer, a single connection.
	ConnsPerServer int
}

// DefaultStripeUnit is the stripe chunk size, matching the server-side
// file system's unit.
const DefaultStripeUnit = 1 << 20

// DefaultConnsPerServer is the pool width when Options.ConnsPerServer
// is zero: one connection, on which concurrent small requests share
// writes (group commit) — what the benchmark measures. Large striped
// reads may gain from a wider pool; the sweep is the first "Sized and
// not pursued" section of docs/PERFLOG.md.
const DefaultConnsPerServer = 1

// validateOptions refuses nonsense option values with typed usage
// errors instead of silent clamps. Zero always means "default".
func validateOptions(opts Options) error {
	if opts.Stripes < 0 {
		return fmt.Errorf("client: %w: Stripes %d is negative (0 means default)", ErrInvalidOptions, opts.Stripes)
	}
	if u := opts.StripeUnit; u < 0 || u&(u-1) != 0 {
		return fmt.Errorf("client: %w: StripeUnit %d is not a power of two (0 means default)", ErrInvalidOptions, u)
	}
	if opts.ConnsPerServer < 0 {
		return fmt.Errorf("client: %w: ConnsPerServer %d is negative (0 means default)", ErrInvalidOptions, opts.ConnsPerServer)
	}
	return nil
}

// Client is one application process's connection to the burst buffer.
type Client struct {
	job  policy.JobInfo
	ring *chash.Ring
	opts Options // defaults applied

	// peers holds the connection pool of every server the client has
	// reached. Its cooldown fast-fails a member that recently failed:
	// recorded stripe sets keep naming dead members, and re-dialing one
	// (a full dial timeout) on every stat would stall the client; a
	// member that comes back (restart, rejoin) is re-dialed after it.
	peers *transport.Peers

	mu       sync.Mutex
	draining map[string]bool // members to avoid for new placement
	seq      atomic.Uint64

	hbStop chan struct{}
	hbDone chan struct{}
}

// The client's peer-set parameters: pipelineWindow in-flight chunk RPCs
// per pool connection (the pool's write and read windows are each
// pipelineWindow × pool size), a 2 s dial, and a 3 s whole-server
// cooldown after a failed dial or a fail-over.
const (
	pipelineWindow  = 8
	peerDialTimeout = 2 * time.Second
	peerCooldown    = 3 * time.Second
)

// Dial connects to the given servers under the job identity with
// default options (no striping). The client begins heartbeating
// immediately so the servers' job monitors see the job before its
// first I/O.
func Dial(job policy.JobInfo, servers []string) (*Client, error) {
	return DialOpts(job, servers, Options{})
}

// DialOpts connects with explicit striping and pooling options,
// refusing invalid option values (see Options and ErrInvalidOptions).
// Every listed server must be reachable.
func DialOpts(job policy.JobInfo, servers []string, opts Options) (*Client, error) {
	if len(servers) == 0 {
		return nil, fmt.Errorf("client: no servers")
	}
	if err := validateOptions(opts); err != nil {
		return nil, err
	}
	if opts.Stripes == 0 {
		opts.Stripes = 1
	}
	if opts.StripeUnit == 0 {
		opts.StripeUnit = DefaultStripeUnit
	}
	if opts.ConnsPerServer == 0 {
		opts.ConnsPerServer = DefaultConnsPerServer
	}
	c := &Client{
		job:      job,
		ring:     chash.New(0),
		opts:     opts,
		peers:    transport.NewPeers(opts.ConnsPerServer, pipelineWindow, peerDialTimeout, peerCooldown),
		draining: map[string]bool{},
		hbStop:   make(chan struct{}),
		hbDone:   make(chan struct{}),
	}
	for _, addr := range servers {
		if _, err := c.ensurePool(addr); err != nil {
			c.peers.Close()
			return nil, err
		}
	}
	c.heartbeatAll()
	go c.heartbeatLoop()
	return c, nil
}

// Close notifies servers and tears down connections (§4.2: "when a
// client exits, it notifies the ThemisIO servers to destroy the
// corresponding mapping entry").
func (c *Client) Close() {
	close(c.hbStop)
	<-c.hbDone
	for _, p := range c.peers.Pools() {
		p.ForEach(func(mc *transport.MuxConn) {
			_ = mc.Send(&transport.Request{Type: transport.MsgBye, Job: c.job})
		})
	}
	c.peers.Close()
}

// Servers returns the addresses the client still considers live.
func (c *Client) Servers() []string { return c.ring.Nodes() }

func (c *Client) heartbeatLoop() {
	defer close(c.hbDone)
	tick := time.NewTicker(heartbeatPeriod)
	defer tick.Stop()
	for {
		select {
		case <-c.hbStop:
			return
		case <-tick.C:
			c.heartbeatAll()
			c.refreshMembership()
		}
	}
}

// refreshMembership asks one live server for the fabric's membership
// view: failed and left members are dropped from the placement ring
// proactively (not just after an I/O error), and draining members are
// remembered so new files avoid them. A server that does not answer is
// failed over by callAddr, and the next tick asks the next one.
func (c *Client) refreshMembership() {
	servers := c.Servers()
	if len(servers) == 0 {
		return
	}
	resp, err := c.callAddr(context.Background(), servers[0], "", &transport.Request{Type: transport.MsgClusterStatus})
	if err != nil {
		return
	}
	for _, m := range cluster.FromRecords(resp.Members) {
		switch m.State {
		case cluster.StateFailed, cluster.StateLeft:
			c.markFailed(m.Addr)
		case cluster.StateDraining:
			c.mu.Lock()
			c.draining[m.Addr] = true
			c.mu.Unlock()
		case cluster.StateAlive:
			c.mu.Lock()
			delete(c.draining, m.Addr)
			c.mu.Unlock()
			// A member this client has never dialed is a scale-out join:
			// connect and extend the placement ring, so new files spread
			// onto the added capacity and migrated layouts that name the
			// new member stay reachable. The dial runs off this loop — a
			// member the fabric gossips alive but this client cannot
			// reach (asymmetric partition) must not stall the heartbeat
			// cadence for the healthy servers; the peer set's cooldown
			// keeps the retries bounded.
			if !slices.Contains(servers, m.Addr) {
				go func(addr string) { _, _ = c.ensurePool(addr) }(m.Addr)
			}
		}
	}
}

// ensurePool returns the live connection pool for addr, building it on
// first use — recorded stripe sets and the membership view may name
// servers this client was never configured with (members that joined
// after the client dialed in), and those extend the placement ring.
// Recently unreachable members fail fast.
func (c *Client) ensurePool(addr string) (*transport.Pool, error) {
	p, cached, err := c.peers.Get(addr)
	if err != nil {
		return nil, fmt.Errorf("client: no live connection to %s: %w", addr, err)
	}
	if !cached {
		c.ring.Add(addr)
	}
	return p, nil
}

func (c *Client) heartbeatAll() {
	for _, p := range c.peers.Pools() {
		// Every open connection of the pool heartbeats: the server's job
		// monitor only needs one, but each connection's liveness is only
		// proven by traffic on that connection. The server is failed over
		// when no connection could carry the heartbeat — one bad slot
		// among healthy ones is the pool's problem (cooldown + fallback),
		// not a server failure.
		sent := 0
		p.ForEach(func(mc *transport.MuxConn) {
			if err := mc.Send(&transport.Request{
				Type: transport.MsgHeartbeat,
				Seq:  c.seq.Add(1),
				Job:  c.job,
			}); err == nil {
				sent++
			}
		})
		if sent == 0 {
			c.markFailed(p.Addr())
		}
	}
}

// markFailed drops a server the client could not reach: its whole
// connection pool closes and its ring segment reassigns to the
// survivors, mirroring the fabric's failover. Subsequent placement
// follows the shrunken ring.
func (c *Client) markFailed(addr string) {
	c.peers.Drop(addr)
	c.ring.Remove(addr)
}

// SetPolicy installs a new cluster-wide sharing policy through any
// live server — the client face of the live hot-swap. The contacted
// member validates the policy string, bumps the cluster policy epoch,
// and gossip carries the new version to every other member; each
// server recompiles at its next λ with no restart and no dropped
// request. Returns the canonical policy string and the new epoch.
func (c *Client) SetPolicy(policyStr string) (string, uint64, error) {
	// An application error (an unparseable policy string) is the same on
	// every member, and call does not retry it around the ring.
	resp, _, err := c.call(context.Background(), "", &transport.Request{
		Type: transport.MsgPolicySet, PolicyStr: policyStr,
	})
	if err != nil {
		return "", 0, err
	}
	return resp.PolicyStr, resp.PolicyEpoch, nil
}

// ShareReport is one server's per-entity fairness report: the policy
// it is enforcing (string + applied cluster policy epoch) and each
// sharing entity's compiled token share versus measured serviced-byte
// share over the server's λ-windowed horizon.
type ShareReport struct {
	Addr        string
	Policy      string
	PolicyEpoch uint64
	Shares      []transport.ShareRecord
}

// ShareReports collects every connected server's fairness report, in
// address order — the raw material of `themisctl policy status` and of
// swap-convergence checks (aggregate Bytes per entity across servers
// for the cluster-wide measured share).
func (c *Client) ShareReports() ([]ShareReport, error) {
	addrs := c.Servers()
	resps, err := strict(c.fanOut(context.Background(), addrs, "", func(int) *transport.Request {
		return &transport.Request{Type: transport.MsgShareReport}
	}))
	if err != nil {
		return nil, err
	}
	out := make([]ShareReport, len(addrs))
	for i, r := range resps {
		out[i] = ShareReport{Addr: addrs[i], Policy: r.PolicyStr, PolicyEpoch: r.PolicyEpoch, Shares: r.Shares}
	}
	return out, nil
}
