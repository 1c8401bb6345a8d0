// Gossip-based λ-sync: an epidemic push-pull exchange in place of an
// all-to-all job-table fan-out. Every λ round a node contacts k
// uniformly random gossipable peers, pushes its job-table snapshot and
// membership digest, and pulls the peer's in the reply. Push-pull
// epidemic dissemination infects all N members in O(log N) rounds with
// high probability, so every server's job table converges within a
// small multiple of λ while each server maintains only k connections
// per round instead of N-1. Peers are reached through a
// transport.Peers set: one cached connection each, redialed once when a
// cached connection turns out stale (every exchange is an idempotent
// merge). Servers share no clock, so a job-table row crosses the wire
// as its sighting's age, converted from and back to the local clock at
// each end (ages and times, below).
package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"themisio/internal/jobtable"
	"themisio/internal/policy"
	"themisio/internal/transport"
)

// DefaultFanout is the gossip fan-out k when none is configured. Two
// push-pull contacts per round keeps rumor spread comfortably
// supercritical at the cluster sizes in the paper (1–128 servers).
const DefaultFanout = 2

// Config parameterizes a cluster node.
type Config struct {
	// Self is the advertised (listen) address of this server.
	Self string
	// Fanout is the number of random peers contacted per gossip round
	// (non-positive selects DefaultFanout).
	Fanout int
	// FailTimeout confirms a suspect member failed after this sighting
	// age (non-positive selects DefaultFailTimeout).
	FailTimeout time.Duration
	// Seed fixes the peer-selection stream for deterministic tests.
	Seed int64
}

// Node binds a server's membership view, its job table, and the gossip
// transport into one fabric endpoint. The owning server calls Gossip
// every λ from its controller and routes incoming cluster control
// messages to Handle.
type Node struct {
	cfg Config
	mem *Membership
	tab *jobtable.Table

	peers *transport.Peers

	mu  sync.Mutex // guards rng
	rng *rand.Rand

	// rounds counts completed Gossip calls (λ rounds), for the
	// operator metrics endpoint.
	rounds atomic.Int64

	// pmu guards the cluster-wide policy version rumor. Epoch 0 is the
	// pre-hot-swap state — every server runs its own boot policy and
	// nothing is gossiped; the first live `policy set` anywhere starts
	// the epoch sequence and from then on the whole fabric converges on
	// one policy.
	pmu      sync.Mutex
	polStr   string
	polEpoch uint64
}

// NewNode creates a fabric endpoint for the server at cfg.Self whose
// job table is tab.
func NewNode(cfg Config, tab *jobtable.Table) *Node {
	if cfg.Fanout <= 0 {
		cfg.Fanout = DefaultFanout
	}
	return &Node{
		cfg:   cfg,
		mem:   NewMembership(cfg.Self, cfg.FailTimeout),
		tab:   tab,
		peers: transport.NewPeers(1, 1, dialTimeout, 0),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
}

// dialTimeout bounds one peer dial; exchangeTimeout bounds a whole
// exchange, so a peer that accepted the connection but never replies
// (wedged process, half-open socket) cannot stall the caller's λ loop —
// and with it failure detection — forever.
const (
	dialTimeout     = 500 * time.Millisecond
	exchangeTimeout = 4 * dialTimeout
)

// Membership returns the node's membership view.
func (n *Node) Membership() *Membership { return n.mem }

// GossipRounds returns the number of λ gossip rounds run since boot.
func (n *Node) GossipRounds() int64 { return n.rounds.Load() }

// PolicyVersion returns the cluster-wide policy rumor this node holds:
// the canonical policy string and its epoch. Epoch 0 means no live
// policy set has ever happened (each server still runs its boot
// policy, and the empty string rides along).
func (n *Node) PolicyVersion() (string, uint64) {
	n.pmu.Lock()
	defer n.pmu.Unlock()
	return n.polStr, n.polEpoch
}

// ProposePolicy installs s (already validated and canonicalized by the
// caller) as a new cluster-wide policy version on this node: the epoch
// advances past every version the node has seen, so the rumor
// supersedes the current one everywhere gossip carries it. Returns the
// new epoch.
func (n *Node) ProposePolicy(s string) uint64 {
	n.pmu.Lock()
	defer n.pmu.Unlock()
	n.polEpoch++
	n.polStr = s
	return n.polEpoch
}

// MergePolicy folds a gossiped policy rumor into the node: a higher
// epoch wins outright; equal epochs tie-break on the lexically greater
// string so two concurrent sets at the same epoch still converge
// cluster-wide. Epoch-0 rumors (no set has happened) and strings that
// do not parse as a policy are ignored. Reports whether the local
// version changed.
func (n *Node) MergePolicy(s string, epoch uint64) bool {
	if epoch == 0 {
		return false
	}
	n.pmu.Lock()
	defer n.pmu.Unlock()
	if epoch < n.polEpoch || (epoch == n.polEpoch && s <= n.polStr) {
		return false
	}
	if _, err := policy.Parse(s); err != nil {
		return false
	}
	n.polStr = s
	n.polEpoch = epoch
	return true
}

// Records converts a membership digest to its wire form.
func Records(members []Member) []transport.MemberRecord {
	out := make([]transport.MemberRecord, len(members))
	for i, m := range members {
		out[i] = transport.MemberRecord{Addr: m.Addr, State: uint8(m.State), Incarnation: m.Incarnation}
	}
	return out
}

// FromRecords converts a wire digest back to membership rumors.
func FromRecords(recs []transport.MemberRecord) []Member {
	out := make([]Member, len(recs))
	for i, r := range recs {
		out[i] = Member{Addr: r.Addr, State: State(r.State), Incarnation: r.Incarnation}
	}
	return out
}

// Join contacts the seed addresses, announces self, and merges the
// returned membership and job table. One reachable seed suffices; the
// error reports only total failure.
func (n *Node) Join(seeds []string, now time.Duration) error {
	if len(seeds) == 0 {
		return nil
	}
	var lastErr error
	joined := false
	for _, addr := range seeds {
		if addr == "" || addr == n.cfg.Self {
			continue
		}
		resp, err := n.exchange(addr, n.digest(transport.MsgJoin, now))
		if err != nil {
			lastErr = err
			continue
		}
		n.absorb(addr, resp, now)
		joined = true
	}
	if !joined && lastErr != nil {
		return fmt.Errorf("cluster: join: %w", lastErr)
	}
	return nil
}

// Gossip runs one λ round at time now: failure-detection tick, then a
// push-pull exchange with up to Fanout random gossipable peers. What it
// merges into the job table is published by the owner's next compile.
func (n *Node) Gossip(now time.Duration) {
	n.rounds.Add(1)
	n.mem.Tick(now)
	for _, addr := range n.sample(n.mem.Peers(), n.cfg.Fanout) {
		resp, err := n.exchange(addr, n.digest(transport.MsgGossip, now))
		if err != nil {
			n.mem.ReportFailure(addr, now)
			continue
		}
		n.absorb(addr, resp, now)
	}
	n.scrub()
}

// sample picks up to k distinct elements of peers uniformly at random.
func (n *Node) sample(peers []string, k int) []string {
	if len(peers) <= k {
		return peers
	}
	n.mu.Lock()
	idx := n.rng.Perm(len(peers))[:k]
	n.mu.Unlock()
	out := make([]string, 0, k)
	for _, i := range idx {
		out = append(out, peers[i])
	}
	return out
}

// digest builds a push frame of the given type at time now: the
// job-table snapshot as ages, the membership digest and the policy rumor.
func (n *Node) digest(typ transport.MsgType, now time.Duration) *transport.Request {
	req := &transport.Request{
		Type:    typ,
		From:    n.cfg.Self,
		Table:   ages(n.tab.Snapshot(), now),
		Members: Records(n.mem.Snapshot()),
	}
	req.PolicyStr, req.PolicyEpoch = n.PolicyVersion()
	return req
}

// exchange performs one bounded request/response round trip with a
// peer.
func (n *Node) exchange(addr string, req *transport.Request) (*transport.Response, error) {
	ctx, cancel := context.WithTimeout(context.Background(), exchangeTimeout)
	defer cancel()
	return n.peers.Call(ctx, addr, req)
}

// absorb merges a pull reply from addr into the local view and
// releases it.
func (n *Node) absorb(addr string, resp *transport.Response, now time.Duration) {
	defer resp.Release()
	n.mem.Sighting(addr, now)
	n.mem.Merge(FromRecords(resp.Members), now)
	n.tab.Merge(times(resp.Table, now), now)
	n.MergePolicy(resp.PolicyStr, resp.PolicyEpoch)
	n.scrub()
}

// ages rewrites each row's Last, a time on this node's clock, as its age
// at now: the form a row crosses the fabric in, since another server's
// clock started at another moment.
func ages(rows []jobtable.Entry, now time.Duration) []jobtable.Entry {
	for i := range rows {
		rows[i].Last = now - rows[i].Last
	}
	return rows
}

// times rewrites each received row's age as a time on this node's clock.
// A skewed or hostile peer's age is clamped to [0, maxAge]: below zero
// it would date a sighting in this node's future, and near the int64
// limit a later now−Last would wrap negative; either pins the job active.
func times(rows []jobtable.Entry, now time.Duration) []jobtable.Entry {
	for i := range rows {
		rows[i].Last = now - min(max(rows[i].Last, 0), maxAge)
	}
	return rows
}

// maxAge is the oldest age a received row keeps: 146 years.
const maxAge = time.Duration(1 << 62)

// Handle services an incoming cluster control request (the server's
// communicator routes MsgGossip/MsgJoin/MsgLeave/MsgClusterStatus/
// MsgDrain here) and returns the reply frame.
func (n *Node) Handle(req *transport.Request, now time.Duration) *transport.Response {
	resp := &transport.Response{Seq: req.Seq}
	switch req.Type {
	case transport.MsgGossip, transport.MsgJoin:
		if req.From != "" {
			n.mem.Sighting(req.From, now)
		}
		n.mem.Merge(FromRecords(req.Members), now)
		n.tab.Merge(times(req.Table, now), now)
		n.MergePolicy(req.PolicyStr, req.PolicyEpoch)
		n.scrub()
		resp.Table = ages(n.tab.Snapshot(), now)
		resp.Members = Records(n.mem.Snapshot())
		resp.Epoch = n.mem.Epoch()
		resp.PolicyStr, resp.PolicyEpoch = n.PolicyVersion()
	case transport.MsgLeave:
		n.mem.Merge(FromRecords(req.Members), now)
		if req.From != "" {
			n.tab.DropServer(req.From)
		}
		n.scrub()
		resp.Members = Records(n.mem.Snapshot())
	case transport.MsgDrain:
		n.mem.Drain()
		resp.Members = Records(n.mem.Snapshot())
		resp.Epoch = n.mem.Epoch()
	case transport.MsgClusterStatus:
		resp.Members = Records(n.mem.Snapshot())
		resp.Epoch = n.mem.Epoch()
	default:
		resp.Err = fmt.Sprintf("cluster: unexpected %v", req.Type)
	}
	return resp
}

// scrub removes failed and departed members' job-table sightings so
// each affected job's presence — and with it the 1/k token deweighting
// — shifts to the surviving servers (the failover half of Figure 5's
// token-count reconciliation). It runs after every merge, not just on
// the failure transition, because a merge from a peer that has not yet
// learned of the failure would otherwise resurrect the dead server in
// the union of observed-server sets.
func (n *Node) scrub() {
	for _, m := range n.mem.Snapshot() {
		if m.State == StateFailed || m.State == StateLeft {
			n.tab.DropServer(m.Addr)
		}
	}
}

// Leave gossips a final departure digest to up to Fanout peers and
// closes all cached connections.
func (n *Node) Leave(now time.Duration) {
	n.mem.Leave()
	req := &transport.Request{
		Type:    transport.MsgLeave,
		From:    n.cfg.Self,
		Members: Records(n.mem.Snapshot()),
	}
	for _, addr := range n.sample(n.mem.Peers(), n.cfg.Fanout) {
		if resp, err := n.exchange(addr, req); err == nil {
			resp.Release()
		}
	}
	n.Close()
}

// Close tears down cached peer connections.
func (n *Node) Close() { n.peers.Close() }
