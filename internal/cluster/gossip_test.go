package cluster

import (
	"math"
	"net"
	"testing"
	"time"

	"themisio/internal/jobtable"
	"themisio/internal/policy"
	"themisio/internal/transport"
)

// A peer that accepts the connection and then never answers costs the
// caller one exchange timeout, and the failure is reported — a wedged
// member must not stall the λ loop (and with it failure detection).
func TestExchangeWithWedgedPeerIsBounded(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			defer raw.Close() // held open, never read
		}
	}()
	n := NewNode(Config{Self: "127.0.0.1:1"}, jobtable.New("127.0.0.1:1", 0))
	defer n.Close()
	start := time.Now()
	err = n.Join([]string{ln.Addr().String()}, 0)
	if err == nil {
		t.Fatal("join through a seed that never answers reported success")
	}
	if d := time.Since(start); d > exchangeTimeout+time.Second {
		t.Fatalf("wedged exchange took %v, want about %v", d, exchangeTimeout)
	}
}

// Job-table rows cross the fabric as ages, so servers need no common
// clock. Two nodes whose clocks started an hour apart trade rows both
// ways, the push that Handle merges and the reply that absorb merges, and
// each row leaves the receiver's active set at the same age as the
// sender's. A negative age counts as a sighting at the receiver's now,
// and one near the int64 limit as an old one: no peer can pin a job
// active.
func TestRowAgesCrossClocks(t *testing.T) {
	const timeout = 300 * time.Millisecond
	const skew = time.Hour // the older node's clock reads this much more
	older := NewNode(Config{Self: "older"}, jobtable.New("older", timeout))
	younger := NewNode(Config{Self: "younger"}, jobtable.New("younger", timeout))
	defer older.Close()
	defer younger.Close()
	job := func(id string) policy.JobInfo { return policy.JobInfo{JobID: id, UserID: "u", Nodes: 1} }
	active := func(n *Node, id string, at time.Duration) bool {
		st, ok := n.tab.StatusOf(id, at)
		return ok && st == jobtable.Active
	}
	// Each job is sighted on one node and exchanged 100 ms (younger
	// clock) after the younger node's clock started.
	older.tab.Observe(job("pushed"), skew)
	younger.tab.Observe(job("pulled"), 50*time.Millisecond)
	resp := younger.Handle(older.digest(transport.MsgGossip, skew+100*time.Millisecond), 100*time.Millisecond)
	older.absorb("younger", resp, skew+100*time.Millisecond)
	for _, c := range []struct {
		id      string
		n       *Node
		sighted time.Duration // on n's clock
	}{
		{"pushed", older, skew}, {"pushed", younger, 0},
		{"pulled", younger, 50 * time.Millisecond}, {"pulled", older, skew + 50*time.Millisecond},
	} {
		if !active(c.n, c.id, c.sighted+timeout) || active(c.n, c.id, c.sighted+timeout+1) {
			t.Errorf("%s on %s: active at the timeout %v, after it %v; want active, then not",
				c.id, c.n.cfg.Self, active(c.n, c.id, c.sighted+timeout), active(c.n, c.id, c.sighted+timeout+1))
		}
	}

	const now = time.Second
	younger.Handle(&transport.Request{Type: transport.MsgGossip, From: "hostile", Table: []jobtable.Entry{
		{Info: job("future"), Last: -time.Hour},
		{Info: job("ancient"), Last: math.MaxInt64},
	}}, now)
	if !active(younger, "future", now+timeout) || active(younger, "future", now+timeout+1) {
		t.Error("a negative age must count as a sighting now: active for one timeout, then not")
	}
	for _, at := range []time.Duration{now, now + time.Second, now + skew} {
		if active(younger, "ancient", at) {
			t.Errorf("a row of age MaxInt64 is active at %v", at)
		}
	}
}
