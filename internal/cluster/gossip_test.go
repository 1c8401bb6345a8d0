package cluster

import (
	"net"
	"testing"
	"time"

	"themisio/internal/jobtable"
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
