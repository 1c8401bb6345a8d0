package transport

import (
	"net"
	"reflect"
	"testing"
	"time"

	"themisio/internal/jobtable"
	"themisio/internal/policy"
)

func pipePair() (*Conn, *Conn) {
	a, b := net.Pipe()
	return NewConn(a), NewConn(b)
}

func TestResponseRoundTripAndError(t *testing.T) {
	c1, c2 := pipePair()
	defer c1.Close()
	defer c2.Close()
	go func() {
		_ = c2.SendResponse(&Response{Seq: 7, Err: "fsys: no such file or directory"})
	}()
	got, err := c1.RecvResponse()
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 7 || got.Error() == nil {
		t.Fatalf("response: %+v", got)
	}
	ok := &Response{Seq: 8}
	if ok.Error() != nil {
		t.Fatal("empty Err should be nil error")
	}
}

func TestMsgTypeStrings(t *testing.T) {
	for m, want := range map[MsgType]string{
		MsgCreate: "create", MsgRead: "read",
		MsgWrite: "write", MsgHeartbeat: "heartbeat",
	} {
		if m.String() != want {
			t.Fatalf("%d = %q, want %q", m, m.String(), want)
		}
	}
	if MsgType(99).String() == "" {
		t.Fatal("unknown type should render")
	}
}

// The cluster control frames (gossip push-pull, join, status) carry a
// job-table snapshot and a membership digest both ways.
func TestGossipFrameRoundTrip(t *testing.T) {
	ca, cb := pipePair()
	defer ca.Close()
	defer cb.Close()
	req := &Request{
		Type: MsgGossip,
		Seq:  42,
		From: "127.0.0.1:7001",
		Table: []jobtable.Entry{{
			Info:    policy.JobInfo{JobID: "j1", UserID: "u1", Nodes: 4},
			Last:    3 * time.Second,
			Servers: map[string]bool{"127.0.0.1:7001": true},
			Demand:  9,
		}},
		Members: []MemberRecord{
			{Addr: "127.0.0.1:7000", State: 0, Incarnation: 1},
			{Addr: "127.0.0.1:7001", State: 3, Incarnation: 5},
		},
	}
	go func() { _ = ca.SendRequest(req) }()
	got, err := cb.RecvRequest()
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != MsgGossip || got.From != req.From || len(got.Members) != 2 ||
		got.Members[1].Incarnation != 5 || !reflect.DeepEqual(got.Table, req.Table) {
		t.Fatalf("request round trip lost fields: %+v", got)
	}
	resp := &Response{
		Seq:     42,
		Epoch:   7,
		Table:   req.Table,
		Members: req.Members,
	}
	go func() { _ = cb.SendResponse(resp) }()
	rgot, err := ca.RecvResponse()
	if err != nil {
		t.Fatal(err)
	}
	if rgot.Epoch != 7 || len(rgot.Members) != 2 || !reflect.DeepEqual(rgot.Table, req.Table) {
		t.Fatalf("response round trip lost fields: %+v", rgot)
	}
	for _, m := range []MsgType{MsgGossip, MsgJoin, MsgLeave, MsgClusterStatus, MsgDrain} {
		if m.String() == "" || m.String()[0] == 'm' {
			t.Fatalf("missing name for %d", uint8(m))
		}
	}
}
