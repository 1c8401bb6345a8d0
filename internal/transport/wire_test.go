package transport

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"themisio/internal/jobtable"
	"themisio/internal/policy"
)

// Data-frame wire bytes are pinned: these four frames encode to the same
// hex on the commit before the gob codec was deleted and on every commit
// since. The message type numbers after the retired slot 11 are pinned
// with them.
func TestGoldenDataFrames(t *testing.T) {
	job := policy.JobInfo{JobID: "job-7", UserID: "alice", GroupID: "g1", Nodes: 4, Priority: 1, Presence: 2}
	for _, c := range []struct {
		name string
		got  []byte
		want string
	}{
		{"write request", AppendRequestFrame(nil, &Request{Type: MsgWrite, Seq: 300, Job: job, Path: "/ckpt/rank0",
			Data: []byte("payload!"), LayoutGen: 3, AppendAt: true, AppendOff: 1 << 20}),
			"03ac02056a6f622d3705616c6963650267310802040b2f636b70742f72616e6b300000087061796c6f61642100000000000300000000000180808001"},
		{"read request", AppendRequestFrame(nil, &Request{Type: MsgRead, Seq: 301, Job: job, Path: "/ckpt/rank0",
			Offset: 65536, Size: 4096, LayoutGen: 3}),
			"02ad02056a6f622d3705616c6963650267310802040b2f636b70742f72616e6b308080088040000000000000030000000000"},
		{"write response", AppendResponseFrame(nil, &Response{Seq: 300, N: 8, Caps: CapAppendAt}),
			"ac02001000000000000000000000000000000001"},
		{"read response", AppendResponseFrame(nil, &Response{Seq: 301, N: 4, Data: []byte{0xde, 0xad, 0xbe, 0xef}, Caps: CapAppendAt}),
			"ad02000804deadbeef000000000000000000000000000001"},
	} {
		if got := hex.EncodeToString(c.got); got != c.want {
			t.Errorf("%s wire bytes changed:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
	for m, want := range map[MsgType]uint8{
		MsgBye: 10, MsgGossip: 12, MsgJoin: 13, MsgLeave: 14, MsgClusterStatus: 15, MsgDrain: 16,
		MsgFlush: 17, MsgMigrate: 18, MsgRebalanceStatus: 19, MsgPolicySet: 20, MsgShareReport: 21,
	} {
		if uint8(m) != want {
			t.Errorf("%v renumbered: %d, want %d", m, uint8(m), want)
		}
	}
}

// A stream that does not open with the codec magic — an old gob peer's
// first bytes, or noise — is refused by both receive calls with nothing
// decoded.
func TestHostileStreamRefused(t *testing.T) {
	noise := make([]byte, 64)
	rand.New(rand.NewSource(1)).Read(noise)
	noise[0] = 0x7f // never the magic's leading zero
	// How gob.NewEncoder(w).Encode(&Request{...}) opens a stream: the
	// type definition of "Request".
	gobPrefix, _ := hex.DecodeString("2e7f030101075265717565737401ff80000103010454797065010600010353657101060001")
	for name, prefix := range map[string][]byte{"gob": gobPrefix, "noise": noise} {
		for _, recv := range []string{"request", "response"} {
			a, b := net.Pipe()
			go func() {
				_, _ = a.Write(append(append([]byte{}, prefix...), make([]byte, 64)...))
			}()
			_ = b.SetDeadline(time.Now().Add(5 * time.Second))
			c := NewConn(b)
			var msg any
			var err error
			if recv == "request" {
				msg, err = c.RecvRequest()
			} else {
				msg, err = c.RecvResponse()
			}
			if err != errBadMagic || !reflect.ValueOf(msg).IsNil() {
				t.Errorf("%s prefix, recv %s: msg=%v err=%v, want nil and errBadMagic", name, recv, msg, err)
			}
			if c.magicSeen {
				t.Errorf("%s prefix: receive side latched a magic it never saw", name)
			}
			a.Close()
			c.Close()
		}
	}
}

// gossipRequest is a full control frame: job table, membership and the
// policy rumor.
func gossipRequest() *Request {
	return &Request{
		Type: MsgGossip, Seq: 42, From: "127.0.0.1:7001",
		Table: []jobtable.Entry{
			{Info: policy.JobInfo{JobID: "j1", UserID: "u1", GroupID: "g", Nodes: 4, Priority: 1},
				Last: 3 * time.Second, Servers: map[string]bool{"s1": true, "s2": true}},
			{Info: policy.JobInfo{JobID: "j2"}, Last: -1},
		},
		Members:   []MemberRecord{{Addr: "s1", State: 1, Incarnation: 3}, {Addr: "s2", State: 3, Incarnation: 5}},
		PolicyStr: "user-then-size-fair", PolicyEpoch: 6,
	}
}

func fuzzSeedRequests() [][]byte {
	at := sampleRequest()
	at.AppendAt, at.AppendOff = true, 1<<30
	flt := sampleRequest()
	flt.ShareTopN, flt.ShareKind = 20, "user"
	var out [][]byte
	for _, r := range []*Request{{}, sampleRequest(), gossipRequest(), at, flt} {
		out = append(out, appendRequest(nil, r))
	}
	full := out[2]
	return append(out, full[:len(full)/2], append(append([]byte{}, full...), 0x80, 0x01, 0xde))
}

// FuzzDecodeRequest: the request decoder never panics, allocates no more
// repeated-field entries than the input has bytes, and anything it
// accepts re-encodes and re-decodes to the same message.
func FuzzDecodeRequest(f *testing.F) {
	for _, b := range fuzzSeedRequests() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var r, again Request
		if decodeRequest(b, &r) != nil {
			return
		}
		if cap(r.Table) > len(b) || cap(r.Members) > len(b) || cap(r.StripeSet) > len(b) {
			t.Fatalf("%d-byte frame allocated table=%d members=%d set=%d", len(b), cap(r.Table), cap(r.Members), cap(r.StripeSet))
		}
		if err := decodeRequest(appendRequest(nil, &r), &again); err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !reflect.DeepEqual(&r, &again) {
			t.Fatalf("round trip changed the message:\n%+v\n%+v", r, again)
		}
	})
}

func fuzzSeedResponses() [][]byte {
	g := gossipRequest()
	var out [][]byte
	for _, r := range []*Response{
		{},
		{Seq: 7, Err: "fsys: no such file or directory"},
		{Seq: 300, N: 4, Data: []byte{1, 2, 3, 4}, Caps: CapAppendAt},
		{Seq: 42, Epoch: 7, Table: g.Table, Members: g.Members, PolicyStr: g.PolicyStr, PolicyEpoch: 6,
			Names: []string{"a", "b"}, StripeSet: []string{"s1", "s2"},
			Shares: []ShareRecord{{Kind: "job", ID: "j1", Compiled: 0.75, Measured: 0.743, Bytes: 1 << 30}}},
	} {
		out = append(out, appendResponse(nil, r))
	}
	return out
}

// FuzzDecodeResponse: the same three properties for responses.
func FuzzDecodeResponse(f *testing.F) {
	for _, b := range fuzzSeedResponses() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var r, again Response
		if decodeResponse(b, &r) != nil {
			return
		}
		if cap(r.Table) > len(b) || cap(r.Members) > len(b) || cap(r.Shares) > len(b) ||
			cap(r.Names) > len(b) || cap(r.StripeSet) > len(b) {
			t.Fatalf("%d-byte frame allocated table=%d members=%d shares=%d", len(b), cap(r.Table), cap(r.Members), cap(r.Shares))
		}
		if err := decodeResponse(appendResponse(nil, &r), &again); err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		scrubNaN(r.Shares)
		scrubNaN(again.Shares)
		if !reflect.DeepEqual(&r, &again) {
			t.Fatalf("round trip changed the message:\n%+v\n%+v", r, again)
		}
	})
}

// scrubNaN makes share floats comparable with DeepEqual: the wire carries
// raw float bits, NaN included, and NaN != NaN.
func scrubNaN(ss []ShareRecord) {
	for i := range ss {
		if math.IsNaN(ss[i].Compiled) {
			ss[i].Compiled = -1
		}
		if math.IsNaN(ss[i].Measured) {
			ss[i].Measured = -1
		}
	}
}

// Equal tables encode to equal bytes whatever the map iteration order.
func TestTableEncodingDeterministic(t *testing.T) {
	want := appendRequest(nil, gossipRequest())
	for i := 0; i < 20; i++ {
		if !bytes.Equal(appendRequest(nil, gossipRequest()), want) {
			t.Fatal("the same table encoded to different bytes")
		}
	}
}

// A length prefix is a claim: a header announcing a near-maxFrame frame
// followed by 16 bytes and a hang-up must fail having committed about
// one lease class, not the gigabyte it announced.
func TestHostileLengthCommitsOneClass(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	go func() {
		hostile := append(binMagic[:], 0xff, 0xff, 0xff, 0x3f) // little-endian 0x3fffffff
		_, _ = a.Write(append(hostile, make([]byte, 16)...))
		a.Close()
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	req, err := NewConn(b).RecvRequest()
	runtime.ReadMemStats(&after)
	if err == nil || req != nil {
		t.Fatalf("truncated frame decoded: req=%v err=%v", req, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8<<20 {
		t.Fatalf("hostile header committed %d bytes, want less than 8 MiB", grew)
	}
}

// A legitimate frame above the top lease class — a gossip frame
// carrying a very large job table — still round-trips.
func TestOversizeFrameRoundTrip(t *testing.T) {
	req := gossipRequest()
	for i := 0; i < 120_000; i++ {
		req.Table = append(req.Table, jobtable.Entry{
			Info: policy.JobInfo{JobID: fmt.Sprintf("job-%07d", i), UserID: "some-user", GroupID: "some-group", Nodes: 4},
			Last: time.Duration(i), Servers: map[string]bool{"127.0.0.1:7001": true},
		})
	}
	top := leaseClasses[len(leaseClasses)-1]
	if n := len(AppendRequestFrame(nil, req)); n <= top {
		t.Fatalf("test frame is %d bytes, want more than the %d-byte top class", n, top)
	}
	ca, cb := pipePair()
	defer ca.Close()
	defer cb.Close()
	go func() { _ = ca.SendRequest(req) }()
	got, err := cb.RecvRequest()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Table, req.Table) || got.PolicyEpoch != req.PolicyEpoch {
		t.Fatal("oversize gossip frame lost fields in the round trip")
	}
}
