package transport

import (
	"testing"

	"themisio/internal/policy"
)

func sampleRequest() *Request {
	return &Request{
		Type:        MsgWrite,
		Seq:         99,
		Job:         policy.JobInfo{JobID: "j", UserID: "u", GroupID: "g", Nodes: 8, Priority: 2, Presence: 3},
		Path:        "/data/x",
		Offset:      1 << 40,
		Size:        4096,
		Data:        []byte{1, 2, 3, 4, 5},
		Stripes:     4,
		StripeUnit:  256 << 10,
		StripeSet:   []string{"a:1", "b:2", "c:3", "d:4"},
		MigrateOp:   MigrateCommit,
		Gen:         17,
		LayoutGen:   3,
		From:        "127.0.0.1:7777",
		PolicyStr:   "user-then-size-fair",
		PolicyEpoch: 6,
	}
}

// The codec round-trips every request and response field over a
// connection pair.
func TestBinaryRoundTrip(t *testing.T) {
	c1, c2 := pipePair()
	defer c1.Close()
	defer c2.Close()
	want := sampleRequest()
	done := make(chan *Request, 1)
	go func() {
		got, err := c2.RecvRequest()
		if err != nil {
			t.Error(err)
			done <- nil
			return
		}
		done <- got
	}()
	if err := c1.SendRequest(want); err != nil {
		t.Fatal(err)
	}
	got := <-done
	if got == nil {
		t.Fatal("no request")
	}
	if got.Type != want.Type || got.Seq != want.Seq || got.Job != want.Job ||
		got.Path != want.Path || got.Offset != want.Offset || got.Size != want.Size ||
		string(got.Data) != string(want.Data) || got.Stripes != want.Stripes ||
		got.StripeUnit != want.StripeUnit || len(got.StripeSet) != 4 ||
		got.StripeSet[3] != "d:4" || got.From != want.From ||
		got.MigrateOp != want.MigrateOp || got.Gen != want.Gen ||
		got.LayoutGen != want.LayoutGen || got.PolicyStr != want.PolicyStr ||
		got.PolicyEpoch != want.PolicyEpoch {
		t.Fatalf("binary request round trip: %+v", got)
	}
	wantResp := &Response{
		Seq: 99, N: 5, Data: []byte{9, 8}, Size: 123, IsDir: true,
		Names: []string{"x", "y"}, Stripes: 2, StripeUnit: 1 << 20,
		StripeSet: []string{"a:1", "b:2"}, LayoutGen: 4, Gen: 21, Epoch: 7,
		Members:   []MemberRecord{{Addr: "a:1", State: 2, Incarnation: 11}},
		PolicyStr: "size-fair", PolicyEpoch: 6,
		Shares: []ShareRecord{
			{Kind: "job", ID: "j1", Compiled: 0.75, Measured: 0.743, Bytes: 1 << 30},
			{Kind: "user", ID: "alice", Compiled: 0.25, Measured: 0.26, Bytes: 4096},
		},
	}
	go func() {
		if err := c2.SendResponse(wantResp); err != nil {
			t.Error(err)
		}
	}()
	gotResp, err := c1.RecvResponse()
	if err != nil {
		t.Fatal(err)
	}
	if gotResp.Seq != 99 || gotResp.N != 5 || string(gotResp.Data) != string(wantResp.Data) ||
		!gotResp.IsDir || gotResp.Size != 123 || len(gotResp.Names) != 2 ||
		gotResp.Epoch != 7 || len(gotResp.Members) != 1 ||
		gotResp.Members[0].Incarnation != 11 || len(gotResp.StripeSet) != 2 ||
		gotResp.LayoutGen != 4 || gotResp.Gen != 21 ||
		gotResp.PolicyStr != "size-fair" || gotResp.PolicyEpoch != 6 ||
		len(gotResp.Shares) != 2 || gotResp.Shares[0] != wantResp.Shares[0] ||
		gotResp.Shares[1] != wantResp.Shares[1] {
		t.Fatalf("binary response round trip: %+v", gotResp)
	}
}

// Encode/decode are exact inverses on the raw frame level, including
// empty and nil fields.
func TestCodecSymmetry(t *testing.T) {
	reqs := []*Request{
		{},
		{Type: MsgBye},
		sampleRequest(),
		{Type: MsgRead, Seq: 1, Path: "/r", Offset: -1, Size: 1 << 20},
	}
	for i, want := range reqs {
		b := appendRequest(nil, want)
		var got Request
		if err := decodeRequest(b, &got); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.Type != want.Type || got.Seq != want.Seq || got.Job != want.Job ||
			got.Path != want.Path || got.Offset != want.Offset ||
			string(got.Data) != string(want.Data) || len(got.StripeSet) != len(want.StripeSet) {
			t.Fatalf("case %d mismatch: %+v vs %+v", i, got, want)
		}
	}
}
