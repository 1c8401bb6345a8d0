package transport

import (
	"bytes"
	"net"
	"testing"
	"time"

	"themisio/internal/policy"
)

// sinkConn discards writes — the alloc-measurement target (a net.Pipe
// would block without a reader and a TCP socket would add syscalls).
type sinkConn struct{ net.Conn }

func (sinkConn) Write(p []byte) (int, error)      { return len(p), nil }
func (sinkConn) SetWriteDeadline(time.Time) error { return nil }

// The receive path leases the payload and the decoded Data aliases it —
// both directions, both payload sizes (folded flat and vectored).
func TestLeasedAliasRoundTrip(t *testing.T) {
	for _, size := range []int{64, sgMinPayload, 1 << 20} {
		c1, c2 := pipePair()
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		go func() {
			_ = c1.SendRequest(&Request{Type: MsgWrite, Seq: 3, Path: "/f", Data: payload})
		}()
		req, err := c2.RecvRequest()
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !bytes.Equal(req.Data, payload) {
			t.Fatalf("size %d: request payload corrupted", size)
		}
		if req.frame == nil {
			t.Fatalf("size %d: decoded request should own a lease", size)
		}
		req.Release()
		if req.Data != nil {
			t.Fatal("Release must nil Data so stale uses fail loudly")
		}
		// Response direction, with the lease attached server-style.
		go func() {
			resp := &Response{Seq: 3, N: int64(size)}
			lease := Lease(size)
			copy(lease, payload)
			resp.Data = lease
			resp.AttachLease(lease)
			_ = c2.SendResponse(resp)
			resp.Release()
		}()
		resp, err := c1.RecvResponse()
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !bytes.Equal(resp.Data, payload) {
			t.Fatalf("size %d: response payload corrupted", size)
		}
		resp.Release()
		c1.Close()
		c2.Close()
	}
}

// Release scribbles the buffer under the poison hook, so any alias read
// after Release shows corrupt data instead of a heisenbug.
func TestReleasePoison(t *testing.T) {
	SetLeasePoison(true)
	defer SetLeasePoison(false)
	b := Lease(64 << 10)
	for i := range b {
		b[i] = 0xaa
	}
	alias := b[100:200]
	Release(b)
	for i, v := range alias {
		if v != leasePoisonByte {
			t.Fatalf("alias[%d] = %#x after Release, want poison %#x", i, v, leasePoisonByte)
		}
	}
	// Oversized leases (above the top class) are plain allocations and
	// Release must leave them alone.
	big := Lease(8 << 20)
	big[0] = 1
	Release(big)
	if big[0] != 1 {
		t.Fatal("Release must not touch an above-class buffer")
	}
}

// A frame is its payload plus a header, and payloads are powers of two:
// every class has the head-room to hold its own payload's frame, so a
// 1 MiB write occupies a 1 MiB buffer and not the 4 MiB one above it.
func TestLeaseClassesHoldTheirFrames(t *testing.T) {
	if c := cap(Lease(1<<20 + 64)); c >= 2<<20 {
		t.Fatalf("a 1 MiB payload's frame leased %d bytes", c)
	}
	for _, payload := range []int{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20} {
		frame := AppendRequestFrame(nil, &Request{
			Type: MsgWrite, Seq: 1 << 40, Path: "/scratch/run-0042/rank-00017/checkpoint.bin",
			Job:  policy.JobInfo{JobID: "job-1234567", UserID: "some-user", GroupID: "some-group", Nodes: 64},
			Data: make([]byte, payload), AppendAt: true, AppendOff: 1 << 40, LayoutGen: 1 << 20,
		})
		b := Lease(len(frame))
		if c := cap(b); c >= 2*payload {
			t.Errorf("the %d-byte frame of a %d-byte payload leased %d bytes", len(frame), payload, c)
		}
		Release(b)
	}
}

// A segmented payload (DataSegs) is byte-identical on the wire to the
// same bytes sent flat, on both the folded and the vectored path.
func TestSegmentedSendEqualsFlat(t *testing.T) {
	for _, size := range []int{100, 64 << 10} {
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i * 13)
		}
		segs := [][]byte{payload[:size/3], payload[size/3 : size/2], payload[size/2:]}
		c1, c2 := pipePair()
		req := &Request{Type: MsgWrite, Seq: 9, Path: "/f", DataSegs: segs, LayoutGen: 2}
		go func() { _ = c1.SendRequest(req) }()
		got, err := c2.RecvRequest()
		if err != nil {
			t.Fatalf("size=%d: %v", size, err)
		}
		if !bytes.Equal(got.Data, payload) || got.DataSegs != nil {
			t.Fatalf("size=%d: segmented send did not arrive flat and intact", size)
		}
		if req.DataSegs == nil || req.Data != nil {
			t.Fatal("send must not mutate the caller's request")
		}
		got.Release()
		c1.Close()
		c2.Close()
	}
}

// The optional trailing groups: a frame with none set ends at the last
// fixed field (the group is a strict suffix), decodes with the flagged
// fields zero, and unknown trailing bytes are skipped unparsed.
func TestWireCompatTrailingFields(t *testing.T) {
	base := sampleRequest()
	old := appendRequest(nil, base)

	at := sampleRequest()
	at.AppendAt = true
	at.AppendOff = 1 << 30
	newer := appendRequest(nil, at)
	if !bytes.HasPrefix(newer, old) || len(newer) == len(old) {
		t.Fatal("the AppendAt group must extend the old encoding as a strict suffix")
	}

	var got Request
	if err := decodeRequest(old, &got); err != nil {
		t.Fatal(err)
	}
	if got.AppendAt || got.AppendOff != 0 {
		t.Fatal("an old-style frame must decode with the trailing fields zero")
	}
	if err := decodeRequest(newer, &got); err != nil {
		t.Fatal(err)
	}
	if !got.AppendAt || got.AppendOff != 1<<30 {
		t.Fatalf("trailing group lost: %+v", got)
	}
	// A yet-newer sender may append bytes this decoder has never heard
	// of; they must be ignored, not failed.
	future := append(append([]byte{}, newer...), 0x80, 0x01, 0xde, 0xad)
	if err := decodeRequest(future, &got); err != nil {
		t.Fatalf("unknown trailing bytes must be skipped: %v", err)
	}

	// The share-report paging filter rides the same flagged group, alone
	// or composed with AppendAt (fields in flag-bit order).
	flt := sampleRequest()
	flt.ShareTopN = 20
	flt.ShareKind = "user"
	fb := appendRequest(nil, flt)
	if !bytes.HasPrefix(fb, old) || len(fb) == len(old) {
		t.Fatal("the share-filter group must extend the old encoding as a strict suffix")
	}
	var gotF Request
	if err := decodeRequest(fb, &gotF); err != nil || gotF.ShareTopN != 20 || gotF.ShareKind != "user" {
		t.Fatalf("share filter lost: %+v err=%v", gotF, err)
	}
	if gotF.AppendAt {
		t.Fatal("filter-only frame must not imply AppendAt")
	}
	both := sampleRequest()
	both.AppendAt, both.AppendOff = true, 4096
	both.ShareTopN, both.ShareKind = 5, "group"
	var gotB Request
	if err := decodeRequest(appendRequest(nil, both), &gotB); err != nil ||
		!gotB.AppendAt || gotB.AppendOff != 4096 || gotB.ShareTopN != 5 || gotB.ShareKind != "group" {
		t.Fatalf("composed flag groups lost: %+v err=%v", gotB, err)
	}

	// Response side: the capability word.
	r := &Response{Seq: 7, N: 5, Size: 99}
	oldR := appendResponse(nil, r)
	r.Caps = CapAppendAt
	newR := appendResponse(nil, r)
	if !bytes.HasPrefix(newR, oldR) || len(newR) == len(oldR) {
		t.Fatal("the Caps word must extend the old encoding as a strict suffix")
	}
	var gotR Response
	if err := decodeResponse(oldR, &gotR); err != nil || gotR.Caps != 0 {
		t.Fatalf("old-style response: caps=%d err=%v", gotR.Caps, err)
	}
	if err := decodeResponse(newR, &gotR); err != nil || gotR.Caps != CapAppendAt {
		t.Fatalf("caps word lost: caps=%d err=%v", gotR.Caps, err)
	}
}

// The steady-state encode performs zero allocations, vectored and copied
// alike: a 64 KiB payload rides as an iovec between a head and a tail
// encoded in the connection's pending buffer, a 4 KiB one is copied
// into it, and the iovec list is the connection's reusable field. This
// is the regression pin for the send path.
func TestEncodeAllocs(t *testing.T) {
	for _, size := range []int{64 << 10, 4 << 10} {
		c := NewConn(sinkConn{})
		req := &Request{Type: MsgWrite, Seq: 1, Path: "/bench/file", Data: make([]byte, size), LayoutGen: 3}
		for i := 0; i < 8; i++ { // grow both pending buffers and the iovec array
			if err := c.SendRequest(req); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(200, func() {
			if err := c.SendRequest(req); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("%d-byte data frame encode = %v allocs/op, want 0", size, n)
		}
	}
}
