package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"

	"themisio/internal/fsys"
	"themisio/internal/policy"
	"themisio/internal/storage"
)

// countingSink is a shard that counts what passes through it.
type countingSink struct {
	*fsys.Shard
	reserves, refused, unreserves int
}

func (k *countingSink) Reserve(n int) (storage.Extent, []byte, error) {
	k.reserves++
	ext, b, err := k.Shard.Reserve(n)
	if err != nil {
		k.refused++
	}
	return ext, b, err
}

func (k *countingSink) Unreserve(ext storage.Extent) {
	k.unreserves++
	k.Shard.Unreserve(ext)
}

// recvWith sends req over a pipe and receives it on a connection whose
// sink is k.
func recvWith(t *testing.T, k Sink, req *Request) *Request {
	t.Helper()
	a, b := pipePair()
	defer a.Close()
	defer b.Close()
	b.SetSink(k)
	go func() { _ = a.SendRequest(req) }()
	got := new(Request)
	if err := b.RecvRequestInto(got); err != nil {
		t.Fatal(err)
	}
	return got
}

func patterned(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + i>>9)
	}
	return p
}

// placementRow is a request and where its payload lands on a connection
// with a sink: placed in an extent the sink reserves, or in a lease —
// of the whole frame (whole) or of the payload only.
type placementRow struct {
	name          string
	req           Request
	placed, whole bool
}

// placementRows are TestPlacedWriteDecodesLikeLeased's rows; they seed
// FuzzRecvRequest too.
func placementRows() []placementRow {
	job := policy.JobInfo{JobID: "job-7", UserID: "alice", GroupID: "g1", Nodes: 4}
	wide := make([]string, 2048) // 2048 × 40 bytes: a tail longer than the receive buffer
	for i := range wide {
		wide[i] = fmt.Sprintf("server-%04d.burst-buffer.example:7000", i)
	}
	return []placementRow{
		{"64 KiB positional append", Request{Type: MsgWrite, Seq: 9, Job: job, Path: "/ckpt/r0", Data: patterned(64 << 10),
			LayoutGen: 3, AppendAt: true, AppendOff: 1 << 20}, true, false},
		{"8 KiB migration install", Request{Type: MsgWrite, Seq: 10, Job: job, Path: "/m", Data: patterned(sgMinPayload),
			From: "127.0.0.1:7001", StripeSet: []string{"a", "b"}, LayoutGen: 2, AppendAt: true}, true, false},
		{"4 MiB plain append", Request{Type: MsgWrite, Seq: 11, Job: job, Path: "/big", Data: patterned(4 << 20)}, true, false},
		{"payload under sgMinPayload", Request{Type: MsgWrite, Seq: 12, Job: job, Path: "/s", Data: patterned(sgMinPayload - 1)}, false, false},
		{"frame above the top class", Request{Type: MsgWrite, Seq: 13, Job: job, Path: "/huge", Data: patterned(4<<20 + 1024)}, false, false},
		{"head too long to peek", Request{Type: MsgWrite, Seq: 14, Job: job, Path: "/" + strings.Repeat("p", placeHeadMax), Data: patterned(64 << 10)}, false, true},
		{"not a write", Request{Type: MsgGossip, Seq: 15, Job: job, PolicyStr: strings.Repeat("x", 64<<10)}, false, true},
		{"no room in the store", Request{Type: MsgWrite, Seq: 16, Job: job, Path: "/full", Data: patterned(64 << 10)}, false, false},
		{"a write whose tail is longer than the receive buffer", Request{Type: MsgWrite, Seq: 17, Job: job, Path: "/wide",
			Data: patterned(64 << 10), Stripes: len(wide), StripeSet: wide}, false, true},
		{"a non-write request with a payload on a sink connection", Request{Type: MsgRead, Seq: 18, Job: job, Path: "/r",
			Data: patterned(64 << 10)}, false, false},
	}
}

// A write at or above sgMinPayload is read into an extent the sink
// reserves and decodes to the same request as on the leased path; every
// other frame is leased with nothing reserved: its payload alone, or the
// whole frame when it has no payload, a head too long to peek or a tail
// longer than the receive buffer.
func TestPlacedWriteDecodesLikeLeased(t *testing.T) {
	for _, c := range placementRows() {
		t.Run(c.name, func(t *testing.T) {
			shard := fsys.NewShard("place", 16<<20)
			if c.req.Path == "/full" { // leave less free than the payload
				if _, _, err := shard.Reserve(16<<20 - len(c.req.Data) + 1); err != nil {
					t.Fatal(err)
				}
			}
			base := shard.Used()
			k := &countingSink{Shard: shard}
			frame := appendRequest(nil, &c.req)
			want := new(Request)
			if err := decodeRequest(frame, want); err != nil {
				t.Fatal(err)
			}
			got := recvWith(t, k, &c.req)
			if ext := *got.Placed(); (ext.Len > 0) != c.placed || k.reserves-k.refused != b2i(c.placed) {
				t.Fatalf("placed %+v after %d reserves, want placed=%v", ext, k.reserves, c.placed)
			}
			if c.placed && shard.Used()-base != int64(len(c.req.Data)) {
				t.Fatalf("Used %d with a %d-byte placement", shard.Used(), len(c.req.Data))
			}
			if whole := len(got.frame) == len(frame); !c.placed && (whole != c.whole || !whole && len(got.frame) != len(got.Data)) {
				t.Fatalf("leased %d bytes for a %d-byte frame carrying %d, want whole=%v", len(got.frame), len(frame), len(got.Data), c.whole)
			}
			if !bytes.Equal(got.Data, want.Data) {
				t.Fatal("payload differs from the leased decode")
			}
			g, w := *got, *want
			g.Data, w.Data = nil, nil
			g.frame, g.sink, g.placed = nil, nil, storage.Extent{}
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("placed decode differs:\n got %+v\nwant %+v", g, w)
			}
			got.Release()
			want.Release()
			if shard.Used() != base || k.unreserves != b2i(c.placed) {
				t.Fatalf("after Release: Used %d, %d unreserves", shard.Used(), k.unreserves)
			}
		})
	}
}

// recvRaw writes body to a connection as one frame — the stream's magic,
// the length prefix and the body — and receives it with recv.
func recvRaw(body []byte, recv func(c *Conn) error) error {
	a, b := net.Pipe()
	go func() {
		_, _ = a.Write(binary.LittleEndian.AppendUint32(binMagic[:], uint32(len(body))))
		_, _ = a.Write(body)
		a.Close()
	}()
	c := NewConn(b)
	defer c.Close()
	return recv(c)
}

// FuzzRecvRequest: the stream receive the server runs refuses exactly
// the frame bodies decodeRequest refuses and otherwise yields the same
// request, whichever way the payload landed; and after Release every
// extent the sink reserved is back.
func FuzzRecvRequest(f *testing.F) {
	for _, b := range fuzzSeedRequests() {
		f.Add(b)
	}
	for _, c := range placementRows() {
		f.Add(appendRequest(nil, &c.req))
	}
	shard := fsys.NewShard("fuzz", 1<<20)
	f.Fuzz(func(t *testing.T, body []byte) {
		k := &countingSink{Shard: shard}
		base := k.Used()
		want, got := new(Request), new(Request)
		wantErr := decodeRequest(body, want)
		err := recvRaw(body, func(c *Conn) error {
			c.SetSink(k)
			return c.RecvRequestInto(got)
		})
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("receive: %v, decode: %v", err, wantErr)
		}
		if err == nil {
			if !bytes.Equal(got.Data, want.Data) {
				t.Fatal("payload differs from the whole-frame decode")
			}
			g, w := *got, *want
			g.Data, w.Data = nil, nil
			g.frame, g.sink, g.placed = nil, nil, storage.Extent{}
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("receive differs from the whole-frame decode:\n got %+v\nwant %+v", g, w)
			}
		}
		got.Release()
		if k.reserves-k.refused != k.unreserves || k.Used() != base {
			t.Fatalf("after Release: %d reserves, %d refused, %d unreserves, Used %d (base %d)",
				k.reserves, k.refused, k.unreserves, k.Used(), base)
		}
	})
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestHostileLengthCommitsOneClass with the shard as sink: a claim
// above the top lease class reserves nothing, and a placed write cut
// mid-payload or failing to decode gives its reservation back.
func TestHostileLengthPlacedReservesNothing(t *testing.T) {
	job := policy.JobInfo{JobID: "j", UserID: "u", GroupID: "g", Nodes: 1}
	write := appendRequest(nil, &Request{Type: MsgWrite, Seq: 1, Job: job, Path: "/f", Data: patterned(1 << 20), AppendAt: true})
	frame := func(body []byte, claim int) []byte {
		b := append(binMagic[:], byte(claim), byte(claim>>8), byte(claim>>16), byte(claim>>24))
		return append(b, body...)
	}
	badTail := append([]byte(nil), write...)
	badTail[len(badTail)-1] = 0xff // the trailing group's offset varint runs off the end
	for _, c := range []struct {
		name     string
		stream   []byte
		reserves int
	}{
		{"oversize claim, then silence", frame(make([]byte, 16), 0x3fffffff), 0},
		{"write cut mid-payload", frame(write[:len(write)/2], len(write)), 1},
		{"write whose tail fails to decode", frame(badTail, len(badTail)), 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			k := &countingSink{Shard: fsys.NewShard("hostile", 64<<20)}
			a, b := net.Pipe()
			defer b.Close()
			go func() {
				_, _ = a.Write(c.stream)
				a.Close()
			}()
			conn := NewConn(b)
			conn.SetSink(k)
			req := new(Request)
			if err := conn.RecvRequestInto(req); err == nil {
				t.Fatalf("hostile frame decoded: %+v", req)
			}
			if k.reserves != c.reserves || k.unreserves != c.reserves || k.Used() != 0 {
				t.Fatalf("%d reserves, %d unreserves, Used %d; want %d, %d, 0", k.reserves, k.unreserves, k.Used(), c.reserves, c.reserves)
			}
		})
	}
}

// Lease-poison parity: a placed payload nothing adopted is scribbled
// before its extent goes back, so a use after Release reads garbage, the
// contract leased frames have; an adopted one is the file's and is left
// alone.
func TestUntakenPlacementIsScribbled(t *testing.T) {
	SetLeasePoison(true)
	defer SetLeasePoison(false)
	shard := fsys.NewShard("poison", 16<<20)
	if _, err := shard.CreateStriped("/f", 1, 1<<20, nil); err != nil {
		t.Fatal(err)
	}
	data := patterned(64 << 10)
	job := policy.JobInfo{JobID: "j", UserID: "u", GroupID: "g", Nodes: 1}
	send := func(off int64) *Request {
		return recvWith(t, shard, &Request{Type: MsgWrite, Seq: 1, Job: job, Path: "/f", Data: data, AppendAt: true, AppendOff: off})
	}

	// Parked: the shard copies the bytes and leaves the extent untaken.
	req := send(1 << 20)
	stale := req.Data
	if _, err := shard.AppendAt(req.Path, req.AppendOff, req.Data, req.Placed(), 0); err != nil {
		t.Fatal(err)
	}
	if req.Placed().Len == 0 {
		t.Fatal("a parked chunk adopted its extent")
	}
	req.Release()
	if req.Data != nil || shard.Used() != 0 {
		t.Fatalf("after Release: Data %d bytes, Used %d", len(req.Data), shard.Used())
	}
	if !bytes.Equal(stale, bytes.Repeat([]byte{leasePoisonByte}, len(stale))) {
		t.Fatal("an untaken placement went back unscribbled")
	}

	// Lands: the extent is adopted and keeps the bytes through Release.
	req = send(0)
	if _, err := shard.AppendAt(req.Path, req.AppendOff, req.Data, req.Placed(), 0); err != nil {
		t.Fatal(err)
	}
	if req.Placed().Len != 0 {
		t.Fatal("a landing chunk left its extent untaken")
	}
	req.Release()
	got := make([]byte, len(data))
	if n, err := shard.ReadAt("/f", 0, got); err != nil || n != len(got) || !bytes.Equal(got, data) {
		t.Fatalf("adopted bytes read back wrong: n=%d err=%v", n, err)
	}
	if shard.Used() != int64(len(data)) {
		t.Fatalf("Used %d, want the one adopted chunk", shard.Used())
	}
}

// BenchmarkRecvWrite receives and lands one 1 MiB positional append over
// loopback TCP: placed, read straight into the extent the file adopts,
// against leased, read into a pooled frame and copied into the store.
func BenchmarkRecvWrite(b *testing.B) {
	const chunk, perFile = 1 << 20, 32
	for _, placed := range []bool{true, false} {
		name := "leased"
		if placed {
			name = "placed"
		}
		b.Run(name, func(b *testing.B) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer ln.Close()
			raw, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			tx := NewConn(raw)
			defer tx.Close()
			acc, err := ln.Accept()
			if err != nil {
				b.Fatal(err)
			}
			rx := NewConn(acc)
			defer rx.Close()
			shard := fsys.NewShard("bench", 2*perFile*chunk)
			if placed {
				rx.SetSink(shard)
			}
			job := policy.JobInfo{JobID: "j", UserID: "u", GroupID: "g", Nodes: 1}
			data := patterned(chunk)
			go func() {
				for i := 0; i < b.N; i++ {
					req := Request{Type: MsgWrite, Job: job, Path: "/f", Data: data, AppendAt: true, AppendOff: int64(i%perFile) * chunk}
					if tx.SendRequest(&req) != nil {
						return
					}
				}
			}()
			req := new(Request)
			b.SetBytes(chunk)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%perFile == 0 {
					_, _ = shard.Unlink("/f")
					if _, err := shard.CreateStriped("/f", 1, chunk, nil); err != nil {
						b.Fatal(err)
					}
				}
				if err := rx.RecvRequestInto(req); err != nil {
					b.Fatal(err)
				}
				if _, err := shard.AppendAt(req.Path, req.AppendOff, req.Data, req.Placed(), 0); err != nil {
					b.Fatal(err)
				}
				req.Release()
			}
		})
	}
}
