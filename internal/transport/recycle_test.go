package transport

import (
	"context"
	"reflect"
	"testing"

	"themisio/internal/policy"
)

// TestRecycleScribblesAndDecodeOverwrites pins both ends of a recycled
// message's life: under SetLeasePoison what a stale holder reads is
// garbage, and whatever a message held — garbage included — a decode
// into it leaves exactly what a decode into a fresh one leaves.
func TestRecycleScribblesAndDecodeOverwrites(t *testing.T) {
	SetLeasePoison(true)
	defer SetLeasePoison(false)
	job := policy.JobInfo{JobID: "j", UserID: "u", GroupID: "g", Nodes: 2}

	req := GetRequest(Request{Type: MsgWrite, Seq: 7, Job: job, Path: "/a", AppendAt: true, AppendOff: 9, ShareTopN: 3, ShareKind: "user", DataSegs: [][]byte{{1}}})
	stale := req
	req.Recycle()
	if stale.Seq != ^uint64(0) || stale.Path != poisonName || stale.DataSegs != nil {
		t.Fatalf("a recycled request reads Seq=%d Path=%q DataSegs=%v, want it scribbled and its references dropped", stale.Seq, stale.Path, stale.DataSegs)
	}
	plain := &Request{Type: MsgStat, Seq: 8, Job: job, Path: "/b"} // no trailing group on the wire
	frame := appendRequest(nil, plain)
	var fresh Request
	dirty := Request{Seq: ^uint64(0), Path: poisonName, AppendAt: true, AppendOff: 9, ShareTopN: 3, ShareKind: "user", DataSegs: [][]byte{{1}}}
	if err := decodeRequest(frame, &fresh); err != nil {
		t.Fatal(err)
	}
	if err := decodeRequestNames(frame, &dirty, new(nameCache)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, dirty) {
		t.Fatalf("decode into a used request left %+v, a fresh one %+v", dirty, fresh)
	}

	resp := &Response{Seq: 7, N: 5, Caps: CapAppendAt, Names: []string{"x"}}
	resp.Recycle()
	if resp.Seq != ^uint64(0) || resp.Err != poisonName || resp.Names != nil {
		t.Fatalf("a recycled response reads Seq=%d Err=%q Names=%v, want it scribbled and its references dropped", resp.Seq, resp.Err, resp.Names)
	}
	rframe := appendResponse(nil, &Response{Seq: 9, N: 1}) // no capability word on the wire
	var freshR Response
	dirtyR := Response{Seq: ^uint64(0), Err: poisonName, Caps: CapAppendAt}
	if err := decodeResponse(rframe, &freshR); err != nil {
		t.Fatal(err)
	}
	if err := decodeResponse(rframe, &dirtyR); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(freshR, dirtyR) {
		t.Fatalf("decode into a used response left %+v, a fresh one %+v", dirtyR, freshR)
	}
}

// TestNameCacheReturnsEqualStrings: the cache changes which string a
// decode hands out, never what it says — across repeats, changes and
// path-slot collisions.
func TestNameCacheReturnsEqualStrings(t *testing.T) {
	var nc nameCache
	for i := 0; i < 4*pathSlots; i++ {
		want := Request{
			Type: MsgStat, Seq: uint64(i),
			Job:  policy.JobInfo{JobID: "job-" + string(rune('a'+i%3)), UserID: "u", GroupID: "g"},
			Path: "/dir/file-" + string(rune('a'+i%7)) + string(rune('a'+i%11)),
		}
		for rep := 0; rep < 2; rep++ {
			var got Request
			if err := decodeRequestNames(appendRequest(nil, &want), &got, &nc); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("through the name cache: got %+v want %+v", got, want)
			}
		}
	}
}

// TestAbandonedReplyChannelNeverPooled: a reply channel goes back to the
// pool only from the receiver of its single reply. One that was handed
// to Forget (the reader may be about to send into it) or closed (the
// connection died) must never be handed to a later exchange.
func TestAbandonedReplyChannelNeverPooled(t *testing.T) {
	client, server := tcpPair(t)
	go func() { // reads and never answers
		defer server.Close()
		for {
			req, err := server.RecvRequest()
			if err != nil {
				return
			}
			req.Release()
		}
	}()
	mc := newMuxConn(client)
	t.Cleanup(mc.Close)

	forgotten, err := mc.Start(&Request{Type: MsgStat, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	mc.Forget(1, forgotten)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := mc.Call(ctx, &Request{Type: MsgStat, Seq: 2}); err != context.Canceled {
		t.Fatalf("Call under a dead context: %v", err)
	}

	closed, err := mc.Start(&Request{Type: MsgStat, Seq: 3})
	if err != nil {
		t.Fatal(err)
	}
	mc.Close()
	if _, ok := <-closed; ok {
		t.Fatal("a reply on a connection that never answers")
	}

	for i := 0; i < 256; i++ { // more than the pool can hold for this goroutine
		switch ch := replyChanPool.Get().(chan *Response); ch {
		case forgotten, closed:
			t.Fatalf("an abandoned reply channel (forgotten=%v) came back out of the pool", ch == forgotten)
		default:
			if len(ch) != 0 {
				t.Fatal("a pooled reply channel holds a reply")
			}
		}
	}
}
