package transport

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// peerServer is a stoppable echo server on a fixed address: MsgStat is
// refused with an application error, MsgFlush is never answered (a
// wedged peer), everything else echoes its Seq.
type peerServer struct {
	ln               net.Listener
	accepted, closed atomic.Int64

	mu    sync.Mutex
	conns []*Conn
}

func startPeer(t *testing.T, addr string) *peerServer {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	s := &peerServer{ln: ln}
	t.Cleanup(s.stop)
	go func() {
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			s.accepted.Add(1)
			conn := NewConn(raw)
			s.mu.Lock()
			s.conns = append(s.conns, conn)
			s.mu.Unlock()
			go func() {
				defer s.closed.Add(1)
				defer conn.Close()
				for {
					req, err := conn.RecvRequest()
					if err != nil {
						return
					}
					resp := &Response{Seq: req.Seq}
					switch req.Type {
					case MsgFlush:
						continue
					case MsgStat:
						resp.Err = "refused"
					}
					_ = conn.SendResponse(resp)
				}
			}()
		}
	}()
	return s
}

// stop closes the listener and every accepted connection, like a
// process exit.
func (s *peerServer) stop() {
	s.ln.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.conns {
		c.Close()
	}
}

func (s *peerServer) addr() string { return s.ln.Addr().String() }

func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func mustCall(t *testing.T, ps *Peers, addr string, typ MsgType) *Response {
	t.Helper()
	resp, err := ps.Call(context.Background(), addr, &Request{Type: typ})
	if err != nil {
		t.Fatalf("call %v: %v", typ, err)
	}
	return resp
}

// TestPeers covers the one dial-cache-redial path the client, gossip
// and the migrator share.
func TestPeers(t *testing.T) {
	t.Run("lazy dial, cached after", func(t *testing.T) {
		srv := startPeer(t, "127.0.0.1:0")
		ps := NewPeers(1, 1, time.Second, 0)
		defer ps.Close()
		if srv.accepted.Load() != 0 || len(ps.Pools()) != 0 {
			t.Fatal("a peer set dials nothing until asked")
		}
		for i := 0; i < 3; i++ {
			mustCall(t, ps, srv.addr(), MsgHeartbeat).Release()
		}
		if _, cached, err := ps.Get(srv.addr()); err != nil || !cached {
			t.Fatalf("Get after calls: cached=%v err=%v", cached, err)
		}
		if got := srv.accepted.Load(); got != 1 {
			t.Fatalf("3 calls dialed %d connections, want 1", got)
		}
	})

	t.Run("restarted peer is reached by the next call", func(t *testing.T) {
		srv := startPeer(t, "127.0.0.1:0")
		addr := srv.addr()
		ps := NewPeers(1, 1, time.Second, 0)
		defer ps.Close()
		mustCall(t, ps, addr, MsgHeartbeat).Release()
		srv.stop()
		// The cached connection is dead but the set does not know yet.
		eventually(t, "old connection teardown", func() bool { return srv.closed.Load() == 1 })
		again := startPeer(t, addr)
		mustCall(t, ps, addr, MsgHeartbeat).Release()
		if got := again.accepted.Load(); got != 1 {
			t.Fatalf("restarted peer accepted %d connections, want 1", got)
		}
	})

	t.Run("application error leaves the connection cached", func(t *testing.T) {
		srv := startPeer(t, "127.0.0.1:0")
		ps := NewPeers(1, 1, time.Second, 0)
		defer ps.Close()
		before, _, _ := ps.Get(srv.addr())
		resp := mustCall(t, ps, srv.addr(), MsgStat)
		if resp.Err != "refused" {
			t.Fatalf("reply Err = %q, want the peer's refusal", resp.Err)
		}
		resp.Release()
		mustCall(t, ps, srv.addr(), MsgHeartbeat).Release()
		if after, cached, _ := ps.Get(srv.addr()); after != before || !cached || srv.accepted.Load() != 1 {
			t.Fatal("an Err reply must not cost the connection")
		}
	})

	t.Run("wedged peer costs one ctx deadline and its connection", func(t *testing.T) {
		srv := startPeer(t, "127.0.0.1:0")
		ps := NewPeers(1, 1, time.Second, 0)
		defer ps.Close()
		mustCall(t, ps, srv.addr(), MsgHeartbeat).Release()
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		start := time.Now()
		if _, err := ps.Call(ctx, srv.addr(), &Request{Type: MsgFlush}); err == nil {
			t.Fatal("a call nobody answers must fail")
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("wedged call took %v, want about the 100ms deadline", d)
		}
		eventually(t, "wedged connection dropped", func() bool { return srv.closed.Load() == 1 })
		if len(ps.Pools()) != 0 {
			t.Fatal("the wedged peer's pool must be forgotten")
		}
	})

	t.Run("dial finishing after Close leaves no socket", func(t *testing.T) {
		srv := startPeer(t, "127.0.0.1:0")
		ps := NewPeers(1, 1, time.Second, 0)
		netDial, dialing, release := ps.dial, make(chan struct{}), make(chan struct{})
		ps.dial = func(addr string) (*Conn, error) {
			close(dialing)
			<-release
			return netDial(addr)
		}
		errc := make(chan error, 1)
		go func() {
			_, _, err := ps.Get(srv.addr())
			errc <- err
		}()
		<-dialing
		ps.Close()
		close(release)
		if err := <-errc; err != errPeersClosed {
			t.Fatalf("Get across Close = %v, want errPeersClosed", err)
		}
		eventually(t, "late connection closed", func() bool {
			return srv.accepted.Load() == 1 && srv.closed.Load() == 1
		})
	})

	t.Run("cooldown only when configured", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		dead := ln.Addr().String()
		ln.Close()
		for _, tc := range []struct {
			cooldown  time.Duration
			wantDials int64
		}{{0, 3}, {time.Hour, 1}} {
			ps := NewPeers(1, 1, time.Second, tc.cooldown)
			netDial := ps.dial
			var dials atomic.Int64
			ps.dial = func(addr string) (*Conn, error) {
				dials.Add(1)
				return netDial(addr)
			}
			for i := 0; i < 3; i++ {
				if _, _, err := ps.Get(dead); err == nil {
					t.Fatal("dial to a dead address succeeded")
				}
			}
			if got := dials.Load(); got != tc.wantDials {
				t.Errorf("cooldown %v: %d dials for 3 Gets, want %d", tc.cooldown, got, tc.wantDials)
			}
			ps.Close()
		}
	})
}
