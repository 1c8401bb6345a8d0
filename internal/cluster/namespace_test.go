package cluster_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"time"

	"themisio/internal/chash"
	"themisio/internal/client"
	"themisio/internal/server"
	"themisio/internal/transport"
)

// TestNamespaceRoundTrips pins what each namespace call costs in
// scheduled RPCs — Σ Server.Served() around the call; heartbeats and
// membership refreshes are answered inline and never counted, and with
// rebalancing off no migration frame is either, so the numbers repeat
// exactly — and, beside the counts, that the short paths mean what the
// long ones meant: a create reply is believed only when it describes the
// layout the client asked for, and an unlink that cannot start at the
// ring owner still finds every stripe.
func TestNamespaceRoundTrips(t *testing.T) {
	// Recycled messages are scribbled: a server that recycled an inflight
	// value before its reply was sent, or a client that recycled a
	// namespace reply it still reads, fails the calls below.
	transport.SetLeasePoison(true)
	defer transport.SetLeasePoison(false)
	servers, addrs := startFabric(t, listen(t, 2), func(c *server.Config) { c.RebalanceDisabled = true })
	waitConverged(t, servers, 2)
	rpcs := func(what string, want int64, call func()) {
		t.Helper()
		served := func() (n int64) {
			for _, s := range servers {
				n += s.Served()
			}
			return n
		}
		before := served()
		call()
		if got := served() - before; got != want {
			t.Errorf("%s cost %d RPCs, want %d", what, got, want)
		}
	}
	check := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	holders := func(path string) (n int) {
		for _, s := range servers {
			if s.Shard().Exists(path) {
				n++
			}
		}
		return n
	}
	dial := func(job string, stripes int) *client.Client {
		c, err := client.DialOpts(jobInfo(job), addrs, client.Options{Stripes: stripes, StripeUnit: 4096, ConnsPerServer: 1})
		check("dial "+job, err)
		t.Cleanup(c.Close)
		return c
	}
	one, two := dial("width1", 1), dial("width2", 2)
	check("mkdir", one.Mkdir("/rt"))

	// Width 1: every call on an existing path is one RPC.
	rpcs("width 1 Open(create)", 1, func() {
		f, err := one.Open("/rt/a", true)
		check("create", err)
		check("close", f.Close())
	})
	rpcs("width 1 Stat", 1, func() {
		if size, isDir, err := one.Stat("/rt/a"); err != nil || size != 0 || isDir {
			t.Errorf("stat /rt/a: size %d dir %v err %v", size, isDir, err)
		}
	})
	rpcs("width 1 Open(existing)", 1, func() {
		_, err := one.Open("/rt/a", false)
		check("open", err)
	})
	rpcs("width 1 Unlink", 1, func() { check("unlink", one.Unlink("/rt/a")) })
	rpcs("width 1 Stat of the now-missing path", 2, func() {
		if _, _, err := one.Stat("/rt/a"); !errors.Is(err, client.ErrNotExist) {
			t.Errorf("stat after unlink: %v, want ErrNotExist", err)
		}
	})

	// Width 2: one create and one unlink per stripe, nothing besides.
	data := make([]byte, 3*4096+100)
	for i := range data {
		data[i] = byte(i * 13)
	}
	var f *client.File
	rpcs("width 2 Open(create)", 2, func() {
		var err error
		f, err = two.Open("/rt/b", true)
		check("create", err)
	})
	if n, err := f.Write(data); err != nil || n != len(data) {
		t.Fatalf("write: n=%d err=%v", n, err)
	}
	rpcs("width 2 Stat", 3, func() {
		if size, _, err := two.Stat("/rt/b"); err != nil || size != int64(len(data)) {
			t.Errorf("stat /rt/b: size %d err %v, want %d", size, err, len(data))
		}
	})

	// (a) Open-or-create of a striped file that holds data: the handle's
	// size is the consistent total of the create replies, so an append
	// lands after the last byte.
	more := bytes.Repeat([]byte("tail"), 1500)
	rpcs("width 2 Open(create) of an existing file", 2, func() {
		var err error
		f, err = two.Open("/rt/b", true)
		check("open-or-create", err)
	})
	if n, err := f.Write(more); err != nil || n != len(more) {
		t.Fatalf("append: n=%d err=%v", n, err)
	}
	data = append(data, more...)

	// (b) A client configured for width 1 asks for /rt/b on the owner
	// alone; the reply describes a width-2 file, so the handle comes from
	// the stat path and follows the recorded layout.
	rpcs("width 1 client's Open(create) of the width 2 file (create + stat)", 1+3, func() {
		var err error
		f, err = one.Open("/rt/b", true)
		check("open-or-create under another layout", err)
	})
	got := make([]byte, len(data)+1)
	if n, err := io.ReadFull(f, got); err != io.ErrUnexpectedEOF || !bytes.Equal(got[:n], data) {
		t.Fatalf("read back %d bytes (err %v), want the %d written", n, err, len(data))
	}

	// (d) Unlink of a striped file: the owner first, then the rest.
	rpcs("width 2 Unlink", 2, func() { check("unlink", two.Unlink("/rt/b")) })
	if n := holders("/rt/b"); n != 0 {
		t.Errorf("%d servers still hold a stripe of /rt/b", n)
	}

	// (e) Directories live on every server.
	check("mkdir", one.Mkdir("/rt/empty"))
	rpcs("Unlink of an empty directory", 2, func() { check("rmdir", one.Unlink("/rt/empty")) })
	if n := holders("/rt/empty"); n != 0 {
		t.Errorf("%d servers still hold /rt/empty", n)
	}
	check("mkdir", one.Mkdir("/rt/full"))
	for i := 0; i < 8; i++ { // enough that each server links a child
		g, err := one.Open(fmt.Sprintf("/rt/full/f%d", i), true)
		check("create", err)
		check("close", g.Close())
	}
	if err := one.Unlink("/rt/full"); err == nil || !strings.Contains(err.Error(), "not empty") {
		t.Errorf("rmdir of a non-empty directory: %v, want the not-empty error", err)
	}
	if names, err := one.Readdir("/rt/full"); err != nil || len(names) != 8 {
		t.Errorf("after the refused rmdir: %v %v, want 8 entries", names, err)
	}

	// (f) A directory is in the way of a create.
	if _, err := one.Open("/rt/full", true); err == nil {
		t.Error("Open(create) on a directory succeeded")
	}

	// (g) Cancellation is reported as such, by the create fan-out and by
	// the owner unlink, and fails no server over.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := two.OpenContext(dead, "/rt/never", true); !errors.Is(err, client.ErrCanceled) {
		t.Errorf("OpenContext(dead) = %v, want ErrCanceled", err)
	}
	if err := two.UnlinkContext(dead, "/rt/full/f0"); !errors.Is(err, client.ErrCanceled) {
		t.Errorf("UnlinkContext(dead) = %v, want ErrCanceled", err)
	}
	if _, _, err := two.Stat("/rt/full/f0"); err != nil || len(two.Servers()) != 2 {
		t.Errorf("after a canceled unlink: stat %v, ring %v", err, two.Servers())
	}

	// (c) A file created while its ring owner drains is recorded on the
	// other server alone: the owner answers the unlink with not-exist and
	// the stat path finds the stripe. The client learns of the drain at
	// its next membership refresh, so probe until a create avoids it.
	servers[1].Cluster().Membership().Drain()
	ring := chash.New(0)
	ring.Add(addrs[0])
	ring.Add(addrs[1])
	var orphan string
	next := 0
	waitFor(t, 10*time.Second, "a create that avoids the draining owner", func() bool {
		var p string
		for p == "" { // the next path the draining server owns
			q := fmt.Sprintf("/rt/drained%d", next)
			if owner, _ := ring.Lookup(q); owner == addrs[1] {
				p = q
			}
			next++
		}
		g, err := one.Open(p, true)
		check("create", err)
		check("close", g.Close())
		set, _, err := one.Layout(p)
		check("layout", err)
		if set[0] != addrs[1] {
			orphan = p
		}
		return orphan != ""
	})
	if servers[1].Shard().Exists(orphan) || !servers[0].Shard().Exists(orphan) {
		t.Fatalf("%s is not placed off its draining owner", orphan)
	}
	// Owner unlink (not-exist), owner stat (not-exist), stat of the other
	// server (hit), unlink there.
	rpcs("Unlink of a file its ring owner never held", 4, func() { check("unlink", one.Unlink(orphan)) })
	if n := holders(orphan); n != 0 {
		t.Errorf("%d servers still hold %s", n, orphan)
	}
	if _, _, err := one.Stat(orphan); !errors.Is(err, client.ErrNotExist) {
		t.Errorf("stat after unlink: %v, want ErrNotExist", err)
	}
}

// TestNamespaceRepliesReleased: the reply to every namespace call —
// create, stat, readdir, unlink, the stripe-size fan-out, a stat's miss
// and its error — goes back to the lease pool. Left to the collector,
// each round costs a dozen lease misses; released, a warm pool serves
// them all. With lease poisoning armed a reply released before its
// fields were read would come back scribbled.
func TestNamespaceRepliesReleased(t *testing.T) {
	transport.SetLeasePoison(true)
	defer transport.SetLeasePoison(false)
	servers, addrs := startFabric(t, listen(t, 2), func(c *server.Config) { c.RebalanceDisabled = true })
	waitConverged(t, servers, 2)
	c, err := client.DialOpts(jobInfo("ns-lease"), addrs, client.Options{Stripes: 2, StripeUnit: 4096, ConnsPerServer: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Mkdir("/nl"); err != nil {
		t.Fatal(err)
	}
	body := bytes.Repeat([]byte("x"), 5000) // one unit and a bit: both stripes hold bytes
	round := func(i int) {
		name := fmt.Sprintf("file-%04d", i)
		p := "/nl/" + name
		f, err := c.Open(p, true)
		if err != nil {
			t.Fatalf("create %s: %v", p, err)
		}
		if n, err := f.Write(body); err != nil || n != len(body) {
			t.Fatalf("write %s: n=%d err=%v", p, n, err)
		}
		if size, isDir, err := c.Stat(p); err != nil || isDir || size != int64(len(body)) {
			t.Fatalf("stat %s: size %d dir %v err %v", p, size, isDir, err)
		}
		set, stripes, err := c.Layout(p)
		if err != nil || stripes != 2 || len(set) != 2 || set[0] == set[1] || !slices.Contains(addrs, set[0]) || !slices.Contains(addrs, set[1]) {
			t.Fatalf("layout %s: %v x%d err %v, want both of %v", p, set, stripes, err, addrs)
		}
		if names, err := c.Readdir("/nl"); err != nil || !slices.Equal(names, []string{name}) {
			t.Fatalf("readdir: %v err %v, want [%s]", names, err, name)
		}
		if err := c.Unlink(p); err != nil {
			t.Fatalf("unlink %s: %v", p, err)
		}
		if _, _, err := c.Stat(p); !errors.Is(err, client.ErrNotExist) {
			t.Fatalf("stat after unlink: %v, want ErrNotExist", err)
		}
	}
	rounds := 2000
	if testing.Short() {
		rounds = 300
	}
	for i := 0; i < 100; i++ { // warm-up: fill the lease classes
		round(i)
	}
	_, misses0 := transport.LeaseStats()
	for i := 0; i < rounds; i++ {
		round(i)
	}
	_, misses1 := transport.LeaseStats()
	// What is left is what a GC cycle clears out of the pool (the race
	// detector's pool drops a quarter of what is put back).
	grew := misses1 - misses0
	t.Logf("%d rounds: lease misses grew by %d", rounds, grew)
	if grew > int64(rounds)/20 && !raceEnabled {
		t.Fatalf("lease misses grew by %d over %d namespace rounds through a warm pool", grew, rounds)
	}
}
