package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"themisio/internal/backing"
	"themisio/internal/client"
	"themisio/internal/cluster"
	"themisio/internal/fsys"
)

// failUnit and failSize are the stripe unit and length of the failover
// tests' file.
const (
	failUnit = 4096
	failSize = 5*failUnit + 100
)

// failoverFabric starts n servers over store (nil: none) and places /f,
// size bytes striped over the first width-1 of them and dead, a member that never
// ran and that every server has recorded as failed. The living holders
// hold their stripes of data unstaged; the dead holder's stripe exists
// only as its staged object (when there is a store). Returns the servers
// (closed at cleanup), the file's bytes and its stripe set.
func failoverFabric(t *testing.T, n, width, size int, store backing.Store) ([]*Server, []byte, []string) {
	t.Helper()
	gone := listen(t, 1)[0]
	dead := gone.Addr().String()
	gone.Close() // nobody answers there
	servers := startFabric(t, listen(t, n), func(c *Config) { c.Lambda, c.Backing = 20*time.Millisecond, store }, star)
	waitFor(t, 5*time.Second, "membership convergence", func() bool {
		for _, s := range servers {
			if len(s.Cluster().Membership().Ring().Nodes()) != n {
				return false
			}
		}
		return true
	})
	// No pass may be in flight when the file appears: the test runs them.
	waitFor(t, 5*time.Second, "the migrators settled", func() bool {
		for _, s := range servers {
			if !s.migr.Settled(s.Cluster().Membership().Epoch()) {
				return false
			}
		}
		return true
	})
	for _, s := range servers {
		s.Cluster().Membership().Merge([]cluster.Member{{Addr: dead, State: cluster.StateFailed, Incarnation: 1}}, s.now())
	}

	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i*13 + i>>12)
	}
	set := append(addrsOf(servers)[:width-1], dead)
	for i, addr := range set {
		stripe := make([]byte, fsys.LocalLen(int64(len(data)), i, width, failUnit))
		for off := range stripe {
			stripe[off] = data[fsys.FileOff(int64(off), i, width, failUnit)]
		}
		if addr == dead {
			if store != nil {
				meta := backing.FileMeta{Owner: dead, Path: "/f", Stripe: i, Stripes: width, StripeUnit: failUnit, StripeSet: set, LayoutGen: 1}
				if err := store.WriteRange(meta, 0, stripe); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		sh := servers[i].Shard()
		if _, err := sh.CreateStriped("/f", width, failUnit, set); err != nil {
			t.Fatal(err)
		}
		if _, err := sh.Append("/f", stripe); err != nil {
			t.Fatal(err)
		}
	}
	return servers, data, set
}

// pass runs one migrator pass on s, exclusive of the controller's.
func pass(t *testing.T, s *Server) {
	t.Helper()
	waitFor(t, 5*time.Second, "the controller's migrator pass to end", func() bool { return s.migr.running.CompareAndSwap(false, true) })
	defer s.migr.running.Store(false)
	s.migr.MarkDirty()
	s.migr.Pass()
}

// layoutOn returns /f's recorded set and local size on s.
func layoutOn(t *testing.T, s *Server) ([]string, int64) {
	t.Helper()
	fi, err := s.Shard().Stat("/f")
	if err != nil {
		t.Fatalf("stat /f on %s: %v", s.Addr(), err)
	}
	return fi.StripeSet, fi.Size
}

// readsBack checks that a client of servers reads /f as want.
func readsBack(t *testing.T, servers []*Server, want []byte) {
	t.Helper()
	c, err := client.Dial(jobInfo("check", 1), addrsOf(servers))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f, err := c.Open("/f", false)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want)+1)
	if n, err := io.ReadFull(f, got); err != io.ErrUnexpectedEOF || !bytes.Equal(got[:n], want) {
		t.Fatalf("read /f: %d bytes (err %v), equal to the file %v", n, err, bytes.Equal(got[:n], want))
	}
}

// Without a backing store a dead holder's stripe is lost, and moving the
// file would truncate acknowledged bytes: the planner counts the file as
// skipped, and the pass leaves its layout and bytes as they were.
func TestFailoverWithoutStoreKeepsFile(t *testing.T) {
	servers, data, set := failoverFabric(t, 2, 2, failSize, nil)
	coord := servers[0]
	mem := coord.Cluster().Membership()
	if plan, skipped := coord.migr.plan(mem, nil); len(plan) != 0 || skipped != 1 {
		t.Fatalf("plan %v, %d skipped; want nothing planned and the file skipped", plan, skipped)
	}
	pass(t, coord)
	if got, size := layoutOn(t, coord); !slices.Equal(got, set) || size != fsys.LocalLen(int64(len(data)), 0, 2, failUnit) {
		t.Fatalf("after the pass: set %v, %d bytes; want %v unchanged", got, size, set)
	}
	if servers[1].Shard().Exists("/f") || coord.migr.Settled(mem.Epoch()) {
		t.Fatal("the pass moved the file, or settled with it skipped")
	}
}

// flakyStore fails every ReadRange of one owner's objects while broken.
type flakyStore struct {
	backing.Store
	owner  atomic.Value // string
	broken atomic.Bool
}

func (f *flakyStore) ReadRange(meta backing.FileMeta, off int64, buf []byte) (int, error) {
	if f.broken.Load() && f.owner.Load() == meta.Owner {
		return 0, errors.New("transient read error")
	}
	return f.Store.ReadRange(meta, off, buf)
}

// A dead holder's staged object that fails to read is not a missing
// stripe: the pass fails that file and changes nothing — no commit, no
// drop, no trim, no delete — and stays dirty; once the object reads
// again, the next pass moves the file whole.
func TestFailoverReadErrorKeepsObjects(t *testing.T) {
	base, err := backing.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store := &flakyStore{Store: base}
	store.broken.Store(true)
	servers, data, set := failoverFabric(t, 2, 3, failSize, store)
	store.owner.Store(set[2])
	coord := servers[0]
	sizes := []int64{}
	for _, s := range servers {
		_, size := layoutOn(t, s)
		sizes = append(sizes, size)
	}
	pass(t, coord)
	if coord.migr.LastErr() == nil || !coord.migr.dirty.Load() {
		t.Fatalf("the pass reported %v and dirty %v; want the read error, dirty", coord.migr.LastErr(), coord.migr.dirty.Load())
	}
	for i, s := range servers {
		if got, size := layoutOn(t, s); !slices.Equal(got, set) || size != sizes[i] {
			t.Fatalf("a failed pass changed %s's stripe: set %v, %d bytes; want %v, %d", s.Addr(), got, size, set, sizes[i])
		}
	}
	obj := make([]byte, fsys.LocalLen(int64(len(data)), 2, 3, failUnit))
	if _, err := base.ReadRange(backing.FileMeta{Owner: set[2], Path: "/f", Stripe: 2}, 0, obj); err != nil {
		t.Fatalf("a failed pass deleted the dead holder's object: %v", err)
	}
	store.broken.Store(false)
	pass(t, coord)
	target := coord.Cluster().Membership().Ring().LookupN("/f", 3)
	for _, s := range servers {
		if got, _ := layoutOn(t, s); !slices.Equal(got, target) {
			t.Fatalf("after the object reads again: %s records %v, want %v", s.Addr(), got, target)
		}
	}
	readsBack(t, servers, data)
}

// gatedStore holds the WriteRange calls hold selects until gate closes.
type gatedStore struct {
	backing.Store
	gate chan struct{}
	hold func(backing.FileMeta) bool
}

func (g gatedStore) WriteRange(meta backing.FileMeta, off int64, data []byte) error {
	if g.hold == nil || g.hold(meta) {
		<-g.gate
	}
	return g.Store.WriteRange(meta, off, data)
}

// A dead holder's staged object is the only durable copy of its stripe
// until the stripes that replace it are staged: it outlives the commit
// for as long as the new layout's rows are held back, and goes once they
// are in the manifest — which then holds exactly the new layout's rows.
func TestFailoverDeletesDeadObjectAfterReplacement(t *testing.T) {
	base, err := backing.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	store := gatedStore{Store: base, gate: gate, hold: func(m backing.FileMeta) bool { return m.Path == "/f" && m.LayoutGen > 1 }}
	servers, data, set := failoverFabric(t, 3, 3, failSize, store)
	defer func() {
		select {
		case <-gate:
		default:
			close(gate) // a held worker must not outlive the servers' Close
		}
	}()
	coord := servers[0]
	target := coord.Cluster().Membership().Ring().LookupN("/f", 3)
	dead := backing.FileMeta{Owner: set[2], Path: "/f", Stripe: 2}
	staged := func() error {
		_, err := base.ReadRange(dead, 0, make([]byte, 1))
		return err
	}
	pass(t, coord)
	if got, _ := layoutOn(t, coord); !slices.Equal(got, target) {
		t.Fatalf("the pass did not cut over: %v, want %v", got, target)
	}
	for i := 0; i < 3; i++ {
		pass(t, coord)
		if err := staged(); err != nil {
			t.Fatalf("the dead holder's object went before its replacement was staged: %v", err)
		}
	}
	close(gate)
	waitFor(t, 5*time.Second, "the dead holder's object retired", func() bool {
		pass(t, coord)
		return errors.Is(staged(), backing.ErrNotStaged)
	})
	var want []string
	for j, a := range target {
		want = append(want, fmt.Sprintf("%s#%d:%d", a, j, fsys.LocalLen(int64(len(data)), j, 3, failUnit)))
	}
	slices.Sort(want)
	var rows []string
	waitFor(t, 5*time.Second, fmt.Sprintf("the new layout's staged rows %v", want), func() bool {
		manifest, err := base.Manifest()
		if err != nil {
			t.Fatal(err)
		}
		rows = rows[:0]
		for _, m := range manifest {
			if !m.IsDir {
				rows = append(rows, fmt.Sprintf("%s#%d:%d", m.Owner, m.Stripe, m.Size))
			}
		}
		slices.Sort(rows)
		return slices.Equal(rows, want)
	})
	readsBack(t, servers, data)
}

// A dead holder that never staged its stripe ends the file at that
// stripe's first unit: the file still moves off the dead member, holds
// the reachable prefix, and the store holds the new layout's rows at the
// truncated lengths — a survivor's longer old row leaves no stale tail.
func TestFailoverTruncatesAtUnstagedStripe(t *testing.T) {
	store, err := backing.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	servers, data, set := failoverFabric(t, 2, 2, failSize, store)
	if err := store.DeleteObject(set[1], "/f", 1); err != nil {
		t.Fatal(err)
	}
	coord := servers[0]
	pass(t, coord)
	target := coord.Cluster().Membership().Ring().LookupN("/f", 2)
	for _, s := range servers {
		if got, _ := layoutOn(t, s); !slices.Equal(got, target) {
			t.Fatalf("%s records %v, want %v", s.Addr(), got, target)
		}
	}
	readsBack(t, servers, data[:failUnit])
	want := []string{fmt.Sprintf("%s#0:%d", target[0], failUnit), fmt.Sprintf("%s#1:0", target[1])}
	waitFor(t, 5*time.Second, "the store holding the truncated layout's rows", func() bool {
		pass(t, coord)
		manifest, err := store.Manifest()
		if err != nil {
			t.Fatal(err)
		}
		var rows []string
		for _, m := range manifest {
			if !m.IsDir {
				rows = append(rows, fmt.Sprintf("%s#%d:%d", m.Owner, m.Stripe, m.Size))
			}
		}
		return slices.Equal(rows, want)
	})
}

// A failover copies a dead holder's stripe from its staged object through
// the migrator's one segment buffer: moving a 32 MiB width-2 file whose
// dead stripe exists only in the store allocates a few segments, not the
// file (adoption on the heap allocated 422 MiB for 64 MiB).
func TestFailoverHeapBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const size = 32 << 20
	store, err := backing.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	servers, _, _ := failoverFabric(t, 2, 2, size, store)
	coord := servers[0]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass(t, coord)
	runtime.ReadMemStats(&after)
	heap := after.TotalAlloc - before.TotalAlloc
	files, moved, _, _ := coord.migr.Stats()
	t.Logf("the failover pass moved %d files, %.1f MiB, allocating %.1f MiB", files, float64(moved)/(1<<20), float64(heap)/(1<<20))
	if files != 1 || moved < size/2 {
		t.Fatalf("the pass moved %d files, %d bytes; want the file and at least its dead stripe", files, moved)
	}
	if heap >= 16<<20 {
		t.Fatalf("the failover pass allocated %d MiB, want < 16 MiB", heap>>20)
	}
}
