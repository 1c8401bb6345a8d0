package cluster_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"themisio/internal/chash"
	"themisio/internal/client"
	"themisio/internal/server"
)

// TestMigrationMatchesModel pins what a join-time migration preserves,
// against an in-memory model of the namespace. Three servers hold 24
// files of widths 1–3 and sizes from empty to 5 MiB; a fourth joins while
// one writer appends to four files the join moves and one reader re-reads
// four others. Once the fabric settles, a fresh client sees exactly the
// model (bytes, sizes, listings), every recorded stripe set is the
// ring's, and the stores hold no extent that no local stripe accounts
// for.
func TestMigrationMatchesModel(t *testing.T) {
	const unit = 64 << 10
	rng := rand.New(rand.NewSource(27))
	servers, addrs := startFabric(t, 3)
	waitConverged(t, servers, 3)

	// The model: every file's bytes and every directory's entries.
	model := map[string][]byte{}
	dirs := map[string][]string{"/mm": nil}
	sizes := []int{0, 1, unit - 1, unit, 3*unit + 7, 5 << 20}
	writers := make([]*client.Client, 3)
	var err error
	for w := range writers {
		if writers[w], err = client.DialOpts(jobInfo(fmt.Sprintf("w%d", w+1)), addrs,
			client.Options{Stripes: w + 1, StripeUnit: unit}); err != nil {
			t.Fatal(err)
		}
		defer writers[w].Close()
	}
	if err := writers[0].Mkdir("/mm"); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 4; d++ {
		dir := fmt.Sprintf("/mm/d%d", d)
		if err := writers[0].Mkdir(dir); err != nil {
			t.Fatal(err)
		}
		dirs["/mm"] = append(dirs["/mm"], fmt.Sprintf("d%d", d))
	}
	var paths []string
	width := map[string]int{}
	for i := 0; i < 24; i++ {
		p := fmt.Sprintf("/mm/d%d/f%02d", i%4, i)
		w := 1 + (i/6)%3
		data := make([]byte, sizes[i%len(sizes)])
		rng.Read(data)
		f, err := writers[w-1].Open(p, true)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := f.Write(data); err != nil || n != len(data) {
			t.Fatalf("write %s: n=%d err=%v", p, n, err)
		}
		f.Close()
		model[p], width[p] = data, w
		dirs[fmt.Sprintf("/mm/d%d", i%4)] = append(dirs[fmt.Sprintf("/mm/d%d", i%4)], fmt.Sprintf("f%02d", i))
		paths = append(paths, p)
	}

	// The joiner listens before it boots, so the files the join moves are
	// known up front (placement is a function of the member names alone):
	// of the listeners tried, the first under which the join moves eight
	// non-empty files is kept — four for the writer, widest first, and
	// four for the reader.
	var ln net.Listener
	var moving []string
	for try := 0; len(moving) < 8; try++ {
		if ln != nil {
			ln.Close()
		}
		if try == 20 {
			t.Fatal("no joiner address moves eight files")
		}
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		before, after := chash.New(0), chash.New(0)
		for _, a := range addrs {
			before.Add(a)
			after.Add(a)
		}
		after.Add(ln.Addr().String())
		moving = moving[:0]
		for _, p := range paths {
			if len(model[p]) > 0 && !slices.Equal(before.LookupN(p, width[p]), after.LookupN(p, width[p])) {
				moving = append(moving, p)
			}
		}
	}
	sort.SliceStable(moving, func(i, j int) bool { return width[moving[i]] > width[moving[j]] })
	appended, reread := moving[:4], moving[4:8]
	frozen := make([][]byte, len(reread))
	for i, p := range reread {
		frozen[i] = model[p]
	}

	wc, err := client.Dial(jobInfo("appender"), addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	handles := make([]*client.File, len(appended))
	for i, p := range appended {
		if handles[i], err = wc.Open(p, false); err != nil {
			t.Fatal(err)
		}
	}
	rc, err := client.Dial(jobInfo("rereader"), addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	var stop atomic.Bool
	var appends, rereads atomic.Int64
	var failed atomic.Value
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		wrng := rand.New(rand.NewSource(28))
		for i := 0; !stop.Load(); i++ {
			k := i % len(handles)
			chunk := make([]byte, 1+wrng.Intn(2*unit+13))
			wrng.Read(chunk)
			if n, err := handles[k].Write(chunk); err != nil || n != len(chunk) {
				failed.Store(fmt.Errorf("append %s: n=%d err=%v", appended[k], n, err))
				return
			}
			model[appended[k]] = append(model[appended[k]], chunk...) // read again only after wg.Wait
			appends.Add(1)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			k := i % len(reread)
			if err := readsAs(rc, reread[k], frozen[k]); err != nil {
				failed.Store(fmt.Errorf("re-read during migration: %w", err))
				return
			}
			rereads.Add(1)
		}
	}()

	all := append(append([]*server.Server{}, servers...), joinOn(t, ln, 104, addrs[0]))
	waitConverged(t, all, 4)
	waitRebalanced(t, all)
	stop.Store(true)
	wg.Wait()
	if err := failed.Load(); err != nil {
		t.Fatal(err)
	}
	var files, moved int64
	for _, s := range all {
		f, b, _, _ := s.Migrator().Stats()
		files, moved = files+f, moved+b
	}
	t.Logf("%d file migrations copied %d bytes across %d appends and %d re-reads", files, moved, appends.Load(), rereads.Load())

	fresh, err := client.Dial(jobInfo("checker"), append(addrs, ln.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	ring := all[0].Cluster().Membership().Ring()
	var total int64
	for _, p := range paths {
		want := model[p]
		total += int64(len(want))
		if size, _, err := fresh.Stat(p); err != nil || size != int64(len(want)) {
			t.Fatalf("stat %s: size %d err %v, model %d", p, size, err, len(want))
		}
		if err := readsAs(fresh, p, want); err != nil {
			t.Fatal(err)
		}
		set, stripes, err := fresh.Layout(p)
		if err != nil {
			t.Fatal(err)
		}
		if stripes != width[p] || !slices.Equal(set, ring.LookupN(p, stripes)) {
			t.Fatalf("%s: recorded width %d set %v, ring wants width %d set %v", p, stripes, set, width[p], ring.LookupN(p, width[p]))
		}
	}
	for dir, want := range dirs {
		got, err := fresh.Readdir(dir)
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(want)
		if !slices.Equal(got, want) {
			t.Fatalf("readdir %s = %v, model %v", dir, got, want)
		}
	}

	// No leaked extents: the stores hold exactly the local stripes, and
	// the local stripes hold exactly the files.
	var used, local int64
	for _, s := range all {
		used += s.Shard().Used()
		for _, fi := range s.Shard().FileLayouts() {
			local += fi.Size
		}
	}
	if used != local || local != total {
		t.Fatalf("stores hold %d bytes, local stripes %d, files %d", used, local, total)
	}
}

// readsAs opens p through c and checks it holds exactly want.
func readsAs(c *client.Client, p string, want []byte) error {
	f, err := c.Open(p, false)
	if err != nil {
		return fmt.Errorf("open %s: %w", p, err)
	}
	defer f.Close()
	got := make([]byte, len(want)+1)
	n, err := io.ReadFull(f, got)
	if err != io.ErrUnexpectedEOF && !(err == io.EOF && len(want) == 0) {
		return fmt.Errorf("read %s: %d bytes, err %v, want %d and EOF", p, n, err, len(want))
	}
	if !bytes.Equal(got[:n], want) {
		return fmt.Errorf("read %s: content differs from the model", p)
	}
	return nil
}

// TestMigrationHeapBounded holds the migrator's memory to one segment:
// moving three 64 MiB width-2 files from two servers onto a third streams
// each moved stripe through the stripe pipeline, so between the join and
// the settle the process allocates less than half the bytes it copies
// and the heap in use grows by no more than 64 MiB.
func TestMigrationHeapBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const fileBytes = 64 << 20
	servers, addrs := startFabric(t, 2)
	waitConverged(t, servers, 2)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Three files the join moves, named once the joiner's address is known.
	before, after := chash.New(0), chash.New(0)
	for _, a := range addrs {
		before.Add(a)
		after.Add(a)
	}
	after.Add(ln.Addr().String())
	var paths []string
	for k := 0; len(paths) < 3; k++ {
		if p := fmt.Sprintf("/heap%d.bin", k); !slices.Equal(before.LookupN(p, 2), after.LookupN(p, 2)) {
			paths = append(paths, p)
		}
	}
	fill := func(b []byte, file, off int) {
		for j := range b {
			b[j] = byte((uint64(off+j)*0x9E3779B97F4A7C15 + uint64(file)) >> 56)
		}
	}
	w, err := client.DialOpts(jobInfo("heap-writer"), addrs, client.Options{Stripes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	buf := make([]byte, 4<<20)
	for i, p := range paths {
		f, err := w.Open(p, true)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < fileBytes; off += len(buf) {
			fill(buf, i, off)
			if n, err := f.Write(buf); err != nil || n != len(buf) {
				t.Fatalf("write %s: n=%d err=%v", p, n, err)
			}
		}
		f.Close()
	}
	layouts := func(c *client.Client) (sets [][]string) {
		for _, p := range paths {
			set, _, err := c.Layout(p)
			if err != nil {
				t.Fatal(err)
			}
			sets = append(sets, set)
		}
		return sets
	}
	old := layouts(w)

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var peak atomic.Uint64
	peak.Store(m0.HeapInuse)
	done := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		var m runtime.MemStats
		for tick := time.NewTicker(5 * time.Millisecond); ; {
			select {
			case <-done:
				tick.Stop()
				return
			case <-tick.C:
			}
			runtime.ReadMemStats(&m)
			if m.HeapInuse > peak.Load() {
				peak.Store(m.HeapInuse)
			}
		}
	}()
	start := time.Now()
	all := append(append([]*server.Server{}, servers...), joinOn(t, ln, 100, addrs[0]))
	waitConverged(t, all, 3)
	waitRebalanced(t, all)
	wall := time.Since(start)
	close(done)
	<-sampled
	runtime.ReadMemStats(&m1)

	var copied int64
	for _, s := range all {
		_, b, _, _ := s.Migrator().Stats()
		copied += b
	}
	fresh, err := client.Dial(jobInfo("heap-reader"), append(addrs, ln.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	stripes := 0
	for i, set := range layouts(fresh) {
		for j := range set {
			if set[j] != old[i][j] {
				stripes++
			}
		}
	}
	alloc, grown := int64(m1.TotalAlloc-m0.TotalAlloc), int64(peak.Load())-int64(m0.HeapInuse)
	t.Logf("copied %d MiB (%d stripes re-homed) in %v; allocated %d MiB, peak HeapInuse %+d MiB",
		copied>>20, stripes, wall.Round(time.Millisecond), alloc>>20, grown>>20)
	if copied == 0 {
		t.Fatal("the join copied nothing")
	}
	if alloc > copied/2 {
		t.Errorf("allocated %d MiB to copy %d MiB; want at most half", alloc>>20, copied>>20)
	}
	if grown > 64<<20 {
		t.Errorf("peak HeapInuse grew by %d MiB; want at most 64", grown>>20)
	}

	want := make([]byte, len(buf))
	for i, p := range paths {
		f, err := fresh.Open(p, false)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < fileBytes; off += len(buf) {
			fill(want, i, off)
			if _, err := io.ReadFull(f, buf); err != nil || !bytes.Equal(buf, want) {
				t.Fatalf("%s at %d: err %v, equal %v", p, off, err, bytes.Equal(buf, want))
			}
		}
		f.Close()
	}
}
