package chash

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

// addr names server i the way a fabric does: loopback addresses one
// port apart, the similar strings a weak hash clusters.
func addr(i int) string { return fmt.Sprintf("127.0.0.1:%d", 7300+i) }

func newRing(servers int) *Ring {
	r := New(0)
	for i := 0; i < servers; i++ {
		r.Add(addr(i))
	}
	return r
}

// jobs is how many job directories the test keys fall into.
const jobs = 997

// jobKeys is the test key set: 100 000 checkpoint files, key i in job
// directory i % jobs.
func jobKeys() []string {
	all := make([]string, 100000)
	for i := range all {
		all[i] = fmt.Sprintf("/data/job%d/ckpt.%d", i%jobs, i)
	}
	return all
}

// lookupAll is every key's n-server set.
func lookupAll(r *Ring, all []string, n int) [][]string {
	out := make([][]string, len(all))
	for i, k := range all {
		out[i] = r.LookupN(k, n)
	}
	return out
}

func distinct(set []string) bool {
	sorted := slices.Clone(set)
	slices.Sort(sorted)
	return len(slices.Compact(sorted)) == len(set)
}

func TestLookupEmpty(t *testing.T) {
	r := New(0)
	if _, ok := r.Lookup("x"); ok {
		t.Fatal("lookup on empty ring should fail")
	}
	if got := r.LookupN("x", 3); got != nil {
		t.Fatalf("LookupN on empty ring = %v", got)
	}
}

// A ring built in another order, as another process would, agrees.
func TestLookupDeterministic(t *testing.T) {
	r, other := newRing(4), New(0)
	for j := 3; j >= 0; j-- {
		other.Add(addr(j))
	}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("some/file/path%d", i)
		a, _ := r.Lookup(k)
		b, _ := other.Lookup(k)
		if a != b || !slices.Equal(r.LookupN(k, 4), other.LookupN(k, 4)) {
			t.Fatalf("%s: lookup not deterministic: %s vs %s", k, a, b)
		}
	}
}

func TestAddRemoveIdempotent(t *testing.T) {
	r := New(0)
	r.Add("a")
	r.Add("a")
	if r.Len() != 1 {
		t.Fatalf("len = %d", r.Len())
	}
	r.Remove("a")
	r.Remove("a")
	if r.Len() != 0 {
		t.Fatalf("len = %d after removes", r.Len())
	}
}

func TestDistributionRoughlyUniform(t *testing.T) {
	r := New(0)
	const nodes = 8
	for i := 0; i < nodes; i++ {
		r.Add(fmt.Sprintf("node%d", i))
	}
	counts := map[string]int{}
	const keys = 20000
	for i := 0; i < keys; i++ {
		n, _ := r.Lookup(fmt.Sprintf("/fs/data/file-%d", i))
		counts[n]++
	}
	if len(counts) != nodes {
		t.Fatalf("%d of %d nodes own keys", len(counts), nodes)
	}
	want := keys / nodes
	for n, c := range counts {
		if c < want/2 || c > want*2 {
			t.Fatalf("node %s owns %d keys, want within [%d, %d]", n, c, want/2, want*2)
		}
	}
}

// LookupN is a ranking: its first node is Lookup's, a set names no
// server twice, a wider set extends a narrower one, and n is clipped to
// the server count.
func TestLookupN(t *testing.T) {
	all := jobKeys()
	for _, servers := range []int{4, 16, 128} {
		r := newRing(servers)
		for _, k := range all {
			one, _ := r.Lookup(k)
			set := r.LookupN(k, 3)
			if len(set) != 3 || set[0] != one || !distinct(set) ||
				!slices.Equal(r.LookupN(k, 1), set[:1]) || !slices.Equal(r.LookupN(k, 2), set[:2]) {
				t.Fatalf("%d servers, %s: Lookup %s, LookupN 1..3 %v %v %v",
					servers, k, one, r.LookupN(k, 1), r.LookupN(k, 2), set)
			}
		}
		if got := r.LookupN("x", servers+5); len(got) != servers || !distinct(got) {
			t.Fatalf("%d servers: LookupN(x, %d) = %d nodes, distinct %v", servers, servers+5, len(got), distinct(got))
		}
	}
}

// A join moves exactly the keys the joiner wins: every key whose set
// changed now holds the joiner, and without it the set is a prefix of
// the old one. The joiner tops a key's n-set with probability n/(S+1),
// so that is the share that moves.
func TestJoinMovesOnlyKeysTheJoinerWins(t *testing.T) {
	all := jobKeys()
	for _, servers := range []int{4, 16, 128} {
		for n := 1; n <= 3; n++ {
			r := newRing(servers)
			before := lookupAll(r, all, n)
			joiner := addr(servers)
			r.Add(joiner)
			moved := 0
			for i, k := range all {
				after := r.LookupN(k, n)
				if slices.Equal(after, before[i]) {
					continue
				}
				moved++
				j := slices.Index(after, joiner)
				if j < 0 || !slices.Equal(slices.Delete(slices.Clone(after), j, j+1), before[i][:n-1]) {
					t.Fatalf("%d servers, n=%d, %s: %v → %v after %s joined", servers, n, k, before[i], after, joiner)
				}
			}
			p := float64(n) / float64(servers+1)
			want, sd := p*float64(len(all)), math.Sqrt(p*(1-p)*float64(len(all)))
			if math.Abs(float64(moved)-want) > 5*sd {
				t.Fatalf("%d servers, n=%d: %d keys moved, want %.0f ± %.0f", servers, n, moved, want, 5*sd)
			}
		}
	}
}

// A removal moves only the keys whose set held the removed server: the
// rest keep their sets, and each of those keys keeps its other servers
// in order and appends the next in rank.
func TestRemovalOnlyMovesOwnedKeys(t *testing.T) {
	all := jobKeys()
	for _, servers := range []int{4, 16, 128} {
		for n := 1; n <= 3; n++ {
			r := newRing(servers)
			before := lookupAll(r, all, n)
			gone := addr(servers / 2)
			r.Remove(gone)
			for i, k := range all {
				after := r.LookupN(k, n)
				held := slices.Index(before[i], gone)
				if held < 0 && !slices.Equal(after, before[i]) ||
					held >= 0 && (slices.Contains(after, gone) || !slices.Equal(after[:n-1], slices.Delete(slices.Clone(before[i]), held, held+1))) {
					t.Fatalf("%d servers, n=%d, %s: %v → %v after %s left", servers, n, k, before[i], after, gone)
				}
			}
		}
	}
}

// Property: lookups never return an absent node and are stable under
// re-adding an unrelated node.
func TestLookupMembershipProperty(t *testing.T) {
	r := New(32)
	members := map[string]bool{}
	for i := 0; i < 7; i++ {
		n := fmt.Sprintf("srv%d", i)
		r.Add(n)
		members[n] = true
	}
	f := func(key string) bool {
		n, ok := r.Lookup(key)
		return ok && members[n]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Occupancy: spreading many keys over 4, 8 and 16 servers keeps the
// hottest shard within 1.35× the mean, with every server holding keys
// and every key counted once — the acceptance check for
// membership-driven rebalancing.
func TestOccupancyBalance(t *testing.T) {
	all := jobKeys()
	for _, servers := range []int{4, 8, 16} {
		r := New(0)
		for i := 0; i < servers; i++ {
			r.Add(fmt.Sprintf("srv%02d", i))
		}
		loads := map[string]int{}
		for _, k := range all {
			n, _ := r.Lookup(k)
			loads[n]++
		}
		if len(loads) != servers {
			t.Fatalf("loads cover %d servers, want %d", len(loads), servers)
		}
		max, total := 0, 0
		for _, n := range loads {
			total += n
			if n > max {
				max = n
			}
		}
		if total != len(all) {
			t.Fatalf("loads accounted %d keys, want %d", total, len(all))
		}
		mean := float64(total) / float64(servers)
		if ratio := float64(max) / mean; ratio > 1.35 {
			t.Fatalf("%d servers: max/mean = %.3f, want <= 1.35", servers, ratio)
		}
	}
}

// Occupancy: every key picks its server uniformly and independently, so
// the per-server loads are multinomial, which is what the small-count
// analysis of arXiv:2203.08918 bounds, with no virtual-node term.
//
// Mean load: the hottest of S shards sits within z = sqrt(2 ln S) + 1
// standard deviations of the mean (the Gaussian maximum of S, plus one).
// The 128-virtual-node ring this placement replaced needed 1 +
// 2.5·sqrt(ln S / 128) plus two standard deviations; the bound here must
// be tighter at every tested size.
//
// Tail: with 997 jobs of about 100 files each, the number of (job,
// server) pairs where the server holds 0, 1 or 2 of the job's files
// must match the binomial expectation to four standard deviations (a
// count of rare events varies by at most its mean) — the servers a
// narrow job misses entirely, or holds one or two files of, at 128.
func TestOccupancyKarlinBound(t *testing.T) {
	all := jobKeys()
	for _, servers := range []int{4, 8, 16, 128} {
		r := newRing(servers)
		index := map[string]int{}
		for i, n := range r.Nodes() {
			index[n] = i
		}
		loads := make([]int, servers)
		perJob := make([][]int, jobs)
		for j := range perJob {
			perJob[j] = make([]int, servers)
		}
		for i, k := range all {
			n, _ := r.Lookup(k)
			loads[index[n]]++
			perJob[i%jobs][index[n]]++
		}
		mean := float64(len(all)) / float64(servers)
		sd := math.Sqrt(mean * (1 - 1/float64(servers)))
		bound := 1 + (math.Sqrt(2*math.Log(float64(servers)))+1)*sd/mean
		vnodeBound := 1 + 2.5*math.Sqrt(math.Log(float64(servers))/128) + 2/math.Sqrt(mean)
		if bound > vnodeBound {
			t.Fatalf("%d servers: bound %.3f is looser than the 128-vnode ring's %.3f", servers, bound, vnodeBound)
		}
		if ratio := float64(slices.Max(loads)) / mean; ratio > bound {
			t.Fatalf("%d servers: max/mean = %.3f exceeds the multinomial bound %.3f", servers, ratio, bound)
		}

		var got, want [3]float64
		p := 1 / float64(servers)
		for j, counts := range perJob {
			files := float64(len(all) / jobs)
			if j < len(all)%jobs {
				files++
			}
			for c := range want {
				// Binomial(files, p) at c, for c = 0, 1, 2.
				comb := [3]float64{1, files, files * (files - 1) / 2}[c]
				want[c] += float64(servers) * comb * math.Pow(p, float64(c)) * math.Pow(1-p, files-float64(c))
			}
			for _, n := range counts {
				if n < len(got) {
					got[n]++
				}
			}
		}
		for c := range got {
			if math.Abs(got[c]-want[c]) > 4*math.Sqrt(max(want[c], 1)) {
				t.Fatalf("%d servers: %.0f (job, server) pairs hold %d files, binomial expectation %.1f", servers, got[c], c, want[c])
			}
		}
		t.Logf("%d servers: max/mean %.3f (bound %.3f, ring %.3f); pairs holding 0/1/2 files %v, expected %.1f",
			servers, float64(slices.Max(loads))/mean, bound, vnodeBound, got, want)
	}
}

// Lookups racing Add and Remove see some membership whole: distinct
// servers, all of them members at some point, as many as asked.
func TestLookupRacesMembership(t *testing.T) {
	r := newRing(4)
	universe := newRing(8).Nodes()
	stop := make(chan struct{})
	churned := make(chan struct{})
	go func() {
		defer close(churned)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if name := addr(4 + i%4); i/4%2 == 0 {
				r.Add(name)
			} else {
				r.Remove(name)
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("/race/%d/%d", g, i)
				set := r.LookupN(k, 3)
				one, ok := r.Lookup(k)
				if len(set) != 3 || !distinct(set) || !ok || r.Len() < 4 || len(r.Nodes()) > 8 {
					t.Errorf("%s: LookupN %v, Lookup %q %v", k, set, one, ok)
					return
				}
				for _, n := range append(set, one) {
					if !slices.Contains(universe, n) {
						t.Errorf("%s: %q was never a member", k, n)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-churned
}

var (
	sinkSet  []string
	sinkNode string
)

// BenchmarkLookupN is a placement's cost: one score per server for each
// of the n picks.
func BenchmarkLookupN(b *testing.B) {
	keys := jobKeys()[:1024]
	for _, servers := range []int{2, 4, 128} {
		r := newRing(servers)
		for _, n := range []int{1, 2} {
			b.Run(fmt.Sprintf("servers=%d/n=%d", servers, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sinkSet = r.LookupN(keys[i&1023], n)
				}
			})
		}
		b.Run(fmt.Sprintf("servers=%d/Lookup", servers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkNode, _ = r.Lookup(keys[i&1023])
			}
		})
	}
}
