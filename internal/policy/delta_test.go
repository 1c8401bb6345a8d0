package policy

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"themisio/internal/token"
)

// randomDelta mutates the model job list in place and returns the
// matching Delta: a mix of arrivals, departures and attribute changes
// drawn from rng. Like the deltas jobtable's Refresh hands over, each
// job appears in at most one of the three lists.
func randomDelta(rng *rand.Rand, jobs *[]JobInfo, nextID *int) Delta {
	var d Delta
	touched := map[string]bool{}
	n := 1 + rng.Intn(4)
	for i := 0; i < n; i++ {
		switch op := rng.Intn(3); {
		case op == 0 || len(*jobs) == 0: // add
			j := JobInfo{
				JobID:    "job" + itoa(*nextID),
				UserID:   "user" + itoa(rng.Intn(5)),
				GroupID:  "grp" + itoa(rng.Intn(3)),
				Nodes:    rng.Intn(64) + 1,
				Priority: rng.Intn(4),
				Presence: rng.Intn(3),
			}
			*nextID++
			*jobs = append(*jobs, j)
			d.Added = append(d.Added, j)
			touched[j.JobID] = true
		case op == 1: // remove
			i := rng.Intn(len(*jobs))
			if touched[(*jobs)[i].JobID] {
				continue
			}
			d.Removed = append(d.Removed, (*jobs)[i].JobID)
			touched[(*jobs)[i].JobID] = true
			*jobs = append((*jobs)[:i], (*jobs)[i+1:]...)
		default: // update attributes, possibly moving user/group scope
			i := rng.Intn(len(*jobs))
			if touched[(*jobs)[i].JobID] {
				continue
			}
			j := (*jobs)[i]
			j.Nodes = rng.Intn(64) + 1
			j.Presence = rng.Intn(3)
			if rng.Intn(2) == 0 {
				j.UserID = "user" + itoa(rng.Intn(5))
			}
			if rng.Intn(4) == 0 {
				j.GroupID = "grp" + itoa(rng.Intn(3))
			}
			(*jobs)[i] = j
			d.Updated = append(d.Updated, j)
			touched[j.JobID] = true
		}
	}
	return d
}

// The delta-compile contract: Recompile(prev, delta) is share-for-share
// BIT-identical to a from-scratch Compile of the post-delta job set —
// same blocks job by job and weight by weight, same total, same Share
// answers — over 500+ random churn sequences per policy, with
// recompiles chained so errors would accumulate.
func TestRecompileMatchesCompileProperty(t *testing.T) {
	pols := []Policy{JobFair, SizeFair, PriorityFair, UserFair, UserThenSizeFair, GroupUserSizeFair}
	const seqs = 100 // ×6 policies = 600 churn sequences
	for pi, p := range pols {
		for s := 0; s < seqs; s++ {
			rng := rand.New(rand.NewSource(int64(pi*seqs + s)))
			var jobs []JobInfo
			nextID := 0
			// Seed population.
			seed := randomDelta(rng, &jobs, &nextID)
			for i := 0; i < rng.Intn(12); i++ {
				seed = randomDelta(rng, &jobs, &nextID)
			}
			_ = seed
			prev, err := Compile(jobs, p)
			if err != nil {
				t.Fatalf("%v: seed compile: %v", p, err)
			}
			steps := 1 + rng.Intn(6)
			for st := 0; st < steps; st++ {
				d := randomDelta(rng, &jobs, &nextID)
				inc, err := Recompile(prev, d)
				if err != nil {
					t.Fatalf("%v seq %d step %d: recompile: %v", p, s, st, err)
				}
				full, err := Compile(jobs, p)
				if err != nil {
					t.Fatalf("%v seq %d step %d: full compile: %v", p, s, st, err)
				}
				fb, ib := full.Assignment.Blocks(), inc.Assignment.Blocks()
				if len(fb) != len(ib) {
					t.Fatalf("%v seq %d step %d: %d blocks incremental, %d full", p, s, st, len(ib), len(fb))
				}
				for bi := range fb {
					if !slices.Equal(fb[bi].Jobs, ib[bi].Jobs) || !bitsEqual(fb[bi].Ws, ib[bi].Ws) {
						t.Fatalf("%v seq %d step %d: block %d diverged: inc %v %v full %v %v",
							p, s, st, bi, ib[bi].Jobs, ib[bi].Ws, fb[bi].Jobs, fb[bi].Ws)
					}
				}
				if fa, ia := full.Assignment, inc.Assignment; math.Float64bits(fa.Total()) != math.Float64bits(ia.Total()) || fa.Len() != ia.Len() {
					t.Fatalf("%v seq %d step %d: total/len inc %v/%d full %v/%d",
						p, s, st, ia.Total(), ia.Len(), fa.Total(), fa.Len())
				}
				for _, j := range jobs {
					if iw, fw := inc.Share(j.JobID), full.Share(j.JobID); iw != fw {
						t.Fatalf("%v seq %d step %d: share(%s) inc %v full %v",
							p, s, st, j.JobID, iw, fw)
					}
				}
				if got, want := inc.JobCount(), len(jobs); got != want {
					t.Fatalf("%v seq %d step %d: job count %d, want %d", p, s, st, got, want)
				}
				prev = inc
			}
		}
	}
}

// bitsEqual compares two weight slices bit for bit.
func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// Removing every job leaves a recompilable empty tree, and adding into
// the emptied tree works (the bootstrap shape: a controller's first
// delta lands on the empty-set compile).
func TestRecompileThroughEmpty(t *testing.T) {
	empty, err := Compile(nil, GroupUserSizeFair)
	if err != nil {
		t.Fatal(err)
	}
	j1, j2 := j("a", "u1", "g1", 2), j("b", "u2", "g1", 6)
	c, err := Recompile(empty, Delta{Added: []JobInfo{j1, j2}})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Share("b"); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("share(b) = %v, want 0.5 (one group, two users)", got)
	}
	c, err = Recompile(c, Delta{Removed: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	if c.Assignment.Len() != 0 || c.JobCount() != 0 {
		t.Fatalf("emptied tree: %d segments, %d jobs", c.Assignment.Len(), c.JobCount())
	}
	if _, err := Recompile(nil, Delta{}); err == nil {
		t.Fatal("nil base must refuse")
	}
	fifo, _ := Compile([]JobInfo{j1}, FIFO)
	if _, err := Recompile(fifo, Delta{}); err == nil {
		t.Fatal("FIFO base must refuse (no share tree)")
	}
}

// The structural-sharing pin behind the O(churn) recompile bar: a
// delta reuses the token block of every terminal scope it does not
// touch pointer-identical across epochs, and replaces exactly the
// touched scopes' blocks (which is also what lets the scheduler's
// epoch publication reuse those blocks' resolved state tables).
func TestRecompileSharesCleanBlocks(t *testing.T) {
	var jobs []JobInfo
	for g := 0; g < 3; g++ {
		for u := 0; u < 2; u++ {
			for k := 0; k < 2; k++ {
				jobs = append(jobs, j("j"+itoa(g)+itoa(u)+itoa(k), "u"+itoa(g*2+u), "g"+itoa(g), k*4+2))
			}
		}
	}
	prev, err := Compile(jobs, GroupUserSizeFair)
	if err != nil {
		t.Fatal(err)
	}
	prevBlocks := map[*token.Block]bool{}
	for _, b := range prev.Assignment.Blocks() {
		prevBlocks[b] = true
	}
	if len(prevBlocks) != 6 {
		t.Fatalf("expected 6 terminal (group,user) scopes, got %d", len(prevBlocks))
	}
	// Touch one job: only its (group,user) scope's block may change.
	upd := jobs[0]
	upd.Nodes += 7
	next, err := Recompile(prev, Delta{Updated: []JobInfo{upd}})
	if err != nil {
		t.Fatal(err)
	}
	shared, fresh := 0, 0
	for _, b := range next.Assignment.Blocks() {
		if prevBlocks[b] {
			shared++
		} else {
			fresh++
		}
	}
	if shared != 5 || fresh != 1 {
		t.Fatalf("blocks shared %d / fresh %d after a one-job delta, want 5 / 1", shared, fresh)
	}
}

// The lazily-materialised matrix chain agrees with the tree walk: the
// chain product's per-job probabilities equal the compiled segment
// widths (the tree evaluates Equation 1's exact expressions; widths
// pick up only cumulative-sum rounding, so ≤1e-12).
func TestMatricesMatchTreeShares(t *testing.T) {
	jobs := []JobInfo{
		j("j1", "u1", "g1", 16), j("j2", "u1", "g1", 8),
		j("j3", "u2", "g1", 4), j("j4", "u3", "g2", 2),
		j("j5", "u3", "g2", 1),
	}
	for _, p := range []Policy{JobFair, SizeFair, UserThenSizeFair, GroupUserSizeFair} {
		c, err := Compile(jobs, p)
		if err != nil {
			t.Fatal(err)
		}
		chain, prod, err := c.Matrices()
		if err != nil || len(chain) != len(p.Levels) {
			t.Fatalf("%v: chain %d levels (err %v), want %d", p, len(chain), err, len(p.Levels))
		}
		for ci, jid := range prod.ColLabels {
			if got, want := c.Share(jid), prod.At(0, ci); math.Abs(got-want) > 1e-12 {
				t.Fatalf("%v: share(%s) = %v, chain product says %v", p, jid, got, want)
			}
		}
	}
}
