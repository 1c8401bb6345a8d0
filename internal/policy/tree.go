// The share tree: policy compilation restructured for O(churn) delta
// recompiles at 100k+ jobs.
//
// Compile builds a tree mirroring the policy's level chain — one scope
// node per distinct user/group along the non-terminal levels, one leaf
// per job under its terminal scope — and derives the token assignment
// from a single in-order walk. Recompile patches only the scopes a
// delta touches (structural sharing: untouched subtrees are reused
// pointer-identical) and re-walks. The walk evaluates exactly the
// float expressions Equation 1's matrix chain would: a scope's factor
// is the left-associated product of 1/children along its path and a
// leaf's weight is factor·(w/Σw), which is bitwise what ChainProduct
// computes for a single-parent-per-column chain. Delta-compiled shares
// are therefore bit-identical to a from-scratch Compile (pinned by
// TestRecompileMatchesCompileProperty), and the matrices themselves
// are only materialised on demand via Compiled.Matrices.
package policy

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"themisio/internal/token"
)

// Delta describes the job-set change between two job-table Refreshes:
// jobs that joined the active set, jobs whose policy-relevant attributes
// (nodes, user, group, priority, presence) changed, and jobs that left.
// jobtable produces deltas (Table.Refresh) and Recompile consumes them.
// A well-formed delta names each job in at most one of the three lists
// (Refresh folds any number of edits to a job down to that form).
type Delta struct {
	Added   []JobInfo
	Updated []JobInfo
	Removed []string
}

// Empty reports whether the delta carries no change.
func (d Delta) Empty() bool {
	return len(d.Added) == 0 && len(d.Updated) == 0 && len(d.Removed) == 0
}

// Size returns the number of individual job changes in the delta.
func (d Delta) Size() int { return len(d.Added) + len(d.Updated) + len(d.Removed) }

// jobLeaf is one job's node in the share tree. The job's unnormalised
// token weight (the factor-chain probability before FromBlocks'
// division by the weight total) is published atomically so Share can
// answer lock-free once the leaf is found; a Compiled superseded by a
// later Recompile of the same lineage answers Share with the lineage's
// latest weights (the epoch consumers — scheduler, ledger, CLI — only
// ever read the newest).
type jobLeaf struct {
	info  JobInfo
	share atomic.Uint64 // math.Float64bits of the unnormalised weight
}

// scopeNode is one sharing scope: a child holder at non-terminal
// levels (children, sorted by key), a leaf holder at the terminal
// level (leaves, sorted by JobID).
type scopeNode struct {
	key      string
	children []*scopeNode
	childIdx map[string]*scopeNode
	leaves   []*jobLeaf

	// block caches the terminal scope's token block, valid while the
	// scope's leaf set is untouched (nil after an insert/remove) and its
	// path factor is unchanged (blockFactor — a scope split/merge above
	// re-derives it). This is the structural sharing that makes
	// Recompile O(churn): the next assignment reuses a clean scope's
	// block pointer-identical, and only dirty scopes re-read their
	// leaves and allocate a fresh block (blocks are immutable once
	// published — earlier epochs keep referencing the old one).
	block       *token.Block
	blockFactor float64
}

// shareTree is the mutable compilation state shared across the epochs
// of one policy lineage. All mutation happens under mu on the
// controller; Share takes the read lock only to resolve the leaf.
type shareTree struct {
	pol   Policy
	mu    sync.RWMutex
	root  *scopeNode
	index map[string]*jobLeaf

	// totalBits is the assignment's weight total (the FromBlocks
	// normaliser: Σ block.Sum in walk order) at the last build; Share
	// divides the leaf's raw weight by it, evaluating the identical
	// float expression on the full-compile and delta paths.
	totalBits atomic.Uint64
}

func newShareTree(pol Policy) *shareTree {
	return &shareTree{pol: pol, root: &scopeNode{key: "root"}, index: make(map[string]*jobLeaf)}
}

// insertLocked adds the job to its scope chain, creating scopes as
// needed; an existing leaf for the same JobID is replaced (attribute
// change or scope move).
func (t *shareTree) insertLocked(j JobInfo) {
	if _, ok := t.index[j.JobID]; ok {
		t.removeLocked(j.JobID)
	}
	n := t.root
	for _, l := range t.pol.Levels[:len(t.pol.Levels)-1] {
		k := j.scopeKey(l)
		c, ok := n.childIdx[k]
		if !ok {
			c = &scopeNode{key: k}
			if n.childIdx == nil {
				n.childIdx = make(map[string]*scopeNode)
			}
			n.childIdx[k] = c
			i := sort.Search(len(n.children), func(i int) bool { return n.children[i].key >= k })
			n.children = append(n.children, nil)
			copy(n.children[i+1:], n.children[i:])
			n.children[i] = c
		}
		n = c
	}
	leaf := &jobLeaf{info: j}
	i := sort.Search(len(n.leaves), func(i int) bool { return n.leaves[i].info.JobID >= j.JobID })
	n.leaves = append(n.leaves, nil)
	copy(n.leaves[i+1:], n.leaves[i:])
	n.leaves[i] = leaf
	n.block = nil
	t.index[j.JobID] = leaf
}

// removeLocked deletes the job's leaf and cascades emptied scopes out
// of the tree. The scope path comes from the leaf's own recorded info,
// so a remove always finds the chain the job was inserted under.
func (t *shareTree) removeLocked(jobID string) {
	leaf, ok := t.index[jobID]
	if !ok {
		return
	}
	info := leaf.info
	path := make([]*scopeNode, 1, len(t.pol.Levels))
	path[0] = t.root
	n := t.root
	for _, l := range t.pol.Levels[:len(t.pol.Levels)-1] {
		c := n.childIdx[info.scopeKey(l)]
		if c == nil {
			delete(t.index, jobID)
			return
		}
		path = append(path, c)
		n = c
	}
	i := sort.Search(len(n.leaves), func(i int) bool { return n.leaves[i].info.JobID >= jobID })
	if i < len(n.leaves) && n.leaves[i].info.JobID == jobID {
		n.leaves = append(n.leaves[:i], n.leaves[i+1:]...)
	}
	n.block = nil
	delete(t.index, jobID)
	for d := len(path) - 1; d >= 1; d-- {
		c := path[d]
		if len(c.leaves) > 0 || len(c.children) > 0 {
			break
		}
		p := path[d-1]
		delete(p.childIdx, c.key)
		i := sort.Search(len(p.children), func(i int) bool { return p.children[i].key >= c.key })
		if i < len(p.children) && p.children[i] == c {
			p.children = append(p.children[:i], p.children[i+1:]...)
		}
	}
}

// assignmentLocked derives the token assignment from the tree: an
// in-order walk (children by key, leaves by JobID — the exact column
// order of the matrix chain) accumulating each path's factor, emitting
// one token block per terminal scope. Clean scopes contribute their
// cached block pointer-identical — the structural sharing that makes a
// delta recompile O(churn + scopes): only scopes whose leaves or path
// factor changed re-read their leaves, allocate a fresh immutable
// block, and re-publish their jobs' raw weights for Share.
func (t *shareTree) assignmentLocked() (*token.Assignment, error) {
	n := len(t.index)
	blocks := make([]*token.Block, 0, 64)
	terminal := t.pol.Levels[len(t.pol.Levels)-1]
	var walkErr error
	var walk func(s *scopeNode, factor float64, depth int)
	walk = func(s *scopeNode, factor float64, depth int) {
		if depth == len(t.pol.Levels)-1 {
			if s.block == nil || s.blockFactor != factor {
				sum := 0.0
				for _, lf := range s.leaves {
					sum += lf.info.weight(terminal)
				}
				jobs := make([]string, len(s.leaves))
				ws := make([]float64, len(s.leaves))
				for i, lf := range s.leaves {
					w := 0.0
					if sum > 0 {
						w = factor * (lf.info.weight(terminal) / sum)
					}
					jobs[i] = lf.info.JobID
					ws[i] = w
					lf.share.Store(math.Float64bits(w))
				}
				b, err := token.NewBlock(jobs, ws)
				if err != nil {
					if walkErr == nil {
						walkErr = err
					}
					return
				}
				s.block, s.blockFactor = b, factor
			}
			blocks = append(blocks, s.block)
			return
		}
		f := factor * (1 / float64(len(s.children)))
		for _, c := range s.children {
			walk(c, f, depth+1)
		}
	}
	if n > 0 {
		walk(t.root, 1.0, 0)
	}
	if walkErr != nil {
		return nil, walkErr
	}
	a, err := token.FromBlocks(blocks)
	if err != nil {
		return nil, err
	}
	// FromBlocks' normaliser (Σ block.Sum in walk order) — Share divides
	// by the same value, so every compile path evaluates the identical
	// float expression.
	t.totalBits.Store(math.Float64bits(a.Total()))
	return a, nil
}

// share answers Compiled.Share from the tree: the leaf's published raw
// weight divided by the assignment's weight total — the same
// normalisation FromBlocks applies, so the full-compile and delta
// paths return bitwise-identical shares.
func (t *shareTree) share(job string) float64 {
	t.mu.RLock()
	lf, ok := t.index[job]
	t.mu.RUnlock()
	if !ok {
		return 0
	}
	total := math.Float64frombits(t.totalBits.Load())
	if total <= 0 {
		return 0
	}
	return math.Float64frombits(lf.share.Load()) / total
}

// Recompile derives a new Compiled from prev by applying the delta to
// its share tree and re-walking: O(delta·log n) tree surgery plus one
// O(n) sort-free, map-free normalisation pass, against the full
// Compile's sort + scope partitioning + index build. The returned
// Compiled shares prev's tree (same lineage). Callers that may hold a
// FIFO or nil base must fall back to Compile on error.
func Recompile(prev *Compiled, d Delta) (*Compiled, error) {
	if prev == nil || prev.tree == nil {
		return nil, fmt.Errorf("policy: recompile without a share tree (nil or FIFO base)")
	}
	t := prev.tree
	t.mu.Lock()
	for _, id := range d.Removed {
		t.removeLocked(id)
	}
	for _, j := range d.Updated {
		t.insertLocked(j)
	}
	for _, j := range d.Added {
		t.insertLocked(j)
	}
	a, err := t.assignmentLocked()
	t.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return &Compiled{Policy: prev.Policy, Assignment: a, tree: t}, nil
}
