// Package token implements the statistical token design of ThemisIO (§3 of
// the paper). A sharing policy is compiled into a probability segment on
// [0, 1) per job by multiplying a chain of transition matrices, one per
// sharing-entity level. An I/O worker draws a uniform random number and
// serves the job whose segment contains it; draws over jobs with empty
// queues are renormalised away, which is what makes the design
// work-conserving ("opportunity fairness").
package token

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Epsilon is the tolerance used when validating that matrix rows are
// stochastic and that segment bounds tile [0, 1).
const Epsilon = 1e-9

// Matrix is a transition matrix T^i as defined in §3 of the paper. Each row
// represents a token queue (a sharing scope at level i) and each column an
// entity at the next level. Row sums are 1 and each column has at most one
// non-zero entry, because an entity belongs to exactly one parent scope.
type Matrix struct {
	Rows, Cols int
	// V is row-major: V[r*Cols + c].
	V []float64
	// RowLabels and ColLabels name the scopes/entities, for debugging and
	// for the tree rendering used by the fig10/11 experiment.
	RowLabels []string
	ColLabels []string
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, V: make([]float64, rows*cols)}
}

// At returns the entry at row r, column c.
func (m *Matrix) At(r, c int) float64 { return m.V[r*m.Cols+c] }

// Set assigns the entry at row r, column c.
func (m *Matrix) Set(r, c int, v float64) { m.V[r*m.Cols+c] = v }

// Validate checks the two structural invariants from the paper: every row
// sums to one (each scope distributes its full share) and every column has
// at most one non-zero entry (each entity has a single parent scope).
func (m *Matrix) Validate() error {
	for r := 0; r < m.Rows; r++ {
		sum := 0.0
		for c := 0; c < m.Cols; c++ {
			v := m.At(r, c)
			if v < 0 {
				return fmt.Errorf("token: negative entry at (%d,%d): %g", r, c, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-6 {
			return fmt.Errorf("token: row %d sums to %g, want 1", r, sum)
		}
	}
	for c := 0; c < m.Cols; c++ {
		nz := 0
		for r := 0; r < m.Rows; r++ {
			if m.At(r, c) != 0 {
				nz++
			}
		}
		if nz > 1 {
			return fmt.Errorf("token: column %d has %d non-zero entries, want <=1", c, nz)
		}
	}
	return nil
}

// Mul returns the matrix product m·n. It panics if the inner dimensions
// disagree; the policy compiler always produces conformant chains.
func (m *Matrix) Mul(n *Matrix) *Matrix {
	if m.Cols != n.Rows {
		panic(fmt.Sprintf("token: dimension mismatch %dx%d · %dx%d", m.Rows, m.Cols, n.Rows, n.Cols))
	}
	out := NewMatrix(m.Rows, n.Cols)
	out.RowLabels = m.RowLabels
	out.ColLabels = n.ColLabels
	for r := 0; r < m.Rows; r++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(r, k)
			if a == 0 {
				continue
			}
			for c := 0; c < n.Cols; c++ {
				out.V[r*out.Cols+c] += a * n.At(k, c)
			}
		}
	}
	return out
}

// ChainProduct multiplies the matrices in order (Equation 1 of the paper):
// T⁰ · T¹ · … · Tᴺ⁻¹. The result of a well-formed policy chain is a 1×J row
// vector of per-job probabilities.
func ChainProduct(chain []*Matrix) (*Matrix, error) {
	if len(chain) == 0 {
		return nil, fmt.Errorf("token: empty matrix chain")
	}
	acc := chain[0]
	for i := 1; i < len(chain); i++ {
		acc = acc.Mul(chain[i])
	}
	return acc, nil
}

// Segment is one job's slice of [0, 1).
type Segment struct {
	Lo, Hi float64
	Job    string
}

// Width returns the probability mass of the segment.
func (s Segment) Width() float64 { return s.Hi - s.Lo }

// Block is one contiguous run of the assignment: the jobs of a single
// terminal sharing scope with their raw (unnormalised) token weights
// and the prefix sums a draw needs to binary-search within the run.
// A Block is immutable once it is part of an Assignment — that is what
// lets a delta recompile share the blocks of untouched scopes
// pointer-identical across epochs instead of re-deriving a flat
// segment array per generation.
type Block struct {
	Jobs []string
	Ws   []float64 // raw weights, parallel to Jobs
	Cum  []float64 // prefix sums of Ws: Cum[i] = Ws[0]+…+Ws[i]
	Sum  float64   // total raw mass of the block (== Cum[len-1], 0 if empty)
}

// NewBlock builds a block over the given jobs and raw weights, taking
// ownership of both slices (callers must not mutate them afterwards).
func NewBlock(jobs []string, ws []float64) (*Block, error) {
	if len(jobs) != len(ws) {
		return nil, fmt.Errorf("token: %d jobs but %d weights", len(jobs), len(ws))
	}
	b := &Block{Jobs: jobs, Ws: ws, Cum: make([]float64, len(ws))}
	sum := 0.0
	for i, w := range ws {
		if w < 0 {
			return nil, fmt.Errorf("token: negative weight %g for job %s", w, jobs[i])
		}
		sum += w
		b.Cum[i] = sum
	}
	b.Sum = sum
	return b, nil
}

// Assignment is the statistical token assignment: a tiling of [0, 1) by
// job segments, in ascending order, held as a sequence of scope blocks.
// The flat []Segment view is materialised lazily (Segments) — the
// steady-state draw path works off the blocks directly, so an
// incrementally recompiled epoch never pays the O(jobs) flatten.
type Assignment struct {
	blocks []*Block
	n      int     // total job count across blocks
	total  float64 // Σ Block.Sum, in block order — the normaliser
	index  map[string]float64
	flat   atomic.Pointer[[]Segment]
}

// FromBlocks builds an assignment from scope blocks, taking ownership
// of the slice. withIndex controls whether the O(jobs) job→share map is
// built (Share answers 0 without it; the delta-recompile path skips it
// because incremental epochs answer shares from the policy share tree).
func FromBlocks(blocks []*Block, withIndex bool) (*Assignment, error) {
	n := 0
	total := 0.0
	for _, b := range blocks {
		n += len(b.Jobs)
		total += b.Sum
	}
	if n == 0 {
		return &Assignment{}, nil
	}
	if total <= 0 {
		return nil, fmt.Errorf("token: all weights are zero")
	}
	a := &Assignment{blocks: blocks, n: n, total: total}
	if withIndex {
		a.index = make(map[string]float64, n)
		for _, b := range blocks {
			for i, j := range b.Jobs {
				a.index[j] = b.Ws[i] / total
			}
		}
	}
	return a, nil
}

// FromWeights builds a single-block assignment from per-job weights
// (not necessarily normalised). Jobs with non-positive weight receive
// an empty segment. The job order is preserved so that segment layout
// is deterministic. The input slices are copied.
func FromWeights(jobs []string, weights []float64) (*Assignment, error) {
	if len(jobs) != len(weights) {
		return nil, fmt.Errorf("token: %d jobs but %d weights", len(jobs), len(weights))
	}
	if len(jobs) == 0 {
		return &Assignment{}, nil
	}
	b, err := NewBlock(append([]string(nil), jobs...), append([]float64(nil), weights...))
	if err != nil {
		return nil, err
	}
	return FromBlocks([]*Block{b}, true)
}

// Blocks returns the assignment's scope blocks in segment order. The
// blocks and the slice are shared and must not be mutated.
func (a *Assignment) Blocks() []*Block { return a.blocks }

// Total returns the raw weight mass the segments are normalised by.
func (a *Assignment) Total() float64 { return a.total }

// Len returns the number of job segments in the assignment.
func (a *Assignment) Len() int { return a.n }

// Segments materialises the flat segment view of the assignment:
// hi = lo + w/total per job in block order, with the final bound
// clamped to 1.0 to absorb floating-point residue. The view is built
// on first use and cached; reporting, validation, and the experiment
// harness use it — the scheduler's draw path never does.
func (a *Assignment) Segments() []Segment {
	if p := a.flat.Load(); p != nil {
		return *p
	}
	segs := make([]Segment, 0, a.n)
	lo := 0.0
	for _, b := range a.blocks {
		for i, j := range b.Jobs {
			hi := lo + b.Ws[i]/a.total
			segs = append(segs, Segment{Lo: lo, Hi: hi, Job: j})
			lo = hi
		}
	}
	if len(segs) > 0 {
		segs[len(segs)-1].Hi = 1.0 // absorb floating-point residue
	}
	a.flat.Store(&segs)
	return segs
}

// Validate checks that segments tile [0, 1) without gaps or overlaps.
func (a *Assignment) Validate() error {
	segs := a.Segments()
	if len(segs) == 0 {
		return nil
	}
	if math.Abs(segs[0].Lo) > Epsilon {
		return fmt.Errorf("token: first segment starts at %g", segs[0].Lo)
	}
	for i := 1; i < len(segs); i++ {
		if math.Abs(segs[i].Lo-segs[i-1].Hi) > Epsilon {
			return fmt.Errorf("token: gap between segment %d and %d", i-1, i)
		}
	}
	last := segs[len(segs)-1]
	if math.Abs(last.Hi-1) > Epsilon {
		return fmt.Errorf("token: last segment ends at %g", last.Hi)
	}
	return nil
}

// Share returns the probability mass assigned to the given job, 0 if
// absent or if the assignment was built without an index.
func (a *Assignment) Share(job string) float64 {
	return a.index[job]
}

// Jobs returns the job ids in segment order.
func (a *Assignment) Jobs() []string {
	out := make([]string, 0, a.n)
	for _, b := range a.blocks {
		out = append(out, b.Jobs...)
	}
	return out
}

// Lookup returns the job whose segment contains x ∈ [0, 1).
func (a *Assignment) Lookup(x float64) (string, bool) {
	segs := a.Segments()
	if len(segs) == 0 {
		return "", false
	}
	i := sort.Search(len(segs), func(i int) bool { return segs[i].Hi > x })
	if i >= len(segs) {
		i = len(segs) - 1
	}
	return segs[i].Job, true
}

// PickEligible draws the statistical token conditioned on the eligible set:
// jobs whose queues are non-empty. This implements opportunity fairness —
// unused probability mass is, in effect, reassigned proportionally to jobs
// that have work. rnd must return a uniform value in [0, 1).
//
// Zero-share eligible jobs (for example, a job that just appeared and has
// not been through a λ-sync yet) are served only when no positive-share job
// is eligible, which mirrors ThemisIO's behaviour of serving unknown jobs
// from leftover cycles rather than starving them.
func (a *Assignment) PickEligible(eligible func(job string) bool, rnd func() float64) (string, bool) {
	// The draw runs in raw weight space — eligible mass and the scaled
	// draw both use the unnormalised block weights, which conditions the
	// distribution identically to widths on [0, 1).
	total := 0.0
	for _, b := range a.blocks {
		for i, j := range b.Jobs {
			if eligible(j) {
				total += b.Ws[i]
			}
		}
	}
	if total <= 0 {
		for _, b := range a.blocks {
			for _, j := range b.Jobs {
				if eligible(j) {
					return j, true
				}
			}
		}
		return "", false
	}
	x := rnd() * total
	acc := 0.0
	for _, b := range a.blocks {
		for i, j := range b.Jobs {
			if !eligible(j) {
				continue
			}
			acc += b.Ws[i]
			if x < acc {
				return j, true
			}
		}
	}
	// Floating point residue: fall back to the last eligible segment.
	for bi := len(a.blocks) - 1; bi >= 0; bi-- {
		b := a.blocks[bi]
		for i := len(b.Jobs) - 1; i >= 0; i-- {
			if eligible(b.Jobs[i]) {
				return b.Jobs[i], true
			}
		}
	}
	return "", false
}
