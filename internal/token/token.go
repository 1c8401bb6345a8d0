// Package token implements the statistical token design of ThemisIO (§3 of
// the paper). A sharing policy is compiled into a probability segment on
// [0, 1) per job by multiplying a chain of transition matrices, one per
// sharing-entity level. An I/O worker takes the next point of its token
// sequence and serves the job whose segment contains it (Locate); draws
// over jobs with empty queues are renormalised away (PickEligible), which
// is what makes the design work-conserving ("opportunity fairness").
package token

import (
	"fmt"
	"math"
	"sort"
)

// Matrix is a transition matrix T^i as defined in §3 of the paper. Each row
// represents a token queue (a sharing scope at level i) and each column an
// entity at the next level. Row sums are 1 and each column has at most one
// non-zero entry, because an entity belongs to exactly one parent scope.
type Matrix struct {
	Rows, Cols int
	// V is row-major: V[r*Cols + c].
	V []float64
	// RowLabels and ColLabels name the scopes/entities, for debugging.
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

// Block is one contiguous run of the assignment: the jobs of a single
// terminal sharing scope with their raw (unnormalised) token weights
// and the prefix sums a draw needs to binary-search within the run.
// A Block is immutable once it is part of an Assignment — that is what
// lets a delta recompile share the blocks of untouched scopes
// pointer-identical across epochs.
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

// Assignment is the statistical token assignment: one segment per job,
// tiling [0, 1) in block order, and the one implementation of the draw
// over it. Segment bounds are never materialised — a draw scales x into
// raw weight space and searches the block prefix masses, then the
// chosen block's own prefix sums — so an incrementally recompiled epoch
// never pays an O(jobs) flatten.
type Assignment struct {
	blocks []*Block
	cum    []float64 // cum[b] is the raw mass before block b; cum[len(blocks)] is the total
	n      int       // total job count across blocks
}

// FromBlocks builds an assignment from scope blocks, taking ownership
// of the slice.
func FromBlocks(blocks []*Block) (*Assignment, error) {
	a := &Assignment{blocks: blocks, cum: make([]float64, len(blocks)+1)}
	for i, b := range blocks {
		a.n += len(b.Jobs)
		a.cum[i+1] = a.cum[i] + b.Sum
	}
	if a.n == 0 {
		return &Assignment{}, nil
	}
	if a.Total() <= 0 {
		return nil, fmt.Errorf("token: all weights are zero")
	}
	return a, nil
}

// Blocks returns the assignment's scope blocks in segment order. The
// blocks and the slice are shared and must not be mutated.
func (a *Assignment) Blocks() []*Block { return a.blocks }

// Total returns the raw weight mass the segments are normalised by.
func (a *Assignment) Total() float64 {
	if len(a.cum) == 0 {
		return 0
	}
	return a.cum[len(a.cum)-1]
}

// Len returns the number of job segments in the assignment.
func (a *Assignment) Len() int { return a.n }

// Locate returns the coordinates — block, then index within it — of the
// job whose segment contains x ∈ [0, 1): the unconditioned draw.
// Floating-point residue past the last bound goes to the last job.
// Returns (-1, -1) on an empty assignment.
func (a *Assignment) Locate(x float64) (int, int) {
	if a.n == 0 {
		return -1, -1
	}
	xm := x * a.Total()
	nb := len(a.blocks)
	b := sort.Search(nb, func(i int) bool { return a.cum[i+1] > xm })
	if b >= nb {
		b = nb - 1
	}
	blk := a.blocks[b]
	if len(blk.Jobs) == 0 {
		return -1, -1
	}
	r := xm - a.cum[b]
	j := sort.Search(len(blk.Cum), func(i int) bool { return blk.Cum[i] > r })
	if j >= len(blk.Jobs) {
		j = len(blk.Jobs) - 1
	}
	return b, j
}

// Mass returns the raw weight of the jobs elig marks — one flag per job
// in segment order — which is what PickEligible conditions on.
func (a *Assignment) Mass(elig []bool) float64 {
	m, i := 0.0, 0
	for _, blk := range a.blocks {
		for _, w := range blk.Ws {
			if elig[i] {
				m += w
			}
			i++
		}
	}
	return m
}

// PickEligible is the draw conditioned on the eligible set: the
// coordinates of the job whose segment contains x ∈ [0, 1) once the mass
// of every job elig does not mark is removed and the rest rescaled
// (opportunity fairness). mass is the eligible raw weight (Mass); the
// draw runs in raw weight space, which conditions exactly as
// renormalised widths on [0, 1) would. Residue — x·mass reaching the
// summed eligible weight, or a mass above it — goes to the last
// eligible job, as in Locate.
//
// With zero eligible mass the first eligible job is served: zero-share
// jobs (one that has not been through a λ-sync yet) take only the
// cycles no positive-share job wants. Returns (-1, -1) if nothing is
// eligible.
func (a *Assignment) PickEligible(elig []bool, mass, x float64) (int, int) {
	lastB, lastJ := -1, -1
	x *= mass
	acc, i := 0.0, 0
	for bi, blk := range a.blocks {
		for j, w := range blk.Ws {
			if elig[i] {
				if mass <= 0 {
					return bi, j
				}
				acc += w
				if x < acc {
					return bi, j
				}
				lastB, lastJ = bi, j
			}
			i++
		}
	}
	return lastB, lastJ
}
