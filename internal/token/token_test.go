package token

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatrixValidateGood(t *testing.T) {
	// The user-then-job-fair example of Figure 4: one root queue, two
	// users, six jobs (2 + 4).
	u := NewMatrix(1, 2)
	u.Set(0, 0, 0.5)
	u.Set(0, 1, 0.5)
	if err := u.Validate(); err != nil {
		t.Fatalf("user matrix: %v", err)
	}
	j := NewMatrix(2, 6)
	j.Set(0, 0, 0.5)
	j.Set(0, 1, 0.5)
	for c := 2; c < 6; c++ {
		j.Set(1, c, 0.25)
	}
	if err := j.Validate(); err != nil {
		t.Fatalf("job matrix: %v", err)
	}
	prod := u.Mul(j)
	want := []float64{0.25, 0.25, 0.125, 0.125, 0.125, 0.125}
	for c, w := range want {
		if math.Abs(prod.At(0, c)-w) > 1e-12 {
			t.Fatalf("product[%d] = %g, want %g", c, prod.At(0, c), w)
		}
	}
}

func TestMatrixValidateRowSum(t *testing.T) {
	m := NewMatrix(1, 2)
	m.Set(0, 0, 0.6)
	m.Set(0, 1, 0.6)
	if err := m.Validate(); err == nil {
		t.Fatal("want row-sum error")
	}
}

func TestMatrixValidateColumnMultiParent(t *testing.T) {
	m := NewMatrix(2, 1)
	m.Set(0, 0, 1)
	m.Set(1, 0, 1)
	if err := m.Validate(); err == nil {
		t.Fatal("want one-parent-per-column error")
	}
}

func TestMatrixValidateNegative(t *testing.T) {
	m := NewMatrix(1, 2)
	m.Set(0, 0, -0.5)
	m.Set(0, 1, 1.5)
	if err := m.Validate(); err == nil {
		t.Fatal("want negative-entry error")
	}
}

func TestChainProductEmpty(t *testing.T) {
	if _, err := ChainProduct(nil); err == nil {
		t.Fatal("want error for empty chain")
	}
}

func TestMulDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on dimension mismatch")
		}
	}()
	NewMatrix(1, 2).Mul(NewMatrix(3, 1))
}

// fromWeights builds a one-block assignment over the given weights.
func fromWeights(jobs []string, weights []float64) (*Assignment, error) {
	b, err := NewBlock(jobs, weights)
	if err != nil {
		return nil, err
	}
	return FromBlocks([]*Block{b})
}

// layout builds a multi-block assignment: one block per inner slice,
// jobs named "a", "b", … in segment order.
func layout(t *testing.T, weights ...[]float64) *Assignment {
	t.Helper()
	var blocks []*Block
	name := 'a'
	for _, ws := range weights {
		jobs := make([]string, len(ws))
		for i := range jobs {
			jobs[i] = string(name)
			name++
		}
		b, err := NewBlock(jobs, append([]float64(nil), ws...))
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
	}
	a, err := FromBlocks(blocks)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// names returns the namer of a's draw coordinates: the job at (b, j),
// "" for (-1, -1).
func names(a *Assignment) func(b, j int) string {
	return func(b, j int) string {
		if b < 0 {
			return ""
		}
		return a.Blocks()[b].Jobs[j]
	}
}

// all marks every job of a eligible.
func all(a *Assignment) []bool {
	elig := make([]bool, a.Len())
	for i := range elig {
		elig[i] = true
	}
	return elig
}

func TestFromWeightsBasic(t *testing.T) {
	a, err := fromWeights([]string{"a", "b", "c"}, []float64{1, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 3 || a.Total() != 4 || len(a.Blocks()) != 1 {
		t.Fatalf("len %d total %g blocks %d, want 3 4 1", a.Len(), a.Total(), len(a.Blocks()))
	}
	if got := a.Mass(all(a)); got != 4 {
		t.Fatalf("mass of everything = %g, want 4", got)
	}
	if got := a.Mass([]bool{false, true, false}); got != 2 {
		t.Fatalf("mass of b = %g, want 2", got)
	}
}

func TestFromWeightsErrors(t *testing.T) {
	if _, err := fromWeights([]string{"a"}, []float64{1, 2}); err == nil {
		t.Fatal("want length-mismatch error")
	}
	if _, err := fromWeights([]string{"a"}, []float64{-1}); err == nil {
		t.Fatal("want negative-weight error")
	}
	if _, err := fromWeights([]string{"a", "b"}, []float64{0, 0}); err == nil {
		t.Fatal("want all-zero error")
	}
	for _, a := range []*Assignment{{}, layout(t)} {
		if a.Len() != 0 || a.Total() != 0 {
			t.Fatalf("empty assignment: len %d total %g", a.Len(), a.Total())
		}
		if b, _ := a.Locate(0.5); b != -1 {
			t.Fatal("locate on an empty assignment should fail")
		}
		if b, _ := a.PickEligible(nil, 0, 0.5); b != -1 {
			t.Fatal("pick on an empty assignment should fail")
		}
	}
}

func TestLocate(t *testing.T) {
	a, _ := fromWeights([]string{"a", "b"}, []float64{1, 3})
	cases := []struct {
		x    float64
		want string
	}{{0, "a"}, {0.2, "a"}, {0.25, "b"}, {0.7, "b"}, {0.999999, "b"}}
	for _, c := range cases {
		if got := names(a)(a.Locate(c.x)); got != c.want {
			t.Fatalf("Locate(%g) = %q, want %q", c.x, got, c.want)
		}
	}
	// Three blocks: a b | c | d e, weights 1 1 | 2 | 3 1 over a total of 8.
	m := layout(t, []float64{1, 1}, []float64{2}, []float64{3, 1})
	cases = []struct {
		x    float64
		want string
	}{{0, "a"}, {0.124, "a"}, {0.125, "b"}, {0.25, "c"}, {0.49, "c"}, {0.5, "d"}, {0.874, "d"}, {0.875, "e"}, {math.Nextafter(1, 0), "e"}}
	for _, c := range cases {
		if got := names(m)(m.Locate(c.x)); got != c.want {
			t.Fatalf("multi-block Locate(%g) = %q, want %q", c.x, got, c.want)
		}
	}
}

// PickEligible over all-eligible jobs converges to segment shares.
func TestPickEligibleFrequencies(t *testing.T) {
	a := layout(t, []float64{1}, []float64{2, 5})
	elig := all(a)
	rng := rand.New(rand.NewSource(42))
	counts := map[string]int{}
	const n = 200000
	for i := 0; i < n; i++ {
		j := names(a)(a.PickEligible(elig, a.Mass(elig), rng.Float64()))
		if j == "" {
			t.Fatal("pick failed")
		}
		counts[j]++
	}
	for job, want := range map[string]float64{"a": 1.0 / 8, "b": 2.0 / 8, "c": 5.0 / 8} {
		got := float64(counts[job]) / n
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("frequency(%s) = %.3f, want %.3f", job, got, want)
		}
	}
}

// Opportunity fairness: with one job ineligible its mass is redistributed
// proportionally among the rest.
func TestPickEligibleRenormalizes(t *testing.T) {
	a := layout(t, []float64{1}, []float64{2}, []float64{1})
	elig := []bool{true, false, true}
	rng := rand.New(rand.NewSource(7))
	counts := map[string]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[names(a)(a.PickEligible(elig, a.Mass(elig), rng.Float64()))]++
	}
	if counts["b"] != 0 {
		t.Fatal("ineligible job was picked")
	}
	got := float64(counts["a"]) / n
	if math.Abs(got-0.5) > 0.01 {
		t.Fatalf("frequency(a) = %.3f, want 0.5 after renormalization", got)
	}
}

func TestPickEligibleNoneEligible(t *testing.T) {
	a := layout(t, []float64{1}, []float64{0, 2})
	if b, _ := a.PickEligible([]bool{false, false, false}, 0, 0.5); b != -1 {
		t.Fatal("pick should fail with no eligible jobs")
	}
	// Zero eligible mass: the first eligible job takes the leftover cycle.
	if got := names(a)(a.PickEligible([]bool{false, true, false}, 0, 0.9)); got != "b" {
		t.Fatalf("zero-mass pick = %q, want b", got)
	}
}

// Residue — the scaled draw reaching the summed eligible weight, or a
// caller's mass above it — goes to the last eligible job, as Locate
// gives it to the last job.
func TestPickEligibleResidue(t *testing.T) {
	a := layout(t, []float64{0.1, 0.2}, []float64{0.3}, []float64{0.4})
	elig := []bool{true, true, true, false}
	mass := a.Mass(elig)
	last := math.Nextafter(1, 0)
	if got := names(a)(a.PickEligible(elig, mass, last)); got != "c" {
		t.Fatalf("pick at the top of the eligible mass = %q, want c", got)
	}
	// A mass that drifted above the eligible sum (the weight of a drained
	// job subtracted from a larger total) puts the excess past c's bound.
	drifted := mass * (1 + 1e-12)
	if got := names(a)(a.PickEligible(elig, drifted, last)); got != "c" {
		t.Fatalf("pick past the eligible mass = %q, want c (last eligible)", got)
	}
	if got := names(a)(a.PickEligible(elig, drifted, 0)); got != "a" {
		t.Fatalf("pick at 0 = %q, want a", got)
	}
	if got := names(a)(a.Locate(last)); got != "d" {
		t.Fatalf("Locate at the top = %q, want d (last job)", got)
	}
}

// Property: any set of non-negative weights, split into any blocks,
// yields an assignment whose every positive-weight job is drawn at its
// own segment's midpoint, and whose total is the weights' sum.
func TestFromWeightsProperty(t *testing.T) {
	f := func(raw []uint16, cuts []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var weights [][]float64
		sum := 0.0
		for i, r := range raw {
			if i == 0 || (i < len(cuts) && cuts[i]%3 == 0) {
				weights = append(weights, nil)
			}
			w := float64(r%1000) + 1
			weights[len(weights)-1] = append(weights[len(weights)-1], w)
			sum += w
		}
		a := layout(t, weights...)
		if a.Len() != len(raw) || math.Abs(a.Total()-sum) > 1e-9*sum {
			return false
		}
		lo := 0.0
		for bi, b := range a.Blocks() {
			for j, w := range b.Ws {
				if gb, gj := a.Locate(lo + w/a.Total()/2); gb != bi || gj != j {
					return false
				}
				lo += w / a.Total()
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Locate(x) and the all-eligible PickEligible(x) land in the
// segment containing x, over a multi-block layout.
func TestLocateProperty(t *testing.T) {
	a := layout(t, []float64{3, 1}, []float64{4}, []float64{2, 0, 5})
	elig := all(a)
	mass := a.Mass(elig)
	f := func(xr uint32) bool {
		x := float64(xr) / float64(math.MaxUint32+1.0)
		b, j := a.Locate(x)
		if pb, pj := a.PickEligible(elig, mass, x); pb != b || pj != j {
			return false
		}
		lo := 0.0
		for bi, blk := range a.Blocks() {
			for k, w := range blk.Ws {
				hi := lo + w/a.Total()
				if bi == b && k == j {
					return x >= lo-1e-9 && x < hi+1e-9
				}
				lo = hi
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
