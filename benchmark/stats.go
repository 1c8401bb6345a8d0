package main

import (
	"encoding/binary"
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of xs the
// way Python's statistics.quantiles(xs, n=4) does (exclusive method), which
// is what the acceptance check in README.md uses. Fewer than two samples
// give the lone value (or 0) three times.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	switch m {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		} else if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(xs []float64) float64 {
	_, med, _ := quartiles(xs)
	return med
}

// percentileSorted returns the p-th percentile (0..1) of sorted ns by
// nearest rank.
func percentileSorted(ns []int64, p float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(ns)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(ns[i])
}

// ratio is a/b, and 0 when b is 0: every division whose denominator is a
// measured window or count goes through here so no result is NaN or Inf.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rng is xorshift64*: the seeded source of data patterns and offsets.
type rng uint64

func newRNG(seed int64, stream int) *rng {
	// splitmix64 of (seed, stream) so nearby seeds give unrelated streams.
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	r := rng(z)
	return &r
}

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = rng(x)
	return x * 0x2545f4914f6cdd1d
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// fill writes the generator's stream into b.
func (r *rng) fill(b []byte) {
	for ; len(b) >= 8; b = b[8:] {
		binary.LittleEndian.PutUint64(b, r.next())
	}
	for i := range b {
		b[i] = byte(r.next())
	}
}
