// Package metrics provides time-binned throughput series and summary
// statistics used by every experiment: the paper reports per-second
// throughput samples, medians during sharing phases, standard deviations,
// and fairness shares.
package metrics

import (
	"math"
	"sort"
	"time"
)

// Series accumulates bytes into fixed-width time bins, producing a
// throughput-over-time curve like the ones in Figures 8–12 of the paper.
type Series struct {
	Bin   time.Duration
	bytes []float64
}

// NewSeries returns a series with the given bin width (the paper samples
// at 1-second intervals).
func NewSeries(bin time.Duration) *Series {
	if bin <= 0 {
		bin = time.Second
	}
	return &Series{Bin: bin}
}

// Add records n bytes transferred at virtual time t.
func (s *Series) Add(t time.Duration, n int64) {
	if n == 0 {
		return
	}
	i := int(t / s.Bin)
	if i < 0 {
		i = 0
	}
	for len(s.bytes) <= i {
		s.bytes = append(s.bytes, 0)
	}
	s.bytes[i] += float64(n)
}

// AddSpread records n bytes transferred uniformly over [t0, t1), spreading
// the mass across the bins the interval covers. This produces smooth
// curves when a single large request spans several bins.
func (s *Series) AddSpread(t0, t1 time.Duration, n int64) {
	if n <= 0 {
		return
	}
	if t1 <= t0 {
		s.Add(t0, n)
		return
	}
	total := float64(t1 - t0)
	first := int(t0 / s.Bin)
	last := int((t1 - 1) / s.Bin)
	for len(s.bytes) <= last {
		s.bytes = append(s.bytes, 0)
	}
	for i := first; i <= last; i++ {
		binStart := time.Duration(i) * s.Bin
		binEnd := binStart + s.Bin
		lo := maxDur(binStart, t0)
		hi := minDur(binEnd, t1)
		if hi > lo {
			s.bytes[i] += float64(n) * float64(hi-lo) / total
		}
	}
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

func minDur(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}

// Rate returns the throughput of bin i in bytes/second.
func (s *Series) Rate(i int) float64 {
	if i < 0 || i >= len(s.bytes) {
		return 0
	}
	return s.bytes[i] / s.Bin.Seconds()
}

// Rates returns the whole series as bytes/second per bin.
func (s *Series) Rates() []float64 {
	out := make([]float64, len(s.bytes))
	for i := range s.bytes {
		out[i] = s.Rate(i)
	}
	return out
}

// RatesBetween returns bytes/second for bins covering [from, to).
func (s *Series) RatesBetween(from, to time.Duration) []float64 {
	lo := int(from / s.Bin)
	hi := int(to / s.Bin)
	var out []float64
	for i := lo; i < hi; i++ {
		out = append(out, s.Rate(i))
	}
	return out
}

// TotalBytes returns the sum over all bins.
func (s *Series) TotalBytes() float64 {
	t := 0.0
	for _, b := range s.bytes {
		t += b
	}
	return t
}

// Median returns the median of xs; 0 for empty input.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// Mean returns the arithmetic mean of xs; 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// Stddev returns the population standard deviation of xs.
func Stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	v := 0.0
	for _, x := range xs {
		d := x - m
		v += d * d
	}
	return math.Sqrt(v / float64(len(xs)))
}
