package bb

import (
	"sort"
	"time"

	"themisio/internal/metrics"
	"themisio/internal/sched"
)

// Meter records completed I/O per job per direction into 1-second bins —
// the measurement used in every figure.
type Meter struct {
	bin   time.Duration
	read  map[string]*metrics.Series
	write map[string]*metrics.Series
	meta  map[string]*metrics.Series // op-count series for iops workloads
}

// NewMeter returns a meter with the given bin width.
func NewMeter(bin time.Duration) *Meter {
	if bin <= 0 {
		bin = DefaultBin
	}
	return &Meter{
		bin:   bin,
		read:  make(map[string]*metrics.Series),
		write: make(map[string]*metrics.Series),
		meta:  make(map[string]*metrics.Series),
	}
}

func (m *Meter) series(table map[string]*metrics.Series, job string) *metrics.Series {
	s, ok := table[job]
	if !ok {
		s = metrics.NewSeries(m.bin)
		table[job] = s
	}
	return s
}

// Record notes a completed request served over [t0, t1).
func (m *Meter) Record(job string, op sched.Op, bytes int64, t0, t1 time.Duration) {
	switch {
	case op == sched.OpRead:
		m.series(m.read, job).AddSpread(t0, t1, bytes)
	case op == sched.OpWrite:
		m.series(m.write, job).AddSpread(t0, t1, bytes)
	default:
		m.series(m.meta, job).AddSpread(t0, t1, 1)
	}
}

// Jobs returns all jobs with recorded traffic, sorted.
func (m *Meter) Jobs() []string {
	set := map[string]bool{}
	for j := range m.read {
		set[j] = true
	}
	for j := range m.write {
		set[j] = true
	}
	for j := range m.meta {
		set[j] = true
	}
	out := make([]string, 0, len(set))
	for j := range set {
		out = append(out, j)
	}
	sort.Strings(out)
	return out
}

// Read returns the job's read series (may be nil).
func (m *Meter) Read(job string) *metrics.Series { return m.read[job] }

// Write returns the job's write series (may be nil).
func (m *Meter) Write(job string) *metrics.Series { return m.write[job] }

// Meta returns the job's metadata-op series (may be nil).
func (m *Meter) Meta(job string) *metrics.Series { return m.meta[job] }

// Rates returns the job's combined read+write throughput per bin over
// [from, to), in bytes/sec.
func (m *Meter) Rates(job string, from, to time.Duration) []float64 {
	n := int(to/m.bin) - int(from/m.bin)
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	add := func(s *metrics.Series) {
		if s == nil {
			return
		}
		for i, r := range s.RatesBetween(from, to) {
			if i < len(out) {
				out[i] += r
			}
		}
	}
	add(m.read[job])
	add(m.write[job])
	return out
}

// MedianRate returns the median combined throughput of the job over
// [from, to) in bytes/sec.
func (m *Meter) MedianRate(job string, from, to time.Duration) float64 {
	return metrics.Median(m.Rates(job, from, to))
}

// MeanRate returns the mean combined throughput of the job over [from, to).
func (m *Meter) MeanRate(job string, from, to time.Duration) float64 {
	return metrics.Mean(m.Rates(job, from, to))
}

// StddevRate returns the standard deviation of the job's per-bin combined
// throughput over [from, to).
func (m *Meter) StddevRate(job string, from, to time.Duration) float64 {
	return metrics.Stddev(m.Rates(job, from, to))
}

// TotalBytes returns all bytes moved by the job.
func (m *Meter) TotalBytes(job string) float64 {
	t := 0.0
	if s := m.read[job]; s != nil {
		t += s.TotalBytes()
	}
	if s := m.write[job]; s != nil {
		t += s.TotalBytes()
	}
	return t
}
