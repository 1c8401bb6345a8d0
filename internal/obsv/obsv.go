// Package obsv is the fabric's operator observability layer: a
// zero-dependency (stdlib-only) metrics registry rendered in the
// Prometheus text exposition format, an HTTP handler mounting /metrics,
// /healthz and the pprof profiling hooks, and small structured-logging
// helpers shared by the binaries.
//
// Two kinds of family cover the fabric. Values that it already counts
// elsewhere (the scheduler's lock-free serviced-byte counters, the
// drainer's stage-out tallies, the membership table) are exported
// through callback collectors (CounterFunc, GaugeFunc and the *VecFunc
// variants) evaluated at scrape time, so instrumenting them costs the
// hot path nothing at all. Latencies go into histograms, whose Observe
// is one atomic bucket increment plus a CAS-loop sum add and takes no
// lock; locks appear only on the cold paths — family registration at
// boot and child creation on a label value's first sighting. A scrape
// walks the families under the registry lock but reads every sample
// with atomic loads, so a flood of parallel writers never blocks (nor
// is blocked by) a scrape — pinned by the package's -race hammer test.
package obsv

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric family types in the exposition format.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// LatencyBuckets is the default fixed bucket ladder for request-path
// latency histograms: 100µs to 10s, roughly ×2.5 per step — wide enough
// to cover a RAM-backed op and a seal-stalled striped write in the same
// family.
var LatencyBuckets = []float64{
	.0001, .00025, .0005, .001, .0025, .005,
	.01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}

// Registry holds metric families and renders them. The zero value is
// not usable; call NewRegistry.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// family is one named metric family: a fixed type, help string and
// label schema, with one child per distinct label-value tuple (or a
// collect callback evaluated at scrape time instead).
type family struct {
	name       string
	help       string
	typ        string
	labelNames []string
	buckets    []float64 // histogram families only

	mu       sync.Mutex
	children map[string]child // key: joined label values
	order    []string         // registration order of children keys
	collect  func(emit Emit)  // callback families; children nil
}

type child struct {
	labelValues []string
	metric      any // *Histogram or func() float64
}

// Emit is the sample sink passed to callback collectors: one call per
// sample, with the label values matching the family's label schema.
type Emit func(labelValues []string, v float64)

// register adds a family, panicking on a duplicate name or an invalid
// label schema — both programmer errors caught at boot, the same
// contract as the upstream Prometheus client.
func (r *Registry) register(f *family) *family {
	if f.name == "" || !validName(f.name) {
		panic(fmt.Sprintf("obsv: invalid metric name %q", f.name))
	}
	for _, l := range f.labelNames {
		if !validName(l) {
			panic(fmt.Sprintf("obsv: invalid label name %q on %s", l, f.name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.fams[f.name]; dup {
		panic(fmt.Sprintf("obsv: duplicate metric family %q", f.name))
	}
	if f.children == nil && f.collect == nil {
		f.children = map[string]child{}
	}
	r.fams[f.name] = f
	return f
}

func validName(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return len(s) > 0
}

// child returns the family's metric for the label tuple, creating it
// with mk on first sight. Hot callers should hold the returned handle
// rather than re-resolving per operation.
func (f *family) child(values []string, mk func() any) any {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("obsv: %s wants %d label values, got %d",
			f.name, len(f.labelNames), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c.metric
	}
	m := mk()
	f.children[key] = child{labelValues: append([]string(nil), values...), metric: m}
	f.order = append(f.order, key)
	return m
}

// --- instrument types ----------------------------------------------------

// Histogram is a fixed-bucket distribution. Observe is lock-free: one
// atomic bucket increment, one count increment, and a CAS-loop float
// add for the sum.
type Histogram struct {
	uppers []float64 // ascending upper bounds; +Inf implicit
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

func newHistogram(buckets []float64) *Histogram {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("obsv: histogram buckets not strictly ascending")
		}
	}
	uppers := append([]float64(nil), buckets...)
	return &Histogram{uppers: uppers, counts: make([]atomic.Int64, len(uppers)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.uppers, v) // first upper bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// --- registration API ----------------------------------------------------

// GaugeFunc registers a gauge whose value is fn evaluated at scrape
// time — the zero-hot-path-cost way to export a value the fabric
// already maintains (queue depth, dirty bytes, ring epoch).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(&family{name: name, help: help, typ: typeGauge})
	f.child(nil, func() any { return fn })
}

// GaugeVecFunc registers a labeled gauge family fully produced by a
// collect callback at scrape time — for dynamic label sets such as
// per-job backlogs or per-entity share residuals, where the set of
// children changes as jobs come and go.
func (r *Registry) GaugeVecFunc(name, help string, labelNames []string, collect func(emit Emit)) {
	r.register(&family{
		name: name, help: help, typ: typeGauge,
		labelNames: labelNames, collect: collect,
	})
}

// CounterVecFunc is GaugeVecFunc with counter semantics: the callback
// must emit monotonically non-decreasing values (cumulative tallies the
// fabric already keeps, e.g. per-job serviced bytes).
func (r *Registry) CounterVecFunc(name, help string, labelNames []string, collect func(emit Emit)) {
	r.register(&family{
		name: name, help: help, typ: typeCounter,
		labelNames: labelNames, collect: collect,
	})
}

// CounterFunc registers an unlabeled scrape-time counter.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.register(&family{name: name, help: help, typ: typeCounter})
	f.child(nil, func() any { return fn })
}

// Histogram registers an unlabeled histogram family with the given
// ascending bucket upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.register(&family{name: name, help: help, typ: typeHistogram, buckets: buckets})
	return f.child(nil, func() any { return newHistogram(buckets) }).(*Histogram)
}

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{r.register(&family{
		name: name, help: help, typ: typeHistogram,
		labelNames: labelNames, buckets: buckets,
	})}
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With returns the histogram for the label values, creating it on
// first sight.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.child(labelValues, func() any { return newHistogram(v.f.buckets) }).(*Histogram)
}

// --- text exposition render ----------------------------------------------

// WriteTo renders every family in the Prometheus text exposition
// format (version 0.0.4), families sorted by name and children in
// first-registration order, so successive scrapes of a quiet registry
// are byte-identical.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	fams := make([]*family, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.fams[n])
	}
	r.mu.Unlock()

	// Rendering makes several small writes per sample; they reach w in
	// buffer-fulls, not one call each.
	bw := bufio.NewWriterSize(w, 32<<10)
	cw := &countWriter{w: bw}
	for _, f := range fams {
		if err := f.render(cw); err != nil {
			return cw.n, err
		}
	}
	return cw.n, bw.Flush()
}

type countWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
	return n, err
}

func (f *family) render(w *countWriter) error {
	fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
	if f.collect != nil {
		f.collect(func(labelValues []string, v float64) {
			if len(labelValues) != len(f.labelNames) {
				return // a misbehaving collector must not corrupt the format
			}
			writeSample(w, f.name, f.labelNames, labelValues, "", v)
		})
		return w.err
	}
	f.mu.Lock()
	kids := make([]child, 0, len(f.order))
	for _, key := range f.order {
		kids = append(kids, f.children[key])
	}
	f.mu.Unlock()
	for _, c := range kids {
		switch m := c.metric.(type) {
		case func() float64:
			writeSample(w, f.name, f.labelNames, c.labelValues, "", m())
		case *Histogram:
			// A labeled child that has observed nothing is left out: a
			// per-op family pre-creates every op, and most never run.
			if len(f.labelNames) > 0 && m.Count() == 0 {
				continue
			}
			renderHistogram(w, f, c, m)
		}
	}
	return w.err
}

// renderHistogram emits the cumulative _bucket series (ending in
// le="+Inf"), then _sum and _count. The +Inf bucket equals _count by
// construction — the conformance test pins both that and bucket
// monotonicity.
func renderHistogram(w *countWriter, f *family, c child, h *Histogram) {
	cum := int64(0)
	names := append(append([]string(nil), f.labelNames...), "le")
	for i, ub := range h.uppers {
		cum += h.counts[i].Load()
		vals := append(append([]string(nil), c.labelValues...), formatFloat(ub))
		writeSample(w, f.name, names, vals, "_bucket", float64(cum))
	}
	cum += h.counts[len(h.uppers)].Load()
	vals := append(append([]string(nil), c.labelValues...), "+Inf")
	writeSample(w, f.name, names, vals, "_bucket", float64(cum))
	writeSample(w, f.name, f.labelNames, c.labelValues, "_sum", h.Sum())
	writeSample(w, f.name, f.labelNames, c.labelValues, "_count", float64(cum))
}

func writeSample(w *countWriter, name string, labelNames, labelValues []string, suffix string, v float64) {
	w.Write([]byte(name))
	w.Write([]byte(suffix))
	if len(labelNames) > 0 {
		w.Write([]byte{'{'})
		for i, ln := range labelNames {
			if i > 0 {
				w.Write([]byte{','})
			}
			fmt.Fprintf(w, `%s="%s"`, ln, escapeLabel(labelValues[i]))
		}
		w.Write([]byte{'}'})
	}
	fmt.Fprintf(w, " %s\n", formatFloat(v))
}

// escapeLabel applies the exposition-format label-value escaping:
// backslash, double quote, and newline — exactly these three, per the
// text format spec.
func escapeLabel(s string) string {
	return labelEscaper.Replace(s)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

var helpEscaper = strings.NewReplacer("\\", `\\`, "\n", `\n`)

func escapeHelp(s string) string { return helpEscaper.Replace(s) }

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
