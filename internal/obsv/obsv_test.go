package obsv

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// parseExposition is a strict-enough parser of the text exposition
// format for conformance checking: it returns families (name → type)
// and samples (full series line → value), failing the test on any
// structural violation — duplicate family declarations, samples
// without a preceding TYPE, unparseable values, or label syntax that
// doesn't round-trip the escaping rules.
func parseExposition(t *testing.T, out string) (map[string]string, map[string]float64) {
	t.Helper()
	fams := map[string]string{}
	samples := map[string]float64{}
	var cur string
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)
			if len(parts) != 2 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			name, typ := parts[0], parts[1]
			if _, dup := fams[name]; dup {
				t.Fatalf("duplicate family declaration: %s", name)
			}
			switch typ {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("unknown family type %q in %q", typ, line)
			}
			fams[name] = typ
			cur = name
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unknown comment line: %q", line)
		}
		sp := strings.LastIndex(line, " ")
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		series, valStr := line[:sp], line[sp+1:]
		var v float64
		switch valStr {
		case "+Inf":
			v = math.Inf(1)
		case "-Inf":
			v = math.Inf(-1)
		case "NaN":
			v = math.NaN()
		default:
			f, err := strconv.ParseFloat(valStr, 64)
			if err != nil {
				t.Fatalf("unparseable value in %q: %v", line, err)
			}
			v = f
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("unterminated label set: %q", line)
			}
			checkLabelSyntax(t, series[i+1:len(series)-1])
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
			"_bucket"), "_sum"), "_count")
		if _, ok := fams[name]; !ok {
			if _, ok := fams[base]; !ok || fams[base] != "histogram" {
				t.Fatalf("sample %q has no family declaration", line)
			}
		}
		if cur != name && cur != base {
			t.Fatalf("sample %q outside its family block (current %q)", line, cur)
		}
		if _, dup := samples[series]; dup {
			t.Fatalf("duplicate series: %q", series)
		}
		samples[series] = v
	}
	return fams, samples
}

// checkLabelSyntax validates one rendered label set body: comma-joined
// name="value" pairs whose values contain no raw quote, backslash or
// newline.
func checkLabelSyntax(t *testing.T, body string) {
	t.Helper()
	rest := body
	for rest != "" {
		eq := strings.Index(rest, "=\"")
		if eq <= 0 {
			t.Fatalf("malformed label in %q", body)
		}
		rest = rest[eq+2:]
		// Scan to the closing unescaped quote.
		i := 0
		for ; i < len(rest); i++ {
			if rest[i] == '\\' {
				i++
				if i >= len(rest) {
					t.Fatalf("dangling escape in %q", body)
				}
				if c := rest[i]; c != '\\' && c != '"' && c != 'n' {
					t.Fatalf("invalid escape \\%c in %q", c, body)
				}
				continue
			}
			if rest[i] == '"' {
				break
			}
			if rest[i] == '\n' {
				t.Fatalf("raw newline in label value of %q", body)
			}
		}
		if i >= len(rest) {
			t.Fatalf("unterminated label value in %q", body)
		}
		rest = rest[i+1:]
		if rest != "" {
			if rest[0] != ',' {
				t.Fatalf("garbage after label value in %q", body)
			}
			rest = rest[1:]
		}
	}
}

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestExpositionConformance registers one family of every kind —
// including label values exercising the escaping rules — and validates
// the rendered output structurally.
func TestExpositionConformance(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("t_ops_total", "ops", func() float64 { return 42 })
	r.CounterVecFunc("t_frames_total", "frames by type", []string{"type", "dir"},
		func(emit Emit) {
			emit([]string{"read", "in"}, 7)
			emit([]string{`we"ird\type`, "out"}, 1)
			emit([]string{"line\nbreak", "in"}, 1)
			emit([]string{"one label short"}, 9) // dropped, not rendered malformed
		})
	r.GaugeFunc("t_dirty_bytes", "dirty bytes", func() float64 { return 1024 })
	r.GaugeVecFunc("t_residual", "per-entity residual", []string{"kind", "id"},
		func(emit Emit) {
			emit([]string{"user", "alice"}, -0.013)
			emit([]string{"user", "bob"}, 0.013)
		})
	h := r.Histogram("t_latency_seconds", "request latency", LatencyBuckets)
	for _, v := range []float64{0.0002, 0.004, 0.004, 0.2, 99} {
		h.Observe(v)
	}
	r.HistogramVec("t_op_seconds", "per-op latency", []float64{1}, "op").With(`a"b`).Observe(0.5)

	out := render(t, r)
	fams, samples := parseExposition(t, out)

	if len(fams) != 6 {
		t.Fatalf("got %d families, want 6:\n%s", len(fams), out)
	}
	if fams["t_latency_seconds"] != "histogram" {
		t.Fatalf("t_latency_seconds type = %q", fams["t_latency_seconds"])
	}
	if v := samples[`t_ops_total`]; v != 42 {
		t.Fatalf("t_ops_total = %v", v)
	}
	if v := samples[`t_frames_total{type="read",dir="in"}`]; v != 7 {
		t.Fatalf("labeled counter = %v; samples: %v", v, samples)
	}
	if v := samples[`t_frames_total{type="we\"ird\\type",dir="out"}`]; v != 1 {
		t.Fatalf("escaped label sample missing; have %v", samples)
	}
	if v := samples[`t_frames_total{type="line\nbreak",dir="in"}`]; v != 1 {
		t.Fatalf("newline-escaped label sample missing")
	}
	if v := samples[`t_residual{kind="user",id="alice"}`]; v != -0.013 {
		t.Fatalf("collector sample = %v", v)
	}
	if v := samples[`t_op_seconds_bucket{op="a\"b",le="1"}`]; v != 1 {
		t.Fatalf("escaped histogram label sample missing; have %v", samples)
	}
	if v := samples[`t_dirty_bytes`]; v != 1024 {
		t.Fatalf("t_dirty_bytes = %v", v)
	}

	// Histogram: buckets cumulative and monotone, +Inf present and equal
	// to _count, _sum exact.
	var last float64
	seenInf := false
	for i, ub := range LatencyBuckets {
		key := fmt.Sprintf(`t_latency_seconds_bucket{le="%s"}`, formatFloat(ub))
		v, ok := samples[key]
		if !ok {
			t.Fatalf("missing bucket %s", key)
		}
		if v < last {
			t.Fatalf("bucket %d not monotone: %v < %v", i, v, last)
		}
		last = v
	}
	if v, ok := samples[`t_latency_seconds_bucket{le="+Inf"}`]; !ok {
		t.Fatal("missing +Inf bucket")
	} else {
		seenInf = true
		if v != samples[`t_latency_seconds_count`] {
			t.Fatalf("+Inf bucket %v != count %v", v, samples[`t_latency_seconds_count`])
		}
		if v < last {
			t.Fatalf("+Inf bucket %v below last finite bucket %v", v, last)
		}
	}
	if !seenInf {
		t.Fatal("no +Inf bucket rendered")
	}
	if v := samples[`t_latency_seconds_count`]; v != 5 {
		t.Fatalf("count = %v", v)
	}
	if v := samples[`t_latency_seconds_sum`]; math.Abs(v-99.2082) > 1e-9 {
		t.Fatalf("sum = %v", v)
	}
}

// TestDuplicateFamilyPanics pins the no-duplicate-families contract at
// registration time.
func TestDuplicateFamilyPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("dup_total", "x", func() float64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.GaugeFunc("dup_total", "y", func() float64 { return 0 })
}

// TestRenderDeterministic pins that two scrapes of a quiet registry are
// byte-identical, families sorted by name and children in registration
// order.
func TestRenderDeterministic(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("z_seconds", "z", []float64{1}, "a")
	hv.With("2").Observe(1)
	hv.With("1").Observe(1)
	r.GaugeFunc("a_gauge", "a", func() float64 { return 1 })
	out := render(t, r)
	if b := render(t, r); out != b {
		t.Fatalf("non-deterministic render:\n%s\n---\n%s", out, b)
	}
	a, two, one := strings.Index(out, "a_gauge 1"), strings.Index(out, `z_seconds_count{a="2"}`), strings.Index(out, `z_seconds_count{a="1"}`)
	if a < 0 || two < a || one < two {
		t.Fatalf("want a_gauge, then child 2, then child 1:\n%s", out)
	}
}

// TestQuietHistogramChildrenLeftOut pins that a labeled histogram renders
// only the children that have observed something — the server pre-creates
// one per op and a workload uses a few — with buckets still cumulative,
// and that a quiet registry still scrapes byte-identically.
func TestQuietHistogramChildrenLeftOut(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("op_seconds", "per-op", []float64{0.001, 0.1}, "op")
	for i := 0; i < 9; i++ {
		hv.With(fmt.Sprintf("op%d", i))
	}
	hv.With("op4").Observe(0.05)
	hv.With("op4").Observe(0.0005)
	out := render(t, r)
	if b := render(t, r); b != out {
		t.Fatalf("non-deterministic render:\n%s\n---\n%s", out, b)
	}
	_, samples := parseExposition(t, out)
	want := map[string]float64{
		`op_seconds_bucket{op="op4",le="0.001"}`: 1,
		`op_seconds_bucket{op="op4",le="0.1"}`:   2,
		`op_seconds_bucket{op="op4",le="+Inf"}`:  2,
		`op_seconds_sum{op="op4"}`:               0.0505,
		`op_seconds_count{op="op4"}`:             2,
	}
	if len(samples) != len(want) {
		t.Fatalf("%d series, want the one observed child's %d:\n%s", len(samples), len(want), out)
	}
	for k, v := range want {
		if got, ok := samples[k]; !ok || math.Abs(got-v) > 1e-12 {
			t.Errorf("%s = %v (present %v), want %v", k, got, ok, v)
		}
	}
}

// TestHistogramBucketEdges pins the le boundary convention: a sample
// exactly on an upper bound lands in that bucket (le is <=).
func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("edge_seconds", "x", []float64{1, 2})
	h.Observe(1) // le="1"
	h.Observe(2) // le="2"
	h.Observe(3) // +Inf only
	_, samples := parseExposition(t, render(t, r))
	if v := samples[`edge_seconds_bucket{le="1"}`]; v != 1 {
		t.Fatalf("le=1 bucket = %v", v)
	}
	if v := samples[`edge_seconds_bucket{le="2"}`]; v != 2 {
		t.Fatalf("le=2 bucket = %v", v)
	}
	if v := samples[`edge_seconds_bucket{le="+Inf"}`]; v != 3 {
		t.Fatalf("+Inf bucket = %v", v)
	}
}

// TestConcurrentWritersDuringScrape hammers histograms, and the atomics
// that scrape-time families read, from parallel writers while scraping
// concurrently — the -race gate for the lock-free hot path, plus a
// conformance parse of every mid-flight scrape.
func TestConcurrentWritersDuringScrape(t *testing.T) {
	r := NewRegistry()
	var ops, depth atomic.Int64
	var frames [3]atomic.Int64
	r.CounterFunc("hammer_ops_total", "ops", func() float64 { return float64(ops.Load()) })
	r.CounterVecFunc("hammer_frames_total", "frames", []string{"type"}, func(emit Emit) {
		for i := range frames {
			emit([]string{fmt.Sprintf("t%d", i)}, float64(frames[i].Load()))
		}
	})
	r.GaugeFunc("hammer_depth", "depth", func() float64 { return float64(depth.Load()) })
	h := r.Histogram("hammer_latency_seconds", "lat", LatencyBuckets)
	hv := r.HistogramVec("hammer_op_seconds", "per-op", []float64{0.001, 0.1}, "op")

	const writers = 8
	const perWriter = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fc := &frames[w%3]
			fh := hv.With(fmt.Sprintf("t%d", w%3))
			for i := 0; i < perWriter; i++ {
				ops.Add(1)
				fc.Add(2)
				depth.Store(int64(i))
				h.Observe(float64(i%100) / 1000)
				fh.Observe(float64(i%7) / 100)
			}
		}(w)
	}
	// Concurrent scrapers through the real HTTP handler.
	srv := httptest.NewServer(Mux(r, nil))
	defer srv.Close()
	var scrapeWG sync.WaitGroup
	for s := 0; s < 2; s++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				parseExposition(t, render(t, r))
			}
		}()
	}
	wg.Wait()
	close(stop)
	scrapeWG.Wait()

	_, samples := parseExposition(t, render(t, r))
	if v := samples["hammer_ops_total"]; v != writers*perWriter {
		t.Fatalf("lost counter increments: %v != %v", v, writers*perWriter)
	}
	if v := samples["hammer_latency_seconds_count"]; v != writers*perWriter {
		t.Fatalf("lost observations: %v != %v", v, writers*perWriter)
	}
	var framesTotal, perOp float64
	for i := 0; i < 3; i++ {
		framesTotal += samples[fmt.Sprintf(`hammer_frames_total{type="t%d"}`, i)]
		perOp += samples[fmt.Sprintf(`hammer_op_seconds_count{op="t%d"}`, i)]
	}
	if framesTotal != 2*writers*perWriter || perOp != writers*perWriter {
		t.Fatalf("lost labeled increments: frames %v, per-op observations %v", framesTotal, perOp)
	}
}

// TestParseLevel covers the -log-level flag mapping.
func TestParseLevel(t *testing.T) {
	for s, want := range map[string]string{
		"debug": "DEBUG", "info": "INFO", "warn": "WARN", "error": "ERROR",
	} {
		lv, err := ParseLevel(s)
		if err != nil || lv.String() != want {
			t.Fatalf("ParseLevel(%q) = %v, %v", s, lv, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("ParseLevel accepted garbage")
	}
}
