package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func declared(t *testing.T) *declaration {
	t.Helper()
	decl, err := loadDeclaration()
	if err != nil {
		t.Fatal(err)
	}
	return decl
}

// TestSmoke runs every workload at about 1/200 of its size, untraced and
// traced; execute itself checks each result against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	decl := declared(t)
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			rec, err := execute(decl, options{workload: name, seed: 7, seconds: 0.3, trace: trace, small: true}, t.TempDir())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !rec.Result.Correct || rec.Result.Failed != 0 {
				t.Errorf("%s trace=%v: %d of %d calls failed", name, trace, rec.Result.Failed, rec.Result.Attempted)
			}
			if !trace && (rec.Result.Metrics["write_ops_per_s"].Value <= 0 || rec.Result.Metrics["read_ops_per_s"].Value <= 0) {
				t.Errorf("%s: a rate is zero: %v", name, rec.Result.Metrics)
			}
		}
	}
}

// TestCorruptFails proves the checks are live: one flipped byte, or one count
// off by one, must turn the run incorrect.
func TestCorruptFails(t *testing.T) {
	decl := declared(t)
	for _, name := range workloadNames {
		rec, err := execute(decl, options{workload: name, seed: 7, seconds: 0.2, corrupt: true, small: true}, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rec.Result.Correct || rec.Result.Failed == 0 {
			t.Errorf("%s: a corrupted comparison passed", name)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	decl := declared(t)
	good := func() *result {
		r := &result{Attempted: 1, Metrics: map[string]value{}}
		for _, m := range decl.EndToEnd {
			r.Metrics[m.Name] = value{1, m.Unit}
		}
		return r
	}
	if err := validate(decl, "small_rw", false, good()); err != nil {
		t.Fatalf("a complete result was refused: %v", err)
	}
	cases := map[string]func(r *result) string{
		"undeclared workload": func(r *result) string { return "nope" },
		"missing metric":      func(r *result) string { delete(r.Metrics, "setup_s"); return "small_rw" },
		"undeclared metric":   func(r *result) string { r.Metrics["extra"] = value{1, "s"}; return "small_rw" },
		"wrong unit":          func(r *result) string { r.Metrics["setup_s"] = value{1, "ms"}; return "small_rw" },
		"not finite":          func(r *result) string { r.Metrics["setup_s"] = value{math.Inf(1), "s"}; return "small_rw" },
		"nothing attempted":   func(r *result) string { r.Attempted = 0; return "small_rw" },
	}
	for what, spoil := range cases {
		r := good()
		if err := validate(decl, spoil(r), false, r); err == nil {
			t.Errorf("%s was accepted", what)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{9, 1, 4, 7, 3, 8, 2, 10, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{3, 1, 2, 5, 4})
	if q1 != 1.5 || med != 3 || q3 != 4.5 {
		t.Errorf("quartiles of 1..5 = %v %v %v, want 1.5 3 4.5", q1, med, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	decl := declared(t)
	set := func(scale float64, wobble float64) map[string]map[string][]float64 {
		out := map[string]map[string][]float64{}
		for _, w := range decl.Workloads {
			out[w.Name] = map[string][]float64{}
			for _, m := range decl.EndToEnd {
				for i := 0; i < 10; i++ {
					v := 100 * (1 + wobble*float64(i-5))
					if m.Name == "write_ops_per_s" {
						v *= scale
					}
					out[w.Name][m.Name] = append(out[w.Name][m.Name], v)
				}
			}
		}
		return out
	}
	var buf bytes.Buffer
	if code := compareSets(decl, set(1, 0.001), set(1, 0.001), &buf); code != 0 || strings.Contains(buf.String(), "regressed") {
		t.Errorf("identical sets: exit %d\n%s", code, buf.String())
	}
	buf.Reset()
	if code := compareSets(decl, set(1, 0.001), set(0.5, 0.001), &buf); code != 1 || !strings.Contains(buf.String(), "regressed") {
		t.Errorf("a halved rate did not regress: exit %d\n%s", code, buf.String())
	}
	buf.Reset()
	if code := compareSets(decl, set(1, 0.05), set(1, 0.05), &buf); code != 0 || !strings.Contains(buf.String(), "unresolved") {
		t.Errorf("a wide spread was not unresolved: exit %d\n%s", code, buf.String())
	}
}
