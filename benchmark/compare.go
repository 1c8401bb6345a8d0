package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// loadRuns reads a runs.jsonl file and groups the untraced runs' values by
// workload and end-to-end metric.
func loadRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		if rec.Trace {
			continue
		}
		if !rec.Result.Correct {
			return nil, fmt.Errorf("%s line %d: run of %s with seed %d was not correct (%d of %d failed)",
				path, line, rec.Workload, rec.Seed, rec.Result.Failed, rec.Result.Attempted)
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, v := range rec.Result.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], v.Value)
		}
	}
	return out, sc.Err()
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	return ratio(q3-q1, med)
}

// compareMain prints, for every workload and end-to-end metric, both sets'
// medians, how much worse the second is than the first, the bound, and a
// verdict: regressed when the second median is worse by more than the bound,
// unresolved when either set's own spread is wider than the bound, else ok.
// The exit code is 1 when anything regressed.
func compareMain(decl *declaration, args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -compare takes two runs.jsonl files")
		return 2
	}
	var sets [2]map[string]map[string][]float64
	for i, path := range args {
		var err error
		if sets[i], err = loadRuns(path); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	return compareSets(decl, sets[0], sets[1], w)
}

func compareSets(decl *declaration, a, b map[string]map[string][]float64, w io.Writer) int {
	code := 0
	fmt.Fprintf(w, "%-12s %-16s %12s %12s %8s %8s %8s %8s  %s\n", "workload", "metric", "first", "second", "worse", "bound", "spread1", "spread2", "verdict")
	for _, wl := range decl.Workloads {
		for _, m := range decl.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-12s %-16s missing from one of the files\n", wl.Name, m.Name)
				code = 1
				continue
			}
			ma, mb := median(va), median(vb)
			worse := ratio(mb-ma, ma) // positive means the second set is worse
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "regressed"
				code = 1
			case m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound):
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-12s %-16s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%% %7.1f%%  %s\n",
				wl.Name, m.Name, ma, mb, 100*worse, 100*m.Bound, 100*sa, 100*sb, verdict)
		}
	}
	return code
}
