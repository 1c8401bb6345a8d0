// Command benchmark is the repository's one benchmark: it boots an in-process
// fabric for the named workload, drives it through the public client API,
// checks every byte and count that comes back, and prints one JSON result.
// README.md beside this file describes the workloads, the metrics and the
// traced run; BENCHMARK.json at the root of the repository declares them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// setupRepeats is how many times a run sets the workload up; setup_s is the
// median, so one slow boot does not read as a regression.
const setupRepeats = 5

// metricDecl and declaration mirror BENCHMARK.json.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`

	root string // directory BENCHMARK.json was found in
}

// loadDeclaration finds BENCHMARK.json in the working directory or one of its
// two parents, so the binary works from the root and from benchmark/.
func loadDeclaration() (*declaration, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for i := 0; i < 3; i++ {
		raw, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			d := &declaration{root: dir}
			if err := json.Unmarshal(raw, d); err != nil {
				return nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return d, nil
		}
		dir = filepath.Dir(dir)
	}
	return nil, fmt.Errorf("BENCHMARK.json not found at or above the working directory")
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the document printed as the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validate checks a result against the declaration before it is printed:
// the workload is declared, every declared metric of this mode is present
// once with its unit and a finite value, and nothing undeclared is.
func validate(decl *declaration, workload string, trace bool, res *result) error {
	known := false
	for _, w := range decl.Workloads {
		known = known || w.Name == workload
	}
	if !known {
		return fmt.Errorf("workload %q is not declared in BENCHMARK.json", workload)
	}
	want := decl.EndToEnd
	if trace {
		want = decl.PerLayer
	}
	seen := map[string]bool{}
	for _, m := range want {
		v, ok := res.Metrics[m.Name]
		switch {
		case !nameRE.MatchString(m.Name):
			return fmt.Errorf("metric name %q has characters outside letters, digits, _ . -", m.Name)
		case seen[m.Name]:
			return fmt.Errorf("metric %q is declared twice", m.Name)
		case !ok:
			return fmt.Errorf("declared metric %q is missing from the result", m.Name)
		case v.Unit != m.Unit:
			return fmt.Errorf("metric %q has unit %q, declared %q", m.Name, v.Unit, m.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			return fmt.Errorf("metric %q is not finite", m.Name)
		}
		seen[m.Name] = true
	}
	for name := range res.Metrics {
		if !seen[name] {
			return fmt.Errorf("metric %q is not declared in BENCHMARK.json", name)
		}
	}
	if res.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	return nil
}

// environment is recorded beside every result: a number without its cores,
// runtime and kernel cannot be compared with another.
func environment() map[string]any {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"kernel": strings.TrimSpace(string(kernel)), "commit": commit}
}

// record is one line of <out>/runs.jsonl: the result with everything needed
// to interpret and compare it.
type record struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Trace    bool           `json:"trace"`
	Env      map[string]any `json:"env"`
	Params   map[string]any `json:"params"`
	SetupS   []float64      `json:"setup_s"`
	Write    classStat      `json:"write"`
	Read     classStat      `json:"read"`
	Result   result         `json:"result"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	corrupt  bool
	small    bool // the smoke test's 1/200 scale
}

// execute runs one workload and returns its record; the caller prints it.
func execute(decl *declaration, o options, outDir string) (*record, error) {
	w, err := newWorkload(o.workload, o.small)
	if err != nil {
		return nil, err
	}
	chk := &checker{}
	repeats := setupRepeats
	if o.small {
		repeats = 1
	}
	var setups []float64
	for i := 0; i < repeats; i++ {
		if i > 0 {
			w.teardown()
			// Hand the torn-down fabric's memory back, so that every set-up
			// starts from the state the first one did.
			debug.FreeOSMemory()
		}
		t := time.Now()
		err := w.setup(o.seed, chk)
		setups = append(setups, time.Since(t).Seconds())
		if err != nil {
			w.teardown()
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	defer w.teardown()

	d := time.Duration(o.seconds * float64(time.Second))
	if warm := w.warmup(); warm > 0 {
		w.run(min(warm, d), nil)
	}
	chk.corrupt.Store(o.corrupt)

	rec := &record{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Env: environment(), Params: w.params(), SetupS: setups}
	var measured map[string]float64
	if !o.trace {
		res := w.run(d, nil)
		rec.Write, rec.Read = res.write, res.read
		measured = map[string]float64{
			"setup_s":         median(setups),
			"write_ops_per_s": res.write.Rate,
			"read_ops_per_s":  res.read.Rate,
			"write_p50_us":    res.write.P50us,
			"read_p50_us":     res.read.P50us,
			"share_fidelity":  res.shareFidelity,
		}
	} else {
		if measured, err = tracedRun(w, chk, o, d, outDir, rec); err != nil {
			return nil, err
		}
	}
	declared := decl.EndToEnd
	if o.trace {
		declared = decl.PerLayer
	}
	units := map[string]string{}
	for _, m := range declared {
		units[m.Name] = m.Unit
	}
	metrics := map[string]value{}
	for name, v := range measured {
		metrics[name] = value{v, units[name]} // validate refuses a name that is not declared
	}
	rec.Result = result{Attempted: chk.attempted.Load(), Failed: chk.failed.Load(), Metrics: metrics}
	rec.Result.Correct = rec.Result.Failed == 0
	if err := validate(decl, o.workload, o.trace, &rec.Result); err != nil {
		return nil, fmt.Errorf("result does not match BENCHMARK.json: %w", err)
	}
	return rec, nil
}

// report prints the human-readable view of a record to standard error.
func report(decl *declaration, rec *record) {
	fmt.Fprintf(os.Stderr, "workload %s seed %d seconds %g trace %v\nenv %v\nparams %v\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Env, rec.Params)
	class := func(name string, c classStat) {
		fmt.Fprintf(os.Stderr, "%-6s %10.1f calls/s (quartiles %.1f .. %.1f over %d chunks)  p50 %.1f us  p99 %.1f us  %d calls\n",
			name, c.Rate, c.RateQ1, c.RateQ3, c.Chunks, c.P50us, c.P99us, c.Calls)
	}
	class("write", rec.Write)
	class("read", rec.Read)
	fmt.Fprintf(os.Stderr, "setup_s samples %v\n", rec.SetupS)
	decls := decl.EndToEnd
	if rec.Trace {
		decls = decl.PerLayer
	}
	for _, m := range decls {
		fmt.Fprintf(os.Stderr, "  %-32s %14.4f %-6s (%s is better)\n", m.Name, rec.Result.Metrics[m.Name].Value, m.Unit, m.Better)
	}
	fmt.Fprintf(os.Stderr, "attempted %d failed %d failed_ops_ratio %g correct %v\n", rec.Result.Attempted, rec.Result.Failed,
		ratio(float64(rec.Result.Failed), float64(rec.Result.Attempted)), rec.Result.Correct)
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed of the data patterns, offsets and names")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	flag.BoolVar(&o.corrupt, "corrupt", false, "self-test: corrupt one comparison, which must make the run fail")
	out := flag.String("out", "", "directory for runs.jsonl and trace files (default benchmark/out)")
	compare := flag.Bool("compare", false, "compare two runs.jsonl files given as arguments instead of running")
	flag.Parse()
	o.trace = trace != 0

	decl, err := loadDeclaration()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if *compare {
		os.Exit(compareMain(decl, flag.Args(), os.Stdout))
	}
	if *out == "" {
		*out = filepath.Join(decl.root, "benchmark", "out")
	}
	rec, err := execute(decl, o, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	report(decl, rec)
	if err := appendRecord(*out, rec); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	line, _ := json.Marshal(rec.Result) // a struct of numbers, strings and bools cannot fail to marshal
	fmt.Println(string(line))
	if !rec.Result.Correct {
		os.Exit(1)
	}
}

func appendRecord(dir string, rec *record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "runs.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, _ := json.Marshal(rec)
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
