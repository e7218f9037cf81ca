// Command perfbench is the repository's end-to-end benchmark. It
// drives the public API of the experiment, workload, analysis,
// snapshot and monitor packages from outside, times those calls, and
// checks every output against a reference computed outside the timed
// region. See README.md for the workloads and the metrics.
//
//	python3 perfbench/run.py --workload paper-sessions --seed 0 --seconds 45 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it runs the workload once more with a span tracer
// around every layer call and prints the per-layer metrics. The last
// line of standard output is the result object; the lines before it
// are a human-readable report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload receives.
type config struct {
	name    string
	seed    int64
	seconds float64
	trace   bool
	// work is a scratch directory for campaign dirs, snapshots and
	// reports; it is emptied per run.
	work string
}

// checks counts the operations whose output was checked and the ones
// that failed.
type checks struct {
	attempted, failed int64
}

func (c *checks) ok(n int64) { c.attempted += n }

func (c *checks) fail(n int64, format string, args ...any) {
	c.attempted += n
	c.failed += n
	fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: "+format+"\n", args...)
}

// report collects metrics under the units BENCHMARK.json declares.
type report struct {
	units map[string]string
	vals  map[string]metric
}

func (r *report) set(name string, v float64) {
	u, ok := r.units[name]
	if !ok {
		panic(fmt.Sprintf("perfbench: metric %q is not declared in BENCHMARK.json", name))
	}
	r.vals[name] = metric{Value: v, Unit: u}
}

var workloads = map[string]func(cfg config, r *report, c *checks) error{
	"paper-sessions": runPaperSessions,
	"push-ingest":    runPushIngest,
}

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"paper-sessions", "push-ingest"}

// spec is the part of BENCHMARK.json the program checks its output
// against.
type spec struct {
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func main() {
	var (
		wl      = flag.String("workload", "all", "workload to run: paper-sessions, push-ingest or all")
		seed    = flag.Int64("seed", 0, "workload seed; 0 keeps each scenario's built-in (golden) seed")
		seconds = flag.Float64("seconds", 45, "how long the timed region of one run lasts (at least one repetition)")
		trace   = flag.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	// The program runs from the repository root: BENCHMARK.json is
	// there, and scratch files go under .bench_build.
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		fatalf("%v", err)
	}
	names := []string{*wl}
	if *wl == "all" {
		names = workloadOrder
	}
	for _, n := range names {
		if workloads[n] == nil {
			fatalf("unknown workload %q (have %v)", n, workloadOrder)
		}
	}

	h := hostInfo()
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n", h.nproc, h.gomaxprocs, h.goVersion, h.cpu)
	// With several workloads each one's result is a report line, and
	// the last line combines them: checks summed, every metric named
	// <workload>/<metric>.
	all := &result{Correct: true, Metrics: map[string]metric{}}
	for _, n := range names {
		cfg := config{
			name: n, seed: *seed, seconds: *seconds, trace: *trace == 1,
			work: filepath.Join(".bench_build", "perfbench", "work-"+n),
		}
		res, err := runOne(n, cfg, sp, h)
		if err != nil {
			fatalf("%s: %v", n, err)
		}
		if len(names) == 1 {
			all = res
			break
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("result %s %s\n", n, line)
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[n+"/"+k] = v
		}
	}
	if !all.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: output checks failed (see CHECK FAILED above)")
	}
	line, err := json.Marshal(all)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// runOne runs one workload and assembles its result object.
func runOne(name string, cfg config, sp *spec, h host) (*result, error) {
	if err := os.RemoveAll(cfg.work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.work)

	want := sp.EndToEnd
	if cfg.trace {
		want = sp.PerLayer
	}
	r := &report{units: map[string]string{}, vals: map[string]metric{}}
	for _, m := range want {
		r.units[m.Name] = m.Unit
	}
	if cfg.trace {
		// Layers a workload does not run report zero; the host rows are
		// the same everywhere.
		for _, m := range want {
			r.set(m.Name, 0)
		}
		r.set("host.nproc", float64(h.nproc))
		r.set("host.gomaxprocs", float64(h.gomaxprocs))
	}
	var c checks
	mode := "end-to-end"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Printf("workload %s: seed=%d seconds=%g mode=%s\n", name, cfg.seed, cfg.seconds, mode)
	if err := workloads[name](cfg, r, &c); err != nil {
		return nil, err
	}
	if c.attempted == 0 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	if cfg.trace {
		r.set("e2e.failed_share", float64(c.failed)/float64(c.attempted))
	}
	res := &result{
		Correct:   c.failed == 0,
		Attempted: c.attempted,
		Failed:    c.failed,
		Metrics:   r.vals,
	}
	var missing []string
	for _, m := range want {
		v, ok := r.vals[m.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			missing = append(missing, m.Name)
		}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	for _, k := range sortedKeys(r.vals) {
		fmt.Printf("metric %-30s %16.6f %s\n", k, r.vals[k].Value, r.vals[k].Unit)
	}
	fmt.Printf("checks: attempted=%d failed=%d failed_share=%g\n", c.attempted, c.failed, float64(c.failed)/float64(c.attempted))
	return res, nil
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark spec: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(sp.EndToEnd) == 0 || len(sp.PerLayer) == 0 {
		return nil, fmt.Errorf("%s declares no metrics", path)
	}
	return &sp, nil
}

type host struct {
	nproc, gomaxprocs int
	goVersion, cpu    string
}

func hostInfo() host {
	return host{
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
		cpu:        cpuModel(),
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
