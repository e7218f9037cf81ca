package experiment

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"wlan80211/internal/analysis"
	"wlan80211/internal/phy"
	"wlan80211/internal/report"
	"wlan80211/internal/snapshot"
	"wlan80211/internal/stats"
)

// Spec is one expanded matrix cell: a concrete scenario variant plus
// the seed and scale it was expanded with.
type Spec struct {
	// Name is the registry name the cell was expanded from (the
	// aggregation key together with Scale).
	Name  string
	Seed  int64
	Scale float64
	// Scenario is the built variant.
	Scenario Scenario
}

// Matrix describes a seeds × scales × scenarios experiment grid.
type Matrix struct {
	// Scenarios are registry names (see Names).
	Scenarios []string
	// Seeds are per-run seeds; 0 keeps a scenario's default seed.
	Seeds []int64
	// Scales are workload scale factors (1.0 = full size).
	Scales []float64
}

// Expand resolves the grid into specs, ordered scenario-major, then
// scale, then seed — so runs of one aggregate group are contiguous.
func (m Matrix) Expand() ([]Spec, error) {
	seeds := m.Seeds
	if len(seeds) == 0 {
		seeds = []int64{0}
	}
	scales := m.Scales
	if len(scales) == 0 {
		scales = []float64{1.0}
	}
	var specs []Spec
	for _, name := range m.Scenarios {
		for _, scale := range scales {
			for _, seed := range seeds {
				sc, err := New(name, seed, scale)
				if err != nil {
					return nil, err
				}
				specs = append(specs, Spec{Name: name, Seed: seed, Scale: scale, Scenario: sc})
			}
		}
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("experiment: empty matrix (no scenarios)")
	}
	return specs, nil
}

// Summary is the per-run headline extraction aggregated across seeds.
type Summary struct {
	Frames         int64   `json:"frames"`
	ParseErrors    int64   `json:"parse_errors"`
	ChannelSeconds int     `json:"channel_seconds"`
	DataFrames     int64   `json:"data_frames"`
	BeaconFrames   int64   `json:"beacon_frames"`
	PeakUsers      int     `json:"peak_users"`
	ModalUtilPct   int     `json:"modal_util_pct"`
	ThroughputMbps float64 `json:"throughput_mbps"`
	GoodputMbps    float64 `json:"goodput_mbps"`
	UnrecordedPct  float64 `json:"unrecorded_pct"`
}

// Summarize extracts a run's Summary from its analysis Result.
func Summarize(r *analysis.Result) Summary {
	s := Summary{
		Frames:         r.TotalFrames,
		ParseErrors:    r.ParseErrors,
		ThroughputMbps: r.Throughput.MeanOver(0, 100),
		GoodputMbps:    r.Goodput.MeanOver(0, 100),
		UnrecordedPct:  r.Unrecorded.Percent(),
	}
	for _, secs := range r.PerChannel {
		s.ChannelSeconds += len(secs)
		for i := range secs {
			s.DataFrames += int64(secs[i].Data)
			s.BeaconFrames += int64(secs[i].Beacon)
		}
	}
	if r.UtilHist != nil && r.UtilHist.N() > 0 {
		s.ModalUtilPct, _ = r.UtilHist.Mode()
	}
	for _, u := range r.Users {
		if u.Users > s.PeakUsers {
			s.PeakUsers = u.Users
		}
	}
	return s
}

// summaryFields is the ordered field list aggregation reduces; names
// double as table headers and JSON keys.
var summaryFields = []struct {
	Name string
	Get  func(Summary) float64
}{
	{"frames", func(s Summary) float64 { return float64(s.Frames) }},
	{"data_frames", func(s Summary) float64 { return float64(s.DataFrames) }},
	{"channel_seconds", func(s Summary) float64 { return float64(s.ChannelSeconds) }},
	{"peak_users", func(s Summary) float64 { return float64(s.PeakUsers) }},
	{"modal_util_pct", func(s Summary) float64 { return float64(s.ModalUtilPct) }},
	{"throughput_mbps", func(s Summary) float64 { return s.ThroughputMbps }},
	{"goodput_mbps", func(s Summary) float64 { return s.GoodputMbps }},
	{"unrecorded_pct", func(s Summary) float64 { return s.UnrecordedPct }},
}

// SummaryFieldNames returns the aggregated field names in order.
func SummaryFieldNames() []string {
	out := make([]string, len(summaryFields))
	for i, f := range summaryFields {
		out[i] = f.Name
	}
	return out
}

// RunResult is one completed (or failed) matrix cell.
type RunResult struct {
	Spec    Spec
	Summary Summary
	// Result is the run's full analysis (nil when Err is set). Its
	// size is bounded by per-second state, not trace length, so
	// keeping every run's Result is cheap.
	Result *analysis.Result
	Err    error
}

// runCell executes one spec: build, stream through
// [Dedup →] Reorder → [TraceHasher →] a fresh sequential analyzer.
// Runs that declare multi-sniffer channels (MultiSnifferRun) stream
// through the Dedup window first, which collapses cross-sniffer
// duplicates exactly as the materialized path's capture.Merge does;
// everything else keeps the direct, per-frame-overhead-free path. The
// analyzer runs unsharded — cross-run parallelism already saturates
// the pool, and the sequential path is the one that never retains
// frame bytes, which is what lets the whole pipeline run without
// materializing.
//
// A nil env is the plain collect/reduce cell: no trace hash, no
// snapshots. A non-nil env is a campaign cell: a TraceHasher sits
// between reorder and analyzer (the returned hash), the run is sliced
// at env.interval to write snapshots, and — on resume — the stored
// snapshot is verified byte-for-byte against the deterministically
// replayed state at the same instant.
func runCell(spec Spec, metrics []string, env *checkpointEnv) (*analysis.Result, string, error) {
	run, err := spec.Scenario.Build()
	if err != nil {
		return nil, "", err
	}
	a, err := analysis.New(analysis.Options{Metrics: metrics})
	if err != nil {
		return nil, "", err
	}
	feed := Sink(a.Feed)
	var th *TraceHasher
	if env != nil {
		th = NewTraceHasher(a.Feed)
		feed = th.Add
	}
	ro := NewReorder(feed)
	sink := ro.Add
	var dd *Dedup
	if ms, ok := run.(MultiSnifferRun); ok && ms.MultiSniffer() {
		dd = NewDedup(ro.Add)
		sink = dd.Add
	}

	cp, can := run.(Checkpointable)
	switch {
	case env != nil && env.verify != nil && !can:
		return nil, "", fmt.Errorf("scenario is not checkpointable but snapshot exists")
	case env == nil || !can || (env.snapPath == "" && env.verify == nil):
		// Run to completion: a plain cell, a non-checkpointable custom
		// scenario, or checkpointing off (the journal still records
		// the completion).
		if err := run.Stream(sink); err != nil {
			return nil, "", err
		}
	default:
		cpIdx := 0
		verified := env.verify == nil
		err := cp.StreamSlices(sink, env.interval, func(t phy.Micros) error {
			if env.verify != nil && t == env.verifyT {
				if err := verifySnapshot(env.verify, cp, th, a, ro, dd); err != nil {
					return err
				}
				verified = true
			}
			if env.snapPath != "" {
				data := buildRunSnapshot(spec, env.runIdx, t, env.interval, cpIdx, cp, th, a, ro, dd)
				if err := snapshot.AtomicWriteFile(env.snapPath, data); err != nil {
					return err
				}
				env.inj.AtCheckpoint(env.runIdx, cpIdx)
				cpIdx++
			}
			return nil
		})
		if err != nil {
			return nil, "", err
		}
		if !verified {
			return nil, "", fmt.Errorf("replay never reached snapshot instant t=%dus (interval changed?)", env.verifyT)
		}
	}

	ro.Flush()
	if th == nil {
		return a.Result(), "", nil
	}
	return a.Result(), th.Sum(), nil
}

// pool is the one worker pool every run mode executes on: jobs are
// indices 0..n-1, run computes a job's outcome on a worker goroutine,
// and fold consumes outcomes strictly in job order on the calling
// goroutine — so folding needs no locks, and float accumulation order
// (every mean and stddev bit) is independent of worker count and
// completion order.
type pool[T any] struct {
	// workers bounds concurrent jobs; <=0 means GOMAXPROCS.
	workers int
	// window holds job i back until job i-workers has folded, capping
	// the finished-but-unfolded outcomes at the worker count (reduce
	// mode's retention bound). Without it a slow head-of-line job never
	// idles the other workers, and outcomes wait as long as they must.
	window bool
	run    func(k int) T
	fold   func(k int, v T)
	// halt, when set, stops dispatch once a finished outcome satisfies
	// it (a campaign stops on its first failed run).
	halt func(v T) bool
}

// execute runs jobs 0..n-1 and returns how many it dispatched — always
// a prefix, every one of them folded — and the most finished-but-
// unfolded outcomes it held at once. Before each dispatch it first
// waits for a free worker, then checks ctx and halt, and only then
// hands the job out: a cancel that fires inside a run therefore stops
// all further dispatch. In-flight jobs always complete and fold (a run
// is not interruptible mid-stream).
func (p pool[T]) execute(ctx context.Context, n int) (sent, peak int) {
	workers := p.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	type done struct {
		k int
		v T
	}
	jobs := make(chan int)
	results := make(chan done)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				results <- done{k, p.run(k)}
			}
		}()
	}

	pending := make(map[int]T)
	next, busy, halted := 0, 0, false
	receive := func() {
		d := <-results
		busy--
		halted = halted || (p.halt != nil && p.halt(d.v))
		pending[d.k] = d.v
		peak = max(peak, len(pending))
		for v, ok := pending[next]; ok; v, ok = pending[next] {
			delete(pending, next)
			p.fold(next, v)
			next++
		}
	}
	for sent < n {
		for busy == workers || (p.window && sent >= next+workers) {
			receive()
		}
		if halted || ctx.Err() != nil {
			break
		}
		jobs <- sent
		sent++
		busy++
	}
	close(jobs)
	for busy > 0 {
		receive()
	}
	wg.Wait()
	return sent, peak
}

// FieldStat is one aggregated summary field.
type FieldStat struct {
	Name   string  `json:"name"`
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
}

// Aggregated is the reduction of one scenario+scale group across its
// seeds: mean and stddev of every summary field.
type Aggregated struct {
	Scenario string      `json:"scenario"`
	Scale    float64     `json:"scale"`
	Runs     int         `json:"runs"`
	Errors   int         `json:"errors"`
	Fields   []FieldStat `json:"fields"`
}

// Field returns the named field's stats (zero FieldStat if absent).
func (a Aggregated) Field(name string) FieldStat {
	for _, f := range a.Fields {
		if f.Name == name {
			return f
		}
	}
	return FieldStat{}
}

// AggregateTable renders aggregates as one mean±stddev row per
// scenario+scale group — the table both CLIs print.
func AggregateTable(title string, aggs []Aggregated) *report.Table {
	headers := append([]string{"scenario", "scale", "runs"}, SummaryFieldNames()...)
	t := report.NewTable(title, headers...)
	for _, a := range aggs {
		cells := []any{a.Scenario, a.Scale, a.Runs}
		for _, f := range a.Fields {
			cells = append(cells, report.MeanStddev(f.Mean, f.Stddev))
		}
		t.AddRow(cells...)
	}
	return t
}

// reducer folds run outcomes into per-scenario+scale groups, in
// first-seen order, with one Welford accumulator per summary field.
// Failed runs count in Errors and contribute no samples. Aggregate and
// the reduce mode share it, so both fold bit-identically.
type reducer struct {
	index map[groupKey]int
	aggs  []Aggregated
	accs  [][]stats.Welford
}

type groupKey struct {
	name  string
	scale float64
}

func (r *reducer) add(spec Spec, sum Summary, err error) {
	k := groupKey{spec.Name, spec.Scale}
	gi, ok := r.index[k]
	if !ok {
		if r.index == nil {
			r.index = make(map[groupKey]int)
		}
		gi = len(r.aggs)
		r.index[k] = gi
		r.aggs = append(r.aggs, Aggregated{Scenario: k.name, Scale: k.scale})
		r.accs = append(r.accs, make([]stats.Welford, len(summaryFields)))
	}
	if err != nil {
		r.aggs[gi].Errors++
		return
	}
	r.aggs[gi].Runs++
	for fi, f := range summaryFields {
		r.accs[gi][fi].Add(f.Get(sum))
	}
}

// result finalizes every group's field statistics (never nil, so an
// empty reduction serializes as [] rather than null).
func (r *reducer) result() []Aggregated {
	out := make([]Aggregated, len(r.aggs))
	for gi, agg := range r.aggs {
		agg.Fields = make([]FieldStat, len(summaryFields))
		for fi, f := range summaryFields {
			agg.Fields[fi] = FieldStat{Name: f.Name, Mean: r.accs[gi][fi].Mean(), Stddev: r.accs[gi][fi].Stddev()}
		}
		out[gi] = agg
	}
	return out
}

// Aggregate groups run results by scenario+scale (in first-seen
// order, which for Matrix.Expand output is expansion order) and
// reduces each summary field with a Welford accumulator. Failed runs
// count in Errors and contribute no samples.
func Aggregate(results []RunResult) []Aggregated {
	var red reducer
	for _, r := range results {
		red.add(r.Spec, r.Summary, r.Err)
	}
	return red.result()
}
