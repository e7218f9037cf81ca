package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"wlan80211/internal/analysis"
	"wlan80211/internal/capture"
	"wlan80211/internal/experiment"
	"wlan80211/internal/phy"
	"wlan80211/internal/sim"
	"wlan80211/internal/snapshot"
	"wlan80211/internal/sniffer"
	"wlan80211/internal/workload"
)

// simWorkload is one experiment matrix run through Runner.Execute as a
// journaled campaign from spec to written report, the way wlansweep
// runs it.
type simWorkload struct {
	scenarios []string
	// checkpoint is the campaign's mid-run snapshot interval.
	checkpoint phy.Micros
}

// paper-sessions: the paper's Table 1 pair as a journaled campaign
// with 10 sim-s snapshots. Dense σ=6 dB links, heavy event traffic,
// ~650k frames through Reorder, TraceHasher and analysis.
var paperSessions = simWorkload{
	scenarios:  []string{"day", "plenary"},
	checkpoint: 10 * phy.MicrosPerSecond,
}

func runPaperSessions(cfg config, r *report, c *checks) error {
	return paperSessions.run(cfg, r, c)
}

func (w simWorkload) matrix(seed int64) experiment.Matrix {
	return experiment.Matrix{Scenarios: w.scenarios, Seeds: []int64{seed}, Scales: []float64{1.0}}
}

// refRun is one run's reference output from the materialized path.
type refRun struct {
	name    string
	summary experiment.Summary
	hash    string
}

// built is a scenario built through the workload package, which is
// what the traced run needs: the network for its counters and tap,
// the sniffers for snapshots.
type built struct {
	net      *sim.Network
	sniffers []*sniffer.Sniffer
	slices   func(emit func(capture.Record), interval phy.Micros, atSlice func(phy.Micros) error) error
	run      func() []capture.Record
}

// buildScenario builds a scenario exactly as the experiment registry's
// factory for that name does.
func buildScenario(name string, seed int64, scale float64) (*built, error) {
	switch name {
	case "day", "plenary":
		s := workload.DaySession()
		if name == "plenary" {
			s = workload.PlenarySession()
		}
		if seed != 0 {
			s.Seed = seed
		}
		b, err := s.Scale(scale).Build()
		if err != nil {
			return nil, err
		}
		return &built{net: b.Net, sniffers: b.Sniffers, slices: b.RunStreamSlices, run: b.Run}, nil
	case "grid9":
		g := workload.DenseGrid()
		if seed != 0 {
			g.Seed = seed
		}
		b, err := g.Scale(scale).Build()
		if err != nil {
			return nil, err
		}
		return &built{net: b.Net, sniffers: b.Sniffers, slices: b.RunStreamSlices, run: b.Run}, nil
	}
	return nil, fmt.Errorf("no workload builder for scenario %q", name)
}

// reference computes every run's Summary and trace hash through the
// materialized path: Built.Run, which merges and deduplicates the
// sniffer traces in memory, then analysis.Analyze.
// A plenary trace holds ~330 MB, so the collector runs tighter than
// usual here and the memory goes back to the OS before timing starts.
func (w simWorkload) reference(seed int64) ([]refRun, error) {
	old := debug.SetGCPercent(25)
	defer func() {
		debug.SetGCPercent(old)
		debug.FreeOSMemory()
	}()
	out := make([]refRun, 0, len(w.scenarios))
	for _, name := range w.scenarios {
		b, err := buildScenario(name, seed, 1.0)
		if err != nil {
			return nil, err
		}
		recs := b.run()
		b = nil
		th := experiment.NewTraceHasher(func(capture.Record) {})
		for _, rec := range recs {
			th.Add(rec)
		}
		out = append(out, refRun{name: name, summary: experiment.Summarize(analysis.Analyze(recs)), hash: th.Sum()})
	}
	return out, nil
}

// execOut is one untraced Runner.Execute from spec to report on disk.
type execOut struct {
	wall, cpu   time.Duration
	runs        []experiment.RunRecord
	reportBytes int64
}

// execute runs the matrix and writes its report under dir. The wall
// and CPU times run from the Execute call until the report is on disk.
func (w simWorkload) execute(m experiment.Matrix, dir string) (execOut, error) {
	opts := experiment.RunSpecOpts{
		Matrix: m, Mode: experiment.ModeCampaign, Workers: 1,
		CampaignDir: filepath.Join(dir, "campaign"), CheckpointMicros: int64(w.checkpoint),
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return execOut{}, err
	}
	path := filepath.Join(dir, "report.json")

	t0, c0 := time.Now(), cpuTime()
	ex, err := (&experiment.Runner{}).Execute(context.Background(), opts)
	if err != nil {
		return execOut{}, err
	}
	man, err := experiment.ReadManifest(opts.CampaignDir)
	if err != nil {
		return execOut{}, err
	}
	rep := ex.Campaign.Report(man)
	if err := experiment.WriteJSONAtomic(path, rep); err != nil {
		return execOut{}, err
	}
	wall, cpu := time.Since(t0), cpuTime()-c0

	st, err := os.Stat(path)
	if err != nil {
		return execOut{}, err
	}
	return execOut{wall: wall, cpu: cpu, runs: rep.Runs, reportBytes: st.Size()}, nil
}

// checkRuns compares an execution's runs (names, summaries and trace
// hashes) with the reference.
func checkRuns(c *checks, what string, runs []experiment.RunRecord, refs []refRun) {
	if len(runs) != len(refs) {
		c.fail(int64(len(refs)), "%s: %d runs reported, want %d", what, len(runs), len(refs))
		return
	}
	for i, run := range runs {
		ref := refs[i]
		switch {
		case run.Name != ref.name:
			c.fail(1, "%s: run %d is %s, want %s", what, i, run.Name, ref.name)
		case run.Summary != ref.summary:
			c.fail(1, "%s: %s summary %+v differs from the materialized reference %+v", what, ref.name, run.Summary, ref.summary)
		case run.TraceHash != ref.hash:
			c.fail(1, "%s: %s trace hash %s differs from the materialized reference %s", what, ref.name, run.TraceHash, ref.hash)
		default:
			c.ok(1)
		}
	}
}

func frames(runs []experiment.RunRecord) int64 {
	var n int64
	for _, run := range runs {
		n += run.Summary.Frames
	}
	return n
}

func (w simWorkload) run(cfg config, r *report, c *checks) error {
	m := w.matrix(cfg.seed)
	if cfg.trace {
		return w.runTraced(cfg, m, r, c)
	}

	refs, err := w.reference(cfg.seed)
	if err != nil {
		return err
	}

	// Set-up: Matrix.Expand plus each spec's Scenario.Build, as direct
	// calls.
	setups, err := timeSetup(func() error {
		specs, err := m.Expand()
		if err != nil {
			return err
		}
		for _, s := range specs {
			if _, err := s.Scenario.Build(); err != nil {
				return err
			}
		}
		return nil
	}, nil)
	if err != nil {
		return err
	}

	var heaps, walls, cpus []float64
	reps := newRepeater(cfg.seconds)
	for rep := 0; reps.next(); rep++ {
		dir := filepath.Join(cfg.work, fmt.Sprintf("rep-%d", rep))
		hp := startHeapPeak()
		out, err := w.execute(m, dir)
		heap := hp.stopMB()
		if err != nil {
			c.fail(int64(len(w.scenarios)), "rep %d: %v", rep, err)
			continue
		}
		checkRuns(c, fmt.Sprintf("rep %d", rep), out.runs, refs)
		if out.reportBytes == 0 {
			c.fail(1, "rep %d: empty report", rep)
		}
		heaps = append(heaps, heap)
		walls = append(walls, out.wall.Seconds())
		cpus = append(cpus, out.cpu.Seconds())
		fmt.Printf("rep %d: cpu_s=%.4f wall_s=%.4f frames=%d (%.0f frames/s) peak_heap_mb=%.2f report_bytes=%d\n",
			rep, out.cpu.Seconds(), out.wall.Seconds(), frames(out.runs), float64(frames(out.runs))/out.wall.Seconds(), heap, out.reportBytes)
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	if len(walls) == 0 {
		return fmt.Errorf("every repetition failed")
	}
	fmt.Printf("medians over %d reps: cpu_s=%.4f wall_s=%.4f; setup reps=%d\n", len(walls), median(cpus), median(walls), len(setups))
	r.set("setup_s", median(setups))
	r.set("cpu_s", median(cpus))
	r.set("peak_heap_mb", median(heaps))
	return nil
}

// runTraced measures the per-layer numbers. The first Execute runs
// with the process cold (phy.SharedFERTable empty); the reference and
// a warm Execute follow; then the traced pipeline runs once.
func (w simWorkload) runTraced(cfg config, m experiment.Matrix, r *report, c *checks) error {
	cold, err := w.execute(m, filepath.Join(cfg.work, "cold"))
	if err != nil {
		return err
	}
	refs, err := w.reference(cfg.seed)
	if err != nil {
		return err
	}
	checkRuns(c, "cold run", cold.runs, refs)
	warm, err := w.execute(m, filepath.Join(cfg.work, "warm"))
	if err != nil {
		return err
	}
	checkRuns(c, "warm run", warm.runs, refs)

	tr := newTracer("traced")
	tc, runs, err := w.traced(cfg, m, tr)
	if err != nil {
		return err
	}
	tr.finish()
	// The pipeline runs once more, its spans discarded, so that the
	// exact counters are compared within this invocation.
	again, _, err := w.traced(cfg, m, newTracer("repeat"))
	if err != nil {
		return err
	}
	checkCounters(c, tc.exact(), again.exact())
	tr.write(os.Stdout)
	// The untraced runs were checked against the same reference, so a
	// traced run that matches it measured the same pipeline.
	checkRuns(c, "traced run", runs, refs)

	traced := tr.root.total.Seconds()
	fmt.Printf("walls: cold=%.4f warm=%.4f traced=%.4f\n", cold.wall.Seconds(), warm.wall.Seconds(), traced)
	r.set("e2e.wall_s", warm.wall.Seconds())
	r.set("e2e.cpu_s", warm.cpu.Seconds())
	r.set("e2e.frames_per_s", float64(frames(warm.runs))/warm.wall.Seconds())
	r.set("trace.wall_s", traced)
	r.set("trace.overhead_s", traced-warm.wall.Seconds())
	r.set("trace.uncovered_s", traced-tr.coveredSeconds())
	r.set("warm.first_run_extra_s", cold.wall.Seconds()-warm.wall.Seconds())

	setCountedLayers(r, tr, tc)
	r.set("snapshot.count", float64(tc.snapshots))
	r.set("snapshot.capture_s", tr.selfSeconds("snapshot.capture"))
	r.set("snapshot.encode_s", tr.selfSeconds("snapshot.encode"))
	r.set("snapshot.write_s", tr.selfSeconds("snapshot.write"))
	r.set("snapshot.bytes", float64(tc.snapshotBytes))
	r.set("report.write_s", tr.selfSeconds("report.write"))
	r.set("report.bytes", float64(tc.reportBytes))
	for _, run := range runs {
		r.set("accuracy."+run.Name+".modal_util_pct", float64(run.Summary.ModalUtilPct))
		r.set("accuracy."+run.Name+".unrecorded_pct", run.Summary.UnrecordedPct)
		r.set("accuracy."+run.Name+".goodput_mbps", run.Summary.GoodputMbps)
	}
	return nil
}

// setCountedLayers reports the layers every traced run has: the
// workload build, the simulator and its sniffers, and the Dedup,
// Reorder, TraceHasher and analysis stages, each ratio beside its base.
// The tree's per-frame stage spans and tc's counters come from the same
// run.
func setCountedLayers(r *report, tr *tracer, tc tracedCounts) {
	recs := float64(tc.records)
	r.set("workload.build_s", tr.selfSeconds("workload.build"))
	r.set("sim.self_s", tr.selfSeconds("sim"))
	r.set("sim.ns_per_frame", tr.selfSeconds("sim")*1e9/recs)
	r.set("sim.events_per_frame", float64(tc.events)/recs)
	r.set("sim.heap_ops_per_frame", float64(tc.heapOps)/recs)
	r.set("sim.deferrals_per_frame", float64(tc.deferrals)/recs)
	r.set("sim.rows", float64(tc.rows))
	r.set("sim.links_per_row", float64(tc.links)/float64(tc.rows))
	r.set("sim.max_row_links", float64(tc.maxRow))
	r.set("sim.tx_observed", float64(tc.txObserved))
	r.set("sniffer.records", recs)
	r.set("sniffer.capture_ratio", recs/float64(tc.txObserved))
	if tc.dedupIn > 0 {
		r.set("dedup.self_s", tr.selfSeconds("dedup"))
		r.set("dedup.in", float64(tc.dedupIn))
		r.set("dedup.out_ratio", float64(tc.dedupIn-tc.dedupDropped)/float64(tc.dedupIn))
		r.set("dedup.max_pending", float64(tc.dedupMaxPending))
	}
	reorderIn := float64(tc.records - tc.dedupDropped)
	r.set("reorder.self_s", tr.selfSeconds("reorder"))
	r.set("reorder.in", reorderIn)
	r.set("reorder.ns_per_frame", tr.selfSeconds("reorder")*1e9/reorderIn)
	r.set("reorder.max_pending", float64(tc.reorderMaxPending))
	r.set("tracehash.self_s", tr.selfSeconds("tracehash"))
	r.set("tracehash.frames", float64(tr.calls("tracehash")))
	r.set("analysis.frames", float64(tc.analysisFrames))
	r.set("analysis.feed_s", tr.selfSeconds("analysis.feed"))
	r.set("analysis.ns_per_frame", tr.selfSeconds("analysis.feed")*1e9/float64(tc.analysisFrames))
	r.set("analysis.result_s", tr.selfSeconds("analysis.result"))
}

// tracedCounts are the traced run's work counters, summed over runs.
type tracedCounts struct {
	events, heapOps, deferrals uint64
	rows, links, maxRow        int
	txObserved                 int64
	records                    int64
	dedupIn, dedupDropped      int64
	dedupMaxPending            int
	reorderMaxPending          int
	analysisFrames             int64
	snapshots                  int
	snapshotBytes              int64
	reportBytes                int64
}

// exact returns the counters that must repeat exactly between runs of
// the same code and seed.
func (tc tracedCounts) exact() map[string]int64 {
	return map[string]int64{
		"sim.events": int64(tc.events), "sim.heap_ops": int64(tc.heapOps), "sim.deferrals": int64(tc.deferrals),
		"sim.rows": int64(tc.rows), "sim.links": int64(tc.links), "sim.max_row_links": int64(tc.maxRow),
		"sim.tx_observed": tc.txObserved, "sniffer.records": tc.records,
		"dedup.in": tc.dedupIn, "dedup.dropped": tc.dedupDropped, "dedup.max_pending": int64(tc.dedupMaxPending),
		"reorder.max_pending": int64(tc.reorderMaxPending),
		"analysis.frames":     tc.analysisFrames, "snapshot.bytes": tc.snapshotBytes,
	}
}

// txCounter is the tap behind sim.tx_observed.
type txCounter struct{ n int64 }

func (t *txCounter) ObserveTransmission(sim.TxObservation) { t.n++ }

// traced wires the same public calls Engine.runOne and the campaign
// loop make — Build → analysis.New → NewReorder → NewTraceHasher →
// StreamSlices (with the campaign's snapshot calls at each boundary) →
// Flush → Result → Summarize — with a span around each, then writes
// the report.
func (w simWorkload) traced(cfg config, m experiment.Matrix, tr *tracer) (tracedCounts, []experiment.RunRecord, error) {
	var tc tracedCounts
	var runs []experiment.RunRecord
	snapDir := filepath.Join(cfg.work, "traced", "snapshots")
	if err := os.MkdirAll(snapDir, 0o755); err != nil {
		return tc, nil, err
	}
	for idx, name := range w.scenarios {
		var (
			b   *built
			err error
		)
		tr.time("workload.build", func() { b, err = buildScenario(name, cfg.seed, 1.0) })
		if err != nil {
			return tc, nil, err
		}
		tap := &txCounter{}
		b.net.AddTap(tap)

		var (
			a    *analysis.Analyzer
			th   *experiment.TraceHasher
			ro   *experiment.Reorder
			head experiment.Sink
		)
		tr.time("pipeline.new", func() {
			a, err = analysis.New(analysis.Options{})
			if err != nil {
				return
			}
			th = experiment.NewTraceHasher(tr.sink("analysis.feed", a.Feed))
			ro = experiment.NewReorder(tr.sink("tracehash", th.Add))
			head = tr.sink("reorder", ro.Add)
		})
		if err != nil {
			return tc, nil, err
		}
		records := int64(0)
		count := func(rec capture.Record) { records++; head(rec) }

		interval := w.checkpoint
		snapPath := filepath.Join(snapDir, fmt.Sprintf("run-%d.snap", idx))
		cpIdx := 0
		atSlice := func(t phy.Micros) error {
			var (
				ns   *sim.NetworkState
				ss   []sniffer.State
				data []byte
				err  error
			)
			tr.time("snapshot.capture", func() {
				ss = make([]sniffer.State, len(b.sniffers))
				for i, sn := range b.sniffers {
					ss[i] = sn.CaptureState()
				}
				ns = b.net.CaptureState()
			})
			tr.time("snapshot.encode", func() {
				var meta snapshot.Enc
				meta.Str(name)
				meta.I64(cfg.seed)
				meta.F64(1.0)
				meta.Int(idx)
				meta.I64(int64(interval))
				meta.I64(int64(t))
				meta.Int(cpIdx)
				sb := snapshot.NewBuilder()
				sb.Section(snapshot.TagMeta, meta.Bytes())
				sb.Section(snapshot.TagNetwork, snapshot.EncodeNetworkState(ns))
				sb.Section(snapshot.TagSniffers, snapshot.EncodeSnifferStates(ss))
				data = sb.Finish()
			})
			tr.time("snapshot.write", func() { err = snapshot.AtomicWriteFile(snapPath, data) })
			cpIdx++
			tc.snapshots++
			tc.snapshotBytes += int64(len(data))
			return err
		}
		tr.time("sim", func() { err = b.slices(count, interval, atSlice) })
		if err != nil {
			return tc, nil, err
		}
		tr.time("reorder", ro.Flush)
		var res *analysis.Result
		tr.time("analysis.result", func() { res = a.Result() })
		os.Remove(snapPath)

		rows, links, maxRow := b.net.LinkStats()
		tc.events += b.net.EventsProcessed()
		tc.heapOps += b.net.EventHeapOps()
		tc.deferrals += b.net.EventDeferrals()
		tc.rows += rows
		tc.links += links
		tc.maxRow = max(tc.maxRow, maxRow)
		tc.txObserved += tap.n
		tc.records += records
		tc.reorderMaxPending = max(tc.reorderMaxPending, ro.MaxPending())
		runs = append(runs, experiment.RunRecord{
			Index: idx, Name: name, Seed: cfg.seed, Scale: 1.0,
			Summary: experiment.Summarize(res), TraceHash: th.Sum(),
		})
	}
	tc.analysisFrames = tr.calls("analysis.feed")

	rep := experiment.CampaignReport{Scenarios: m.Scenarios, Seeds: m.Seeds, Scales: m.Scales, CheckpointMicros: int64(w.checkpoint), Runs: runs}
	rrs := make([]experiment.RunResult, len(runs))
	for i, run := range runs {
		rrs[i] = experiment.RunResult{Spec: experiment.Spec{Name: run.Name, Seed: run.Seed, Scale: run.Scale}, Summary: run.Summary}
	}
	rep.Aggregates = experiment.Aggregate(rrs)
	path := filepath.Join(cfg.work, "traced", "report.json")
	var err error
	tr.time("report.write", func() { err = experiment.WriteJSONAtomic(path, rep) })
	if err != nil {
		return tc, nil, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return tc, nil, err
	}
	tc.reportBytes = st.Size()
	return tc, runs, nil
}

// checkCounters compares the exact work counters of two runs of the
// same pipeline and seed in one invocation. A difference means the
// program is not deterministic, and fails the run.
func checkCounters(c *checks, first, second map[string]int64) {
	var diff []string
	for _, k := range sortedKeys(first) {
		if first[k] != second[k] {
			diff = append(diff, fmt.Sprintf("%s=%d then %d", k, first[k], second[k]))
		}
	}
	if len(diff) > 0 {
		c.fail(1, "work counters differ between two runs of the same seed: %v", diff)
		return
	}
	fmt.Printf("counters: %d exact counters repeat between two runs\n", len(first))
	c.ok(1)
}
