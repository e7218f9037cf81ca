// Command ietfrepro regenerates every table and figure of "Understanding
// Congestion in IEEE 802.11b Wireless Networks" (Jardosh et al., IMC
// 2005) from synthetic IETF62-style traces.
//
// Tables 1–2 and Figures 4–5 come from the day and plenary session
// scenarios; the scatter Figures 6–15 come from the utilization sweep
// ladder, mirroring how the paper pools both sessions' per-second data.
// All three scenarios execute on the experiment engine's worker pool,
// each streaming straight into its own analysis pipeline — no
// materialized traces, so a full-scale run needs only per-second
// memory.
//
// Usage:
//
//	ietfrepro                 # everything, default scale
//	ietfrepro -scale 0.5      # faster, smaller runs
//	ietfrepro -only 8         # just Figure 8
//	ietfrepro -sweep 4        # seeds×scales robustness matrix instead of figures
//	ietfrepro -sweep 4 -grid  # matrix including the multi-cell grid scenarios
//	                          # (beyond the paper: interference grids, roaming
//	                          # mobiles, mixed b/g, ≥2 sniffers per channel)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"wlan80211/internal/experiment"
	"wlan80211/internal/prof"
	"wlan80211/internal/report"
	"wlan80211/internal/workload"
)

// profStop flushes any active profiles; main replaces it once
// profiling starts. Idempotent, safe before every exit path.
var profStop = func() {}

func main() {
	var (
		scale   = flag.Float64("scale", 1.0, "scenario scale factor (0..1]")
		only    = flag.Int("only", 0, "print only this figure number (0 = everything)")
		workers = flag.Int("workers", 0, "concurrent scenario runs (0 = GOMAXPROCS)")
		sweep   = flag.Int("sweep", 0, "run the day/plenary/ladder matrix over N seeds and print mean±stddev aggregates instead of figures")
		grid    = flag.Bool("grid", false, "include the multi-cell grid scenarios in the -sweep matrix (implies -sweep 1 when unset)")
		jsonOut = flag.String("json", "", "also write the run summaries (or -sweep aggregates) as JSON to this path, atomically")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf = flag.String("memprofile", "", "write an allocs/heap profile to this file at exit")
	)
	flag.Parse()
	stop, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ietfrepro:", err)
		os.Exit(2)
	}
	// Explicit os.Exit paths flush through profStop (defers don't run
	// across os.Exit); stop is idempotent, so double flushes are safe.
	profStop = stop
	defer stop()

	if *only != 0 && (*only < 4 || *only > 15) {
		fmt.Fprintf(os.Stderr, "ietfrepro: no figure %d (have 4-15)\n", *only)
		profStop()
		os.Exit(2)
	}

	if *grid && *sweep <= 0 {
		*sweep = 1
	}
	if *sweep > 0 {
		runMatrix(*sweep, *scale, *workers, *grid, *jsonOut)
		return
	}

	day := workload.DaySession().Scale(*scale)
	plenary := workload.PlenarySession().Scale(*scale)

	// Table 1: the session plan itself.
	t1 := report.NewTable("Table 1: data sets", "set", "channels", "duration_s", "peak_users")
	t1.AddRow(day.Name, "1, 6, 11", day.DurationSec, day.PeakUsers)
	t1.AddRow(plenary.Name, "1, 6, 11", plenary.DurationSec, plenary.PeakUsers)

	if *only == 0 {
		t1.WriteTo(os.Stdout)
		fmt.Println()
		report.Table2().WriteTo(os.Stdout)
		fmt.Println()
	}

	// Only the scenarios whose figures will print run — concurrently,
	// streaming. The registry's day, plenary, and ladder at seed 0 are
	// exactly the sessions of Table 1 and the default sweep ladder.
	needSessions := *only == 0 || *only == 4 || *only == 5
	needLadder := *only != 4 && *only != 5
	m := experiment.Matrix{Scales: []float64{*scale}}
	if needSessions {
		m.Scenarios = append(m.Scenarios, "day", "plenary")
	}
	if needLadder {
		m.Scenarios = append(m.Scenarios, "ladder")
	}
	ex, err := experiment.Runner{}.Execute(context.Background(), experiment.RunSpecOpts{Matrix: m, Workers: *workers})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ietfrepro:", err)
		profStop()
		os.Exit(1)
	}
	results := ex.Results
	for _, res := range results {
		if res.Err != nil {
			fmt.Fprintf(os.Stderr, "ietfrepro: %s: %v\n", res.Spec.Name, res.Err)
			profStop()
			os.Exit(1)
		}
	}
	if *jsonOut != "" {
		if err := writeSummariesJSON(*jsonOut, *scale, results); err != nil {
			fmt.Fprintln(os.Stderr, "ietfrepro:", err)
			profStop()
			os.Exit(1)
		}
	}

	// Session figures (4–5).
	if needSessions {
		for _, res := range results[:2] {
			r := res.Result
			fmt.Printf("=== %s session (%d frames captured) ===\n\n", res.Spec.Name, r.TotalFrames)
			if *only == 0 || *only == 4 {
				report.Figure4a(r, 15).WriteTo(os.Stdout)
				fmt.Println()
				report.Figure4b(r).WriteTo(os.Stdout)
				fmt.Println()
				report.Figure4c(r, 15).WriteTo(os.Stdout)
				fmt.Println()
			}
			if *only == 0 || *only == 5 {
				report.Figure5(r).WriteTo(os.Stdout)
				fmt.Println()
				report.Figure5c(r).WriteTo(os.Stdout)
				fmt.Println()
			}
		}
	}

	if *only == 4 || *only == 5 {
		return
	}

	// Sweep ladder for Figures 6–15 (always the last spec when run).
	r := results[len(results)-1].Result
	fmt.Printf("=== utilization sweep (%d frames captured) ===\n\n", r.TotalFrames)
	figs := map[int]*report.Table{
		6:  report.Figure6(r),
		7:  report.Figure7(r),
		8:  report.Figure8(r),
		9:  report.Figure9(r),
		10: report.Figure10(r),
		11: report.Figure11(r),
		12: report.Figure12(r),
		13: report.Figure13(r),
		14: report.Figure14(r),
		15: report.Figure15(r),
	}
	if *only != 0 {
		// *only is validated to 4..15 up front and 4/5 returned above.
		figs[*only].WriteTo(os.Stdout)
		return
	}
	report.Summary(r).WriteTo(os.Stdout)
	fmt.Println()
	for i := 6; i <= 15; i++ {
		figs[i].WriteTo(os.Stdout)
		fmt.Println()
	}
}

// writeSummariesJSON archives the figure-mode run summaries as JSON,
// via temp-file+rename so an interrupt never leaves a torn report.
func writeSummariesJSON(path string, scale float64, results []experiment.RunResult) error {
	type row struct {
		Scenario string             `json:"scenario"`
		Scale    float64            `json:"scale"`
		Summary  experiment.Summary `json:"summary"`
	}
	doc := struct {
		Scale float64 `json:"scale"`
		Runs  []row   `json:"runs"`
	}{Scale: scale}
	for _, res := range results {
		doc.Runs = append(doc.Runs, row{Scenario: res.Spec.Name, Scale: res.Spec.Scale, Summary: res.Summary})
	}
	return experiment.WriteJSONAtomic(path, doc)
}

// runMatrix is the -sweep mode: the three repro scenarios × N seeds
// at the given scale (plus the grid scenarios with -grid), aggregated
// to mean±stddev per scenario — a robustness check that the headline
// numbers are not one-seed flukes.
func runMatrix(nSeeds int, scale float64, workers int, grid bool, jsonOut string) {
	m := experiment.Matrix{
		Scenarios: []string{"day", "plenary", "ladder"},
		Scales:    []float64{scale},
	}
	if grid {
		m.Scenarios = append(m.Scenarios, "grid", "grid9")
	}
	for s := int64(1); s <= int64(nSeeds); s++ {
		m.Seeds = append(m.Seeds, s)
	}
	// SIGINT/SIGTERM stops dispatching further seeds; completed runs
	// still aggregate, so an interrupted robustness sweep reports the
	// seeds it finished.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	ex, err := experiment.Runner{}.Execute(ctx, experiment.RunSpecOpts{Matrix: m, Workers: workers})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ietfrepro:", err)
		profStop()
		os.Exit(1)
	}
	results := ex.Results
	failed, canceled := 0, 0
	for _, res := range results {
		switch {
		case errors.Is(res.Err, context.Canceled):
			canceled++
		case res.Err != nil:
			failed++
			fmt.Fprintf(os.Stderr, "ietfrepro: %s seed=%d: %v\n", res.Spec.Name, res.Spec.Seed, res.Err)
		}
	}
	title := fmt.Sprintf("Repro matrix (%d runs)", len(results))
	if canceled > 0 {
		fmt.Fprintf(os.Stderr, "ietfrepro: interrupted: %d of %d runs canceled, aggregating the %d completed\n",
			canceled, len(results), len(results)-canceled)
		title = fmt.Sprintf("Repro matrix (%d of %d runs; interrupted)", len(results)-canceled, len(results))
	}
	aggs := ex.Aggregates
	experiment.AggregateTable(title, aggs).WriteTo(os.Stdout)
	if jsonOut != "" {
		doc := struct {
			Scenarios  []string                `json:"scenarios"`
			Seeds      []int64                 `json:"seeds"`
			Scales     []float64               `json:"scales"`
			Aggregates []experiment.Aggregated `json:"aggregates"`
		}{m.Scenarios, m.Seeds, m.Scales, aggs}
		if err := experiment.WriteJSONAtomic(jsonOut, doc); err != nil {
			fmt.Fprintln(os.Stderr, "ietfrepro:", err)
			profStop()
			os.Exit(1)
		}
	}
	if failed > 0 {
		profStop()
		os.Exit(1)
	}
	if canceled > 0 {
		profStop()
		os.Exit(130)
	}
}
