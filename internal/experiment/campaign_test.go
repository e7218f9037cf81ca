package experiment

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"wlan80211/internal/experiment/faultinject"
	"wlan80211/internal/phy"
	"wlan80211/internal/snapshot"
)

// traceHashOf runs one spec through the campaign pipeline with the
// given checkpointing environment and returns (summary, trace hash).
func traceHashOf(t *testing.T, name string, seed int64, scale float64, env checkpointEnv) (Summary, string) {
	t.Helper()
	sc, err := New(name, seed, scale)
	if err != nil {
		t.Fatal(err)
	}
	r, hash, err := runCell(Spec{Name: name, Seed: seed, Scale: scale, Scenario: sc}, nil, &env)
	if err != nil {
		t.Fatal(err)
	}
	return Summarize(r), hash
}

// campaign executes opts as a campaign in dir (continuing it with
// opts.Resume) and returns the campaign state, partial on error.
func campaign(ctx context.Context, dir string, opts RunSpecOpts) (*CampaignResult, error) {
	opts.Mode, opts.CampaignDir = ModeCampaign, dir
	ex, err := Runner{}.Execute(ctx, opts)
	if ex == nil {
		return nil, err
	}
	return ex.Campaign, err
}

// TestCheckpointedTraceHashMatchesUninterrupted is the tentpole
// acceptance criterion: for all four golden scenarios, a run that
// snapshots at every interval — and a resumed run that restores
// (replay-verifies) from a mid-run snapshot and continues to the end
// — produce the same trace hash and summary as an uninterrupted run.
// The -race CI matrix covers this test via the experiment package.
func TestCheckpointedTraceHashMatchesUninterrupted(t *testing.T) {
	cases := []struct {
		name  string
		scale float64
	}{
		{"day", 0.1},
		{"plenary", 0.1},
		{"grid", 0.5},
		{"grid9", 0.35},
		// grid256 exercises the sparse spatially-culled link rows and
		// index witness through the snapshot/replay round-trip.
		{"grid256", 0.5},
		// sweep/ladder became Checkpointable with the dispatch work;
		// ladder additionally crosses rung boundaries, exercising the
		// global-clock slice times.
		{"sweep", 0.15},
		{"ladder", 0.1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Uninterrupted reference: no slicing at all.
			refSum, refHash := traceHashOf(t, tc.name, 1, tc.scale, checkpointEnv{})
			if refHash == "" {
				t.Fatal("empty trace hash")
			}

			// Checkpointed: snapshot every 2 sim-seconds; the stream
			// must be bit-identical (same hash) despite the slicing
			// and state capture.
			dir := t.TempDir()
			snapPath := filepath.Join(dir, "run-0.snap")
			env := checkpointEnv{interval: 2 * phy.MicrosPerSecond, snapPath: snapPath}
			cpSum, cpHash := traceHashOf(t, tc.name, 1, tc.scale, env)
			if cpHash != refHash {
				t.Fatalf("checkpointed trace hash %s != uninterrupted %s", cpHash, refHash)
			}
			if !reflect.DeepEqual(cpSum, refSum) {
				t.Fatalf("checkpointed summary %+v != uninterrupted %+v", cpSum, refSum)
			}

			// Snapshot-at-t → restore → run-to-end: the final snapshot
			// left on disk is from the last interval boundary; resume
			// from it (replay to t, verify byte-for-byte, continue).
			f, err := snapshot.ReadFile(snapPath)
			if err != nil {
				t.Fatalf("reading final checkpoint: %v", err)
			}
			meta, err := decodeMeta(f)
			if err != nil {
				t.Fatal(err)
			}
			if meta.SimTime == 0 {
				t.Fatal("checkpoint has zero sim time")
			}
			resSum, resHash := traceHashOf(t, tc.name, 1, tc.scale, checkpointEnv{
				interval: meta.Interval, verify: f, verifyT: meta.SimTime,
			})
			if resHash != refHash {
				t.Fatalf("restored trace hash %s != uninterrupted %s", resHash, refHash)
			}
			if !reflect.DeepEqual(resSum, refSum) {
				t.Fatalf("restored summary %+v != uninterrupted %+v", resSum, refSum)
			}
		})
	}
}

// TestVerifyRejectsForeignSnapshot: resuming against a snapshot from
// a different run (different seed) must fail the byte comparison, not
// silently continue.
func TestVerifyRejectsForeignSnapshot(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "run-0.snap")
	env := checkpointEnv{interval: 2 * phy.MicrosPerSecond, snapPath: snapPath}
	traceHashOf(t, "day", 1, 0.1, env)
	f, err := snapshot.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := decodeMeta(f)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := New("day", 2, 0.1) // different seed than the snapshot
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = runCell(Spec{Name: "day", Seed: 2, Scale: 0.1, Scenario: sc}, nil, &checkpointEnv{
		interval: meta.Interval, verify: f, verifyT: meta.SimTime,
	})
	if err == nil || !strings.Contains(err.Error(), "does not match replayed state") {
		t.Fatalf("foreign snapshot accepted: %v", err)
	}
}

func campaignMatrix() Matrix {
	return Matrix{
		Scenarios: []string{"day", "grid"},
		Seeds:     []int64{1, 2},
		Scales:    []float64{0.1},
	}
}

// TestCampaignKillAndResume is the fault-injection acceptance
// criterion: for every crash-point kind, a campaign killed at that
// instant and resumed yields aggregates, per-run trace hashes, and a
// JSON report bit-identical to a campaign that never crashed.
func TestCampaignKillAndResume(t *testing.T) {
	ctx := context.Background()
	m := campaignMatrix()
	opts := RunSpecOpts{Matrix: m, Workers: 1, CheckpointMicros: 2 * phy.MicrosPerSecond}

	refDir := t.TempDir()
	ref, err := campaign(ctx, refDir, opts)
	if err != nil {
		t.Fatalf("reference campaign: %v", err)
	}
	if got := len(ref.Records); got != 4 {
		t.Fatalf("reference has %d records, want 4", got)
	}
	refMan, err := ReadManifest(refDir)
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := json.Marshal(ref.Report(refMan))
	if err != nil {
		t.Fatal(err)
	}

	plans := []faultinject.Plan{
		{Point: faultinject.AfterRun, Run: 1},
		{Point: faultinject.MidRun, Run: 2, Checkpoint: 1},
		{Point: faultinject.JournalWrite, Run: 1},
	}
	// A seeded schedule is deterministic and lands on a real point.
	sched := faultinject.Schedule(42, 4, 3)
	if sched != faultinject.Schedule(42, 4, 3) {
		t.Fatal("Schedule not deterministic")
	}
	if sched.Point == faultinject.None || sched.Run < 0 || sched.Run >= 4 {
		t.Fatalf("Schedule produced unusable plan %+v", sched)
	}
	plans = append(plans, sched)

	for _, plan := range plans {
		t.Run(plan.String(), func(t *testing.T) {
			dir := t.TempDir()
			crashOpts := opts
			crashOpts.Injector = faultinject.New(plan)
			_, err := campaign(ctx, dir, crashOpts)
			var crashed faultinject.Crashed
			if !errors.As(err, &crashed) {
				t.Fatalf("campaign did not crash: err=%v", err)
			}

			resumed, err := campaign(ctx, dir, RunSpecOpts{Resume: true, Workers: 1})
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if !reflect.DeepEqual(resumed.Aggregates, ref.Aggregates) {
				t.Fatalf("resumed aggregates differ:\n%+v\nvs\n%+v", resumed.Aggregates, ref.Aggregates)
			}
			if !reflect.DeepEqual(resumed.Records, ref.Records) {
				t.Fatalf("resumed per-run records (trace hashes) differ:\n%+v\nvs\n%+v", resumed.Records, ref.Records)
			}
			if resumed.FromJournal == 0 && plan.Point != faultinject.JournalWrite && plan.Run > 0 {
				t.Error("resume re-ran everything; journal was not used")
			}
			if plan.Point == faultinject.MidRun && resumed.Verified == 0 {
				t.Error("mid-run crash resumed without verifying a snapshot")
			}
			man, err := ReadManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			gotJSON, err := json.Marshal(resumed.Report(man))
			if err != nil {
				t.Fatal(err)
			}
			if string(gotJSON) != string(refJSON) {
				t.Fatalf("resumed report JSON differs from uninterrupted reference:\n%s\nvs\n%s", gotJSON, refJSON)
			}
			// Resuming a finished campaign is a no-op fold from the
			// journal alone.
			again, err := campaign(ctx, dir, RunSpecOpts{Resume: true, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if again.FromJournal != 4 {
				t.Fatalf("second resume re-ran runs: FromJournal=%d", again.FromJournal)
			}
			if !reflect.DeepEqual(again.Aggregates, ref.Aggregates) {
				t.Fatal("second resume aggregates differ")
			}
		})
	}
}

// TestCampaignInterruptedContext: a context cancel behaves like a
// graceful SIGINT — in-flight runs finish and journal, and a later
// resume completes the matrix to the bit-identical reference.
func TestCampaignInterruptedContext(t *testing.T) {
	m := campaignMatrix()
	opts := RunSpecOpts{Matrix: m, Workers: 1, CheckpointMicros: 2 * phy.MicrosPerSecond}

	refDir := t.TempDir()
	ref, err := campaign(context.Background(), refDir, opts)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before dispatch: nothing runs, nothing breaks
	res, err := campaign(ctx, dir, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("no partial result")
	}
	resumed, err := campaign(context.Background(), dir, RunSpecOpts{Resume: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed.Aggregates, ref.Aggregates) {
		t.Fatal("aggregates after cancel+resume differ from reference")
	}
}

func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")

	// Two valid records, then a torn half-line with no terminator.
	j, recs, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal has %d records", len(recs))
	}
	r0 := RunRecord{Index: 0, Name: "day", Seed: 1, Scale: 0.1, TraceHash: "aaaa"}
	r1 := RunRecord{Index: 1, Name: "day", Seed: 2, Scale: 0.1, TraceHash: "bbbb"}
	if err := j.append(r0, nil); err != nil {
		t.Fatal(err)
	}
	if err := j.append(r1, nil); err != nil {
		t.Fatal(err)
	}
	j.close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte(nil), full...), []byte(`{"crc":"00000000","rec":{"index":2`)...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, recs, err := openJournal(path)
	if err != nil {
		t.Fatalf("torn tail not forgiven: %v", err)
	}
	if len(recs) != 2 || recs[0] != r0 || recs[1] != r1 {
		t.Fatalf("recovered records = %+v", recs)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(full) {
		t.Fatal("torn tail not truncated")
	}
	// And appending after recovery yields a clean record.
	r2 := RunRecord{Index: 2, Name: "grid", Seed: 1, Scale: 0.1, TraceHash: "cccc"}
	if err := j2.append(r2, nil); err != nil {
		t.Fatal(err)
	}
	j2.close()
	j3, recs3, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.close()
	if len(recs3) != 3 || recs3[2] != r2 {
		t.Fatalf("after recovery+append: %+v", recs3)
	}
}

func TestJournalCorruptionNotAtTailFails(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	j, _, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.append(RunRecord{Index: 0, Name: "day", Scale: 0.1}, nil)
	j.append(RunRecord{Index: 1, Name: "day", Scale: 0.1}, nil)
	j.close()
	data, _ := os.ReadFile(path)
	data[10] ^= 0x40 // damage the FIRST line
	os.WriteFile(path, data, 0o644)
	if _, _, err := openJournal(path); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
}

func TestCampaignRejectsDifferentMatrix(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	m := Matrix{Scenarios: []string{"day"}, Seeds: []int64{1}, Scales: []float64{0.1}}
	if _, err := campaign(ctx, dir, RunSpecOpts{Matrix: m, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	m2 := m
	m2.Seeds = []int64{9}
	if _, err := campaign(ctx, dir, RunSpecOpts{Matrix: m2, Workers: 1}); err == nil {
		t.Fatal("different matrix accepted into existing campaign dir")
	}
}

func TestCampaignParallelMatchesSerial(t *testing.T) {
	ctx := context.Background()
	m := campaignMatrix()
	a, err := campaign(ctx, t.TempDir(), RunSpecOpts{Matrix: m, Workers: 1, CheckpointMicros: 2 * phy.MicrosPerSecond})
	if err != nil {
		t.Fatal(err)
	}
	b, err := campaign(ctx, t.TempDir(), RunSpecOpts{Matrix: m, Workers: 4, CheckpointMicros: 2 * phy.MicrosPerSecond})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Aggregates, b.Aggregates) {
		t.Fatal("worker count changed campaign aggregates")
	}
	if !reflect.DeepEqual(a.Records, b.Records) {
		t.Fatal("worker count changed campaign records")
	}
}

// TestCampaignMatchesEngine: campaign aggregates are bit-identical to
// the plain collect path over the same matrix (the checkpoint pipeline
// must not perturb analysis).
func TestCampaignMatchesEngine(t *testing.T) {
	m := campaignMatrix()
	want := Aggregate(collect(t, m, 1))
	got, err := campaign(context.Background(), t.TempDir(), RunSpecOpts{Matrix: m, Workers: 1, CheckpointMicros: 2 * phy.MicrosPerSecond})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Aggregates, want) {
		t.Fatalf("campaign aggregates differ from engine:\n%+v\nvs\n%+v", got.Aggregates, want)
	}
}

func init() {
	// Guard: tests in this file assume these registry names exist.
	for _, n := range []string{"day", "plenary", "grid", "grid9"} {
		found := false
		for _, have := range Names() {
			if have == n {
				found = true
			}
		}
		if !found {
			panic(fmt.Sprintf("campaign_test: scenario %q missing from registry", n))
		}
	}
}
