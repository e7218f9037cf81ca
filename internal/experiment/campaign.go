package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"wlan80211/internal/analysis"
	"wlan80211/internal/experiment/faultinject"
	"wlan80211/internal/phy"
	"wlan80211/internal/snapshot"
)

// This file makes matrix sweeps crash-resumable. A campaign lives in
// a directory:
//
//	campaign.json   — the matrix + options (atomic write; resume
//	                  re-expands specs from it, never from flags)
//	journal.jsonl   — one line per completed run, appended with
//	                  O_APPEND in a single write; each line carries a
//	                  CRC32 of its record, so a torn tail from a crash
//	                  mid-append is detected and truncated on resume
//	snapshots/run-N.snap — the latest mid-run snapshot of each
//	                  in-flight run (temp-file+rename, see snapshot)
//
// Determinism contract: a campaign that crashes at ANY instant and is
// resumed produces aggregates and per-run trace hashes bit-identical
// to one that never crashed. Completed runs come back from the
// journal (JSON round-trips int64 and float64 values exactly, and
// folding happens in spec order either way); interrupted runs are
// deterministically replayed, and their mid-run snapshot is verified
// byte-for-byte against the replayed state at the same sim instant —
// proving the snapshot witnessed the exact state the resumed run
// passes through (event callbacks are closures, so state cannot be
// deserialized directly; the snapshot is the proof of equivalence,
// the replay is the reconstruction).

const (
	manifestName = "campaign.json"
	journalName  = "journal.jsonl"
	snapshotsDir = "snapshots"
)

// Manifest is the persisted campaign identity (campaign.json).
type Manifest struct {
	Version          int        `json:"version"`
	Matrix           Matrix     `json:"matrix"`
	CheckpointMicros int64      `json:"checkpoint_micros"`
	Metrics          []string   `json:"metrics,omitempty"`
	Range            *SpecRange `json:"range,omitempty"`
}

// RunRecord is one completed run as journaled.
type RunRecord struct {
	Index     int     `json:"index"`
	Name      string  `json:"name"`
	Seed      int64   `json:"seed"`
	Scale     float64 `json:"scale"`
	Summary   Summary `json:"summary"`
	TraceHash string  `json:"trace_hash"`
}

// CampaignResult is a finished (or interrupted) campaign.
type CampaignResult struct {
	Specs      []Spec
	Records    []RunRecord // spec order; zero-valued where incomplete
	Done       []bool      // which Records are filled
	Aggregates []Aggregated
	// FromJournal counts runs skipped because the journal already had
	// them; Verified counts interrupted runs whose snapshot was
	// replay-verified on resume.
	FromJournal int
	Verified    int
}

// Report is the serializable campaign report (what wlansweep -json
// writes and the CI kill-and-resume job diffs).
func (r *CampaignResult) Report(man Manifest) CampaignReport {
	rep := CampaignReport{
		Scenarios:        man.Matrix.Scenarios,
		Seeds:            man.Matrix.Seeds,
		Scales:           man.Matrix.Scales,
		CheckpointMicros: man.CheckpointMicros,
		Aggregates:       r.Aggregates,
	}
	for i, rec := range r.Records {
		if r.Done[i] {
			rep.Runs = append(rep.Runs, rec)
		}
	}
	return rep
}

// CampaignReport is the JSON report shape.
type CampaignReport struct {
	Scenarios        []string     `json:"scenarios"`
	Seeds            []int64      `json:"seeds,omitempty"`
	Scales           []float64    `json:"scales,omitempty"`
	CheckpointMicros int64        `json:"checkpoint_micros"`
	Runs             []RunRecord  `json:"runs"`
	Aggregates       []Aggregated `json:"aggregates"`
}

// WriteJSONAtomic marshals v and writes it to path via
// temp-file+rename, so an interrupt can never leave a torn report.
func WriteJSONAtomic(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return snapshot.AtomicWriteFile(path, append(data, '\n'))
}

// journal is the append-only completion log.
type journal struct {
	mu sync.Mutex
	f  *os.File
}

type journalLine struct {
	CRC string          `json:"crc"`
	Rec json.RawMessage `json:"rec"`
}

// scanJournal parses data's valid newline-terminated prefix,
// returning the records and the prefix's byte length. A damaged or
// unterminated tail line is tolerated — it is the torn-append
// artifact of a crash (even a fragment that happens to parse is not
// trustworthy without its terminator). Corruption anywhere but the
// tail is a hard error — that is damage, not a crash artifact.
func scanJournal(path string, data []byte) ([]RunRecord, int, error) {
	var recs []RunRecord
	valid := 0 // byte length of the valid, newline-terminated prefix
	for valid < len(data) {
		nl := bytes.IndexByte(data[valid:], '\n')
		if nl < 0 {
			break
		}
		rec, perr := parseJournalLine(data[valid : valid+nl])
		if perr != nil {
			if valid+nl+1 >= len(data) {
				break
			}
			return nil, 0, fmt.Errorf("experiment: journal %s: corrupt record at offset %d (not at tail): %w", path, valid, perr)
		}
		recs = append(recs, rec)
		valid += nl + 1
	}
	return recs, valid, nil
}

// ReadJournal reads a campaign journal without opening it for writing
// and without truncating a torn tail — the read-only view a dispatch
// worker uses to collect its shard's completed records for upload.
// A missing journal yields no records and no error.
func ReadJournal(path string) ([]RunRecord, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	recs, _, err := scanJournal(path, data)
	return recs, err
}

// JournalPath returns the journal file inside a campaign directory.
func JournalPath(dir string) string { return filepath.Join(dir, journalName) }

// openJournal reads an existing journal (verifying every record's
// CRC), truncates a torn tail line if the last append was interrupted
// mid-write, and opens the file for appending.
func openJournal(path string) (*journal, []RunRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	recs, valid, err := scanJournal(path, data)
	if err != nil {
		return nil, nil, err
	}
	if valid < len(data) {
		if err := os.Truncate(path, int64(valid)); err != nil {
			return nil, nil, fmt.Errorf("experiment: journal %s: truncating torn tail: %w", path, err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return &journal{f: f}, recs, nil
}

func parseJournalLine(line []byte) (RunRecord, error) {
	var jl journalLine
	if err := json.Unmarshal(line, &jl); err != nil {
		return RunRecord{}, err
	}
	want := fmt.Sprintf("%08x", crc32.ChecksumIEEE(jl.Rec))
	if jl.CRC != want {
		return RunRecord{}, fmt.Errorf("crc %s != %s", jl.CRC, want)
	}
	var rec RunRecord
	if err := json.Unmarshal(jl.Rec, &rec); err != nil {
		return RunRecord{}, err
	}
	return rec, nil
}

// append journals one completed run: a single O_APPEND write of the
// whole line, then fsync, so a crash leaves either nothing or the
// complete record — and if the kernel tears the write (or the
// injector simulates it), the CRC catches the fragment on resume.
func (j *journal) append(rec RunRecord, inj *faultinject.Injector) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	line := fmt.Sprintf("{\"crc\":\"%08x\",\"rec\":%s}\n", crc32.ChecksumIEEE(payload), payload)
	j.mu.Lock()
	defer j.mu.Unlock()
	if inj.JournalWrite(rec.Index) {
		// Simulate the torn write: half the line reaches the disk,
		// then the process dies.
		if _, err := j.f.WriteString(line[:len(line)/2]); err != nil {
			return err
		}
		j.f.Sync()
		inj.CrashNow()
	}
	if _, err := j.f.WriteString(line); err != nil {
		return err
	}
	return j.f.Sync()
}

func (j *journal) close() error { return j.f.Close() }

// startCampaignDir creates (or matches) the campaign manifest in
// opts.CampaignDir and runs the pending specs — Execute's ModeCampaign
// start path. The campaign is idempotent: the journal skips finished
// runs, and an existing campaign.json must describe the same matrix
// and options.
func startCampaignDir(ctx context.Context, opts RunSpecOpts) (*CampaignResult, error) {
	specs, err := opts.Matrix.Expand()
	if err != nil {
		return nil, err
	}
	dir := opts.CampaignDir
	man := Manifest{Version: 1, Matrix: opts.Matrix, CheckpointMicros: opts.CheckpointMicros, Metrics: opts.Metrics, Range: opts.Range}
	if err := os.MkdirAll(filepath.Join(dir, snapshotsDir), 0o755); err != nil {
		return nil, err
	}
	manPath := filepath.Join(dir, manifestName)
	if prev, err := readManifest(manPath); err == nil {
		a, _ := json.Marshal(man)
		b, _ := json.Marshal(prev)
		if !bytes.Equal(a, b) {
			return nil, fmt.Errorf("experiment: %s already holds a different campaign (use -resume, or a fresh directory)", dir)
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	} else if err := WriteJSONAtomic(manPath, man); err != nil {
		return nil, err
	}
	return runCampaign(ctx, specs, opts)
}

// resumeCampaignDir continues the campaign in opts.CampaignDir with
// the on-disk manifest authoritative — Execute's ModeCampaign resume
// path: finished runs fold straight from the journal, interrupted ones
// are deterministically replayed with their latest snapshot verified
// byte-for-byte at its sim instant.
func resumeCampaignDir(ctx context.Context, opts RunSpecOpts) (*CampaignResult, error) {
	dir := opts.CampaignDir
	man, err := readManifest(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("experiment: resume %s: %w", dir, err)
	}
	specs, err := man.Matrix.Expand()
	if err != nil {
		return nil, err
	}
	opts.CheckpointMicros = man.CheckpointMicros
	opts.Metrics = man.Metrics
	opts.Range = man.Range
	if err := os.MkdirAll(filepath.Join(dir, snapshotsDir), 0o755); err != nil {
		return nil, err
	}
	return runCampaign(ctx, specs, opts)
}

// ReadManifest loads a campaign directory's manifest.
func ReadManifest(dir string) (Manifest, error) {
	return readManifest(filepath.Join(dir, manifestName))
}

// validateRecord checks a journaled (or uploaded) record against the
// expanded matrix: the index must exist and the identity fields must
// match what the matrix expands to at that index.
func validateRecord(specs []Spec, rec RunRecord) error {
	if rec.Index < 0 || rec.Index >= len(specs) {
		return fmt.Errorf("experiment: journal records run %d, matrix has %d runs", rec.Index, len(specs))
	}
	sp := specs[rec.Index]
	if rec.Name != sp.Name || rec.Seed != sp.Seed || rec.Scale != sp.Scale {
		return fmt.Errorf("experiment: journal run %d is %s/seed=%d/scale=%g, matrix expands to %s/seed=%d/scale=%g",
			rec.Index, rec.Name, rec.Seed, rec.Scale, sp.Name, sp.Seed, sp.Scale)
	}
	return nil
}

// FoldRecords assembles a CampaignResult from journal records gathered
// out of band — the dispatch coordinator folding worker shard uploads,
// or a partition test folding per-range journals. Records may arrive
// in any order and from overlapping leases: duplicates for a spec
// index are fine when bit-identical (runs are deterministic, so a
// rerun of the same spec journals the same record) and a hard error
// when they differ, because that means two workers disagreed on a
// deterministic computation. Done records fold in global spec order,
// so the aggregates — and the report built from the result — are
// byte-identical to a single-process campaign over the same matrix.
func FoldRecords(man Manifest, recs []RunRecord) (*CampaignResult, error) {
	specs, err := man.Matrix.Expand()
	if err != nil {
		return nil, err
	}
	res := &CampaignResult{
		Specs:   specs,
		Records: make([]RunRecord, len(specs)),
		Done:    make([]bool, len(specs)),
	}
	for _, rec := range recs {
		if err := validateRecord(specs, rec); err != nil {
			return nil, err
		}
		if res.Done[rec.Index] {
			if rec != res.Records[rec.Index] {
				return nil, fmt.Errorf("experiment: conflicting records for run %d (%s seed=%d scale=%g): trace %s vs %s",
					rec.Index, rec.Name, rec.Seed, rec.Scale, rec.TraceHash, res.Records[rec.Index].TraceHash)
			}
			continue
		}
		res.Records[rec.Index] = rec
		res.Done[rec.Index] = true
		res.FromJournal++
	}
	res.aggregate()
	return res, nil
}

// aggregate folds the done records in spec order — exactly the
// reduction an uninterrupted collect run of the same specs performs.
func (r *CampaignResult) aggregate() {
	var red reducer
	for i, spec := range r.Specs {
		if r.Done[i] {
			red.add(spec, r.Records[i].Summary, nil)
		}
	}
	r.Aggregates = red.result()
}

func readManifest(path string) (Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, err
	}
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return Manifest{}, fmt.Errorf("%s: %w", path, err)
	}
	if man.Version != 1 {
		return Manifest{}, fmt.Errorf("%s: unsupported campaign version %d", path, man.Version)
	}
	return man, nil
}

// runCampaign folds the journal into the campaign's expanded specs,
// runs every pending spec in the campaign's range on the shared pool —
// each worker journals its own completions, and dispatch stops on the
// first failure — and aggregates the done runs in spec order. The
// returned error is the first failure in spec order.
func runCampaign(ctx context.Context, specs []Spec, opts RunSpecOpts) (*CampaignResult, error) {
	j, journaled, err := openJournal(filepath.Join(opts.CampaignDir, journalName))
	if err != nil {
		return nil, err
	}
	defer j.close()

	res := &CampaignResult{
		Specs:   specs,
		Records: make([]RunRecord, len(specs)),
		Done:    make([]bool, len(specs)),
	}
	for _, rec := range journaled {
		if err := validateRecord(specs, rec); err != nil {
			return nil, err
		}
		if !res.Done[rec.Index] {
			res.FromJournal++
		}
		res.Records[rec.Index] = rec
		res.Done[rec.Index] = true
	}

	// A range-restricted campaign (a dispatch worker's shard) only
	// runs its leased indices; the journal and fold stay global.
	var pending []int
	for i := range specs {
		if !res.Done[i] && opts.Range.Contains(i) {
			pending = append(pending, i)
		}
	}

	type cell struct {
		rec      RunRecord
		verified bool
		err      error
	}
	workers := opts.Workers
	if opts.Injector != nil {
		workers = 1 // reproducible crash instants
	}
	var firstErr error
	pool[cell]{
		workers: workers,
		run: func(k int) cell {
			i := pending[k]
			rec, verified, err := runCellRecovered(specs[i], i, opts, j)
			if err != nil {
				err = fmt.Errorf("run %d (%s seed=%d scale=%g): %w", i, specs[i].Name, specs[i].Seed, specs[i].Scale, err)
			}
			return cell{rec, verified, err}
		},
		fold: func(k int, c cell) {
			if c.err != nil {
				if firstErr == nil {
					firstErr = c.err
				}
				return
			}
			res.Records[pending[k]] = c.rec
			res.Done[pending[k]] = true
			if c.verified {
				res.Verified++
			}
		},
		halt: func(c cell) bool { return c.err != nil },
	}.execute(ctx, len(pending))
	if firstErr != nil {
		return res, firstErr
	}

	res.aggregate()
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// runCellRecovered runs one cell, converting an injected crash
// (faultinject.Crashed panic) into an error that aborts the campaign
// with the on-disk state exactly as-at-crash — the in-process
// equivalent of a SIGKILL at that instant, which is what the
// kill-and-resume tests exercise. Real panics propagate.
func runCellRecovered(spec Spec, idx int, opts RunSpecOpts, j *journal) (rec RunRecord, didVerify bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			if c, ok := r.(faultinject.Crashed); ok {
				err = c
				return
			}
			panic(r)
		}
	}()
	return runCampaignCell(spec, idx, opts, j)
}

// runCampaignCell executes one pending run with checkpointing, then
// journals its completion and retires its snapshot.
func runCampaignCell(spec Spec, idx int, opts RunSpecOpts, j *journal) (RunRecord, bool, error) {
	env := checkpointEnv{
		interval: phy.Micros(opts.CheckpointMicros),
		runIdx:   idx,
		inj:      opts.Injector,
	}
	snapPath := filepath.Join(opts.CampaignDir, snapshotsDir, fmt.Sprintf("run-%d.snap", idx))
	if opts.CheckpointMicros > 0 {
		env.snapPath = snapPath
	}
	if f, err := snapshot.ReadFile(snapPath); err == nil {
		meta, err := decodeMeta(f)
		if err != nil {
			return RunRecord{}, false, err
		}
		if meta.Name != spec.Name || meta.Seed != spec.Seed || meta.Scale != spec.Scale || meta.RunIdx != idx {
			return RunRecord{}, false, fmt.Errorf("snapshot %s is for %s/seed=%d/scale=%g/run=%d, not this run", snapPath, meta.Name, meta.Seed, meta.Scale, meta.RunIdx)
		}
		env.verify = f
		env.verifyT = meta.SimTime
		env.interval = meta.Interval
	} else if !os.IsNotExist(err) {
		// A snapshot exists but does not validate: fail loud, never
		// silently rerun over possibly-damaged campaign state.
		return RunRecord{}, false, err
	}

	r, hash, err := runCell(spec, opts.Metrics, &env)
	if err != nil {
		return RunRecord{}, false, err
	}
	rec := RunRecord{Index: idx, Name: spec.Name, Seed: spec.Seed, Scale: spec.Scale, Summary: Summarize(r), TraceHash: hash}
	if err := j.append(rec, opts.Injector); err != nil {
		return RunRecord{}, false, err
	}
	opts.Injector.AfterRun(idx)
	os.Remove(snapPath) // completed: the journal is now the authority
	return rec, env.verify != nil, nil
}

// snapMeta is the META section: which run a snapshot belongs to and
// where in sim time it was taken.
type snapMeta struct {
	Name       string
	Seed       int64
	Scale      float64
	RunIdx     int
	Interval   phy.Micros
	SimTime    phy.Micros
	Checkpoint int
}

func encodeMeta(m snapMeta) []byte {
	var e snapshot.Enc
	e.Str(m.Name)
	e.I64(m.Seed)
	e.F64(m.Scale)
	e.Int(m.RunIdx)
	e.I64(m.Interval)
	e.I64(m.SimTime)
	e.Int(m.Checkpoint)
	return e.Bytes()
}

func decodeMeta(f *snapshot.File) (snapMeta, error) {
	p, err := f.MustSection(snapshot.TagMeta)
	if err != nil {
		return snapMeta{}, err
	}
	d := snapshot.NewDec(p)
	m := snapMeta{
		Name: d.Str(), Seed: d.I64(), Scale: d.F64(), RunIdx: d.Int(),
		Interval: d.I64(), SimTime: d.I64(), Checkpoint: d.Int(),
	}
	return m, d.Finish()
}

// checkpointEnv parameterizes one checkpointed run.
type checkpointEnv struct {
	interval phy.Micros
	snapPath string         // write mid-run snapshots here ("" = off)
	verify   *snapshot.File // snapshot to replay-verify against
	verifyT  phy.Micros     // sim instant the snapshot was taken at
	runIdx   int
	inj      *faultinject.Injector
}

// buildRunSnapshot assembles a run's checkpoint: identity, simulator
// state, sniffer state, and pipeline position.
func buildRunSnapshot(spec Spec, runIdx int, t, interval phy.Micros, cpIdx int, cp Checkpointable, th *TraceHasher, a *analysis.Analyzer, ro *Reorder, dd *Dedup) []byte {
	net, sns := cp.CaptureState()
	b := snapshot.NewBuilder()
	b.Section(snapshot.TagMeta, encodeMeta(snapMeta{
		Name: spec.Name, Seed: spec.Seed, Scale: spec.Scale,
		RunIdx: runIdx, Interval: interval, SimTime: t, Checkpoint: cpIdx,
	}))
	b.Section(snapshot.TagNetwork, snapshot.EncodeNetworkState(net))
	b.Section(snapshot.TagSniffers, snapshot.EncodeSnifferStates(sns))
	b.Section(snapshot.TagPipeline, encodePipeline(th, a, ro, dd))
	return b.Finish()
}

// verifySnapshot proves the replayed run passes through exactly the
// state a stored snapshot witnessed: each state section, re-captured
// now, must be byte-identical. Any divergence — version skew in the
// simulator, nondeterminism, damage the checksum missed — fails the
// resume loudly instead of continuing from a wrong state.
func verifySnapshot(f *snapshot.File, cp Checkpointable, th *TraceHasher, a *analysis.Analyzer, ro *Reorder, dd *Dedup) error {
	net, sns := cp.CaptureState()
	sections := []struct {
		tag  string
		data []byte
	}{
		{snapshot.TagNetwork, snapshot.EncodeNetworkState(net)},
		{snapshot.TagSniffers, snapshot.EncodeSnifferStates(sns)},
		{snapshot.TagPipeline, encodePipeline(th, a, ro, dd)},
	}
	for _, s := range sections {
		stored, err := f.MustSection(s.tag)
		if err != nil {
			return err
		}
		if !bytes.Equal(stored, s.data) {
			return fmt.Errorf("snapshot section %q does not match replayed state (%d vs %d bytes): refusing to resume from diverged state", s.tag, len(stored), len(s.data))
		}
	}
	return nil
}
