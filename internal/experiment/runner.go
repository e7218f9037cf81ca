package experiment

import (
	"context"
	"fmt"

	"wlan80211/internal/experiment/faultinject"
)

// This file is the single entry point for running experiments:
// Runner.Execute(RunSpecOpts) takes one options struct that
// JSON-round-trips (the thing a remote-worker protocol needs) and
// returns one result shape for every mode. All three modes execute on
// the same worker pool (pool.execute) and the same run cell (runCell).

// RunMode selects Runner.Execute's execution strategy.
type RunMode string

const (
	// ModeCollect runs every spec and retains per-run results.
	ModeCollect RunMode = "collect"
	// ModeReduce folds summaries as runs complete, retaining only
	// aggregates — O(groups+workers) memory.
	ModeReduce RunMode = "reduce"
	// ModeCampaign runs as a crash-resumable journaled campaign in
	// CampaignDir.
	ModeCampaign RunMode = "campaign"
)

// SpecRange restricts execution to the expanded matrix's spec indices
// [From, To). Spec indices are global — defined by Matrix.Expand order
// — so a range names the same runs on every machine, which is what
// lets a coordinator lease disjoint ranges to workers and fold their
// journals back in global spec order.
type SpecRange struct {
	From int `json:"from"`
	To   int `json:"to"`
}

// Contains reports whether spec index i falls in the range.
func (r *SpecRange) Contains(i int) bool {
	return r == nil || (i >= r.From && i < r.To)
}

// validate checks the range against an expanded spec count.
func (r *SpecRange) validate(n int) error {
	if r == nil {
		return nil
	}
	if r.From < 0 || r.To > n || r.From >= r.To {
		return fmt.Errorf("experiment: spec range [%d,%d) invalid for %d specs", r.From, r.To, n)
	}
	return nil
}

// RunSpecOpts is the single serializable description of "what to
// run": the matrix, the execution mode, and the mode's knobs. The
// dispatch coordinator hands one of these (matrix + campaign knobs +
// a spec range) to each worker; in-process callers use the same
// struct (tests may also arm its non-serializable Injector).
type RunSpecOpts struct {
	// Matrix is the seeds × scales × scenarios grid to expand.
	Matrix Matrix `json:"matrix"`
	// Mode selects the strategy; empty means ModeCollect.
	Mode RunMode `json:"mode,omitempty"`
	// Workers bounds concurrent runs; <=0 means GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
	// Metrics selects analysis stages by name (empty = all).
	Metrics []string `json:"metrics,omitempty"`
	// Range restricts execution to spec indices [From, To) of the
	// expanded matrix; nil means every spec.
	Range *SpecRange `json:"range,omitempty"`

	// CampaignDir is the journaled campaign directory (ModeCampaign).
	CampaignDir string `json:"campaign_dir,omitempty"`
	// CheckpointMicros is the mid-run snapshot interval in sim
	// microseconds (ModeCampaign); 0 disables mid-run snapshots.
	CheckpointMicros int64 `json:"checkpoint_micros,omitempty"`
	// Resume continues the campaign already in CampaignDir: the
	// on-disk manifest is authoritative and Matrix, Metrics,
	// CheckpointMicros, and Range are taken from it.
	Resume bool `json:"resume,omitempty"`

	// Injector arms a deterministic crash point (ModeCampaign tests).
	Injector *faultinject.Injector `json:"-"`
}

// Execution is what Runner.Execute produced. Fields are filled per
// mode; Aggregates is always set on success (and on interruption, for
// the runs that did complete).
type Execution struct {
	// Specs are the executed specs: the expanded matrix restricted to
	// Range (ModeCollect/ModeReduce), or the full expansion
	// (ModeCampaign, where Range restricts running, not folding).
	Specs []Spec
	// Results holds per-run results in spec order (ModeCollect only).
	Results []RunResult
	// Errs holds per-spec errors in spec order (ModeReduce only; nil
	// entries for successes).
	Errs []error
	// Aggregates are the scenario+scale group reductions.
	Aggregates []Aggregated
	// Campaign is the campaign state (ModeCampaign only), including
	// partial state when the run was interrupted.
	Campaign *CampaignResult
}

// Runner executes experiment matrices. The zero value is ready to
// use.
type Runner struct{}

// Execute runs one experiment described by opts and returns its
// Execution. On cooperative cancellation no further runs are
// dispatched and in-flight runs complete. Collect and reduce then mark
// every undispatched spec with ctx.Err() and return no error; a
// campaign returns its completed runs, aggregated, alongside ctx.Err().
func (Runner) Execute(ctx context.Context, opts RunSpecOpts) (*Execution, error) {
	ex, _, err := execute(ctx, opts)
	return ex, err
}

// execute is Execute that also reports the pool's peak count of
// finished-but-unfolded outcomes — reduce mode's retention, which the
// package's tests and benchmarks pin at ≤ Workers.
func execute(ctx context.Context, opts RunSpecOpts) (*Execution, int, error) {
	mode := opts.Mode
	switch mode {
	case "":
		mode = ModeCollect
	case ModeCollect, ModeReduce:
	case ModeCampaign:
		ex, err := executeCampaign(ctx, opts)
		return ex, 0, err
	default:
		return nil, 0, fmt.Errorf("experiment: unknown run mode %q", mode)
	}

	specs, err := opts.Matrix.Expand()
	if err != nil {
		return nil, 0, err
	}
	if err := opts.Range.validate(len(specs)); err != nil {
		return nil, 0, err
	}
	if opts.Range != nil {
		specs = specs[opts.Range.From:opts.Range.To]
	}

	// Both modes fold every outcome in spec order. Collect keeps each
	// RunResult; reduce drops the full Result on the worker and folds
	// the Summary straight into the group accumulators, so its window
	// holds at most Workers small summaries — O(groups + workers)
	// retention, not O(runs), which is what lets very large matrices
	// run in flat memory. Aggregates are bit-identical either way.
	ex := &Execution{Specs: specs}
	if mode == ModeCollect {
		ex.Results = make([]RunResult, len(specs))
	} else {
		ex.Errs = make([]error, len(specs))
	}
	var red reducer
	p := pool[RunResult]{
		workers: opts.Workers,
		window:  mode == ModeReduce,
		run: func(k int) RunResult {
			res, _, err := runCell(specs[k], opts.Metrics, nil)
			if err != nil {
				return RunResult{Spec: specs[k], Err: err}
			}
			r := RunResult{Spec: specs[k], Summary: Summarize(res)}
			if mode == ModeCollect {
				r.Result = res // reduce keeps only the Summary
			}
			return r
		},
		fold: func(k int, r RunResult) {
			red.add(r.Spec, r.Summary, r.Err)
			if mode == ModeCollect {
				ex.Results[k] = r
			} else {
				ex.Errs[k] = r.Err
			}
		},
	}
	sent, peak := p.execute(ctx, len(specs))
	// Undispatched specs were canceled: they carry ctx.Err() in spec
	// order and count in their group's Errors.
	for k := sent; k < len(specs); k++ {
		p.fold(k, RunResult{Spec: specs[k], Err: ctx.Err()})
	}
	ex.Aggregates = red.result()
	return ex, peak, nil
}

// executeCampaign is Execute's ModeCampaign arm: create-or-continue
// (Resume=false, Matrix authoritative and checked against any existing
// manifest) or resume (Resume=true, manifest authoritative).
func executeCampaign(ctx context.Context, opts RunSpecOpts) (*Execution, error) {
	if opts.CampaignDir == "" {
		return nil, fmt.Errorf("experiment: ModeCampaign requires CampaignDir")
	}
	var (
		res *CampaignResult
		err error
	)
	if opts.Resume {
		res, err = resumeCampaignDir(ctx, opts)
	} else {
		res, err = startCampaignDir(ctx, opts)
	}
	if res == nil {
		return nil, err
	}
	return &Execution{Specs: res.Specs, Aggregates: res.Aggregates, Campaign: res}, err
}
