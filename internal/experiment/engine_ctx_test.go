package experiment

import (
	"context"
	"errors"
	"testing"
)

// fakeHook, when set, is called inside every "fake" run's Stream with
// the run's seed. The "fake" scenario emits nothing — enough to
// exercise the executor's dispatch logic without simulator cost.
var fakeHook func(seed int64)

func init() {
	Register("fake", func(seed int64, scale float64) Scenario { return fakeScenario{seed} })
}

type fakeScenario struct{ seed int64 }

func (fakeScenario) Name() string          { return "fake" }
func (fakeScenario) Params() []Param       { return nil }
func (f fakeScenario) Build() (Run, error) { return fakeRun(f), nil }

type fakeRun struct{ seed int64 }

func (f fakeRun) Stream(sink Sink) error {
	if fakeHook != nil {
		fakeHook(f.seed)
	}
	return nil
}

// fakeMatrix is n "fake" runs with seeds 1..n.
func fakeMatrix(n int) Matrix {
	m := Matrix{Scenarios: []string{"fake"}, Scales: []float64{1}}
	for s := 1; s <= n; s++ {
		m.Seeds = append(m.Seeds, int64(s))
	}
	return m
}

// cancelInFirstRun arms fakeHook to cancel from inside the seed-1 run
// (the first spec) for the rest of the test.
func cancelInFirstRun(t *testing.T, cancel context.CancelFunc) {
	fakeHook = func(seed int64) {
		if seed == 1 {
			cancel()
		}
	}
	t.Cleanup(func() { fakeHook = nil })
}

// TestRunContextCancel cancels the context from inside the first run:
// the first run completes, every undispatched spec comes back with
// ctx.Err(), and the canceled specs form a suffix (cancellation stops
// dispatch, it never abandons in-flight work).
func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelInFirstRun(t, cancel)
	ex, err := Runner{}.Execute(ctx, RunSpecOpts{Mode: ModeCollect, Matrix: fakeMatrix(6), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	results := ex.Results

	if results[0].Err != nil {
		t.Fatalf("first (in-flight) run failed: %v", results[0].Err)
	}
	canceled := 0
	for i, r := range results {
		if errors.Is(r.Err, context.Canceled) {
			canceled++
		} else if canceled > 0 {
			t.Fatalf("spec %d completed after a canceled spec: cancellation must be a suffix", i)
		}
	}
	// The executor waits for the one worker to come free before it
	// checks ctx, so the cancel inside the first run stops every later
	// spec — deterministically, not most of the time.
	if canceled != len(results)-1 {
		t.Fatalf("%d specs canceled of %d, want %d", canceled, len(results), len(results)-1)
	}
}

// TestReduceContextCancel mirrors TestRunContextCancel on the
// reduce-as-you-go path: canceled specs land in the error slice and
// count in Aggregated.Errors, completed runs still fold.
func TestReduceContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelInFirstRun(t, cancel)
	ex, err := Runner{}.Execute(ctx, RunSpecOpts{Mode: ModeReduce, Matrix: fakeMatrix(6), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	aggs, errs := ex.Aggregates, ex.Errs

	if len(aggs) != 1 {
		t.Fatalf("%d aggregate groups, want 1", len(aggs))
	}
	canceled := 0
	for i, err := range errs {
		if errors.Is(err, context.Canceled) {
			canceled++
		} else if err != nil {
			t.Fatalf("spec %d: unexpected error %v", i, err)
		} else if canceled > 0 {
			t.Fatalf("spec %d completed after a canceled spec", i)
		}
	}
	if canceled != len(errs)-1 {
		t.Fatalf("%d specs canceled of %d, want %d", canceled, len(errs), len(errs)-1)
	}
	if aggs[0].Errors != canceled {
		t.Fatalf("Aggregated.Errors = %d, canceled specs = %d", aggs[0].Errors, canceled)
	}
	if aggs[0].Runs != len(errs)-canceled {
		t.Fatalf("Aggregated.Runs = %d, want %d", aggs[0].Runs, len(errs)-canceled)
	}
}

// TestRunContextUncanceled pins that the context path is transparent
// when the context never fires.
func TestRunContextUncanceled(t *testing.T) {
	m := fakeMatrix(4)
	ex, err := Runner{}.Execute(context.Background(), RunSpecOpts{Mode: ModeCollect, Matrix: m, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ex.Results {
		if r.Err != nil {
			t.Fatalf("run failed: %v", r.Err)
		}
	}
	ex, err = Runner{}.Execute(context.Background(), RunSpecOpts{Mode: ModeReduce, Matrix: m, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range ex.Errs {
		if err != nil {
			t.Fatalf("reduce run failed: %v", err)
		}
	}
	if aggs := ex.Aggregates; aggs[0].Runs != 4 || aggs[0].Errors != 0 {
		t.Fatalf("aggregate runs=%d errors=%d, want 4/0", aggs[0].Runs, aggs[0].Errors)
	}
}
