package experiment

import (
	"context"
	"reflect"
	"testing"
)

// TestRunnerModesAgree pins one matrix to identical aggregates in all
// three modes: collect, reduce-as-you-go, and a journaled campaign.
func TestRunnerModesAgree(t *testing.T) {
	m := Matrix{Scenarios: []string{"day"}, Seeds: []int64{1, 2}, Scales: []float64{0.1}}
	ctx := context.Background()
	col, err := Runner{}.Execute(ctx, RunSpecOpts{Mode: ModeCollect, Matrix: m, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range col.Results {
		if r.Err != nil {
			t.Fatalf("run %d: %v", i, r.Err)
		}
	}
	red, err := Runner{}.Execute(ctx, RunSpecOpts{Mode: ModeReduce, Matrix: m, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(red.Aggregates, col.Aggregates) {
		t.Fatal("reduce and collect aggregates diverge")
	}
	camp, err := Runner{}.Execute(ctx, RunSpecOpts{Mode: ModeCampaign, Matrix: m, Workers: 2, CampaignDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(camp.Aggregates, col.Aggregates) {
		t.Fatal("campaign and collect aggregates diverge")
	}
}

// TestRunnerRange: a range-restricted Execute runs exactly the
// sub-slice of the expanded matrix, with the same per-run summaries.
func TestRunnerRange(t *testing.T) {
	m := Matrix{Scenarios: []string{"day"}, Seeds: []int64{1, 2, 3}, Scales: []float64{0.1}}
	full, err := Runner{}.Execute(context.Background(), RunSpecOpts{Mode: ModeCollect, Matrix: m, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	part, err := Runner{}.Execute(context.Background(), RunSpecOpts{
		Mode: ModeCollect, Matrix: m, Workers: 2, Range: &SpecRange{From: 1, To: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Results) != 2 {
		t.Fatalf("range [1,3) ran %d specs, want 2", len(part.Results))
	}
	for i, r := range part.Results {
		if r.Summary != full.Results[i+1].Summary {
			t.Fatalf("range result %d != full result %d", i, i+1)
		}
	}

	for _, bad := range []SpecRange{{From: -1, To: 1}, {From: 0, To: 4}, {From: 2, To: 2}} {
		if _, err := (Runner{}).Execute(context.Background(), RunSpecOpts{Matrix: m, Range: &bad}); err == nil {
			t.Errorf("range %+v accepted for 3 specs", bad)
		}
	}
}

// TestRunnerRejections pins Execute's input validation.
func TestRunnerRejections(t *testing.T) {
	m := Matrix{Scenarios: []string{"day"}, Seeds: []int64{1}, Scales: []float64{0.1}}
	ctx := context.Background()
	if _, err := (Runner{}).Execute(ctx, RunSpecOpts{Mode: "bogus", Matrix: m}); err == nil {
		t.Error("unknown mode accepted")
	}
	if _, err := (Runner{}).Execute(ctx, RunSpecOpts{Mode: ModeCampaign, Matrix: m}); err == nil {
		t.Error("ModeCampaign without CampaignDir accepted")
	}
}
