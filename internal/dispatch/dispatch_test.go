package dispatch_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wlan80211/internal/dispatch"
	"wlan80211/internal/experiment"
)

func testMatrix() experiment.Matrix {
	return experiment.Matrix{
		Scenarios: []string{"day"},
		Seeds:     []int64{1, 2, 3},
		Scales:    []float64{0.1},
	}
}

// referenceReport runs the matrix as a single-process campaign and
// returns the report bytes exactly as `wlansweep -campaign -json`
// writes them.
func referenceReport(t *testing.T, m experiment.Matrix) []byte {
	t.Helper()
	dir := t.TempDir()
	ex, err := experiment.Runner{}.Execute(context.Background(), experiment.RunSpecOpts{
		Mode: experiment.ModeCampaign, Matrix: m, Workers: 2, CampaignDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	man, err := experiment.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(ex.Campaign.Report(man), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// TestDistributedReportMatchesSingleProcess is the tentpole
// acceptance check in-process: two workers drain the shard queue over
// real HTTP and the coordinator's folded report is byte-identical to
// a single-process campaign over the same matrix.
func TestDistributedReportMatchesSingleProcess(t *testing.T) {
	m := testMatrix()
	want := referenceReport(t, m)

	co, err := dispatch.New(dispatch.Config{
		Dir: t.TempDir(), Matrix: m, ShardSize: 1,
		LeaseTTL: 10 * time.Second, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(dispatch.NewServer(co))
	defer srv.Close()

	ctx := context.Background()
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w := &dispatch.Worker{
			Coordinator: srv.URL, Dir: t.TempDir(),
			Name: fmt.Sprintf("w%d", i), Workers: 1, Logf: t.Logf,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- w.Run(ctx)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	got, ok := co.Report()
	if !ok {
		t.Fatal("campaign not done after both workers exited")
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("distributed report differs from single-process reference:\n--- distributed ---\n%s\n--- reference ---\n%s", got, want)
	}

	// The HTTP report is the same bytes verbatim.
	resp, err := http.Get(srv.URL + "/api/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("GET /api/v1/report differs from the reference report")
	}
}

// fakeRecord fabricates an identity-valid record for lease-protocol
// tests that never run real simulations.
func fakeRecord(t *testing.T, m experiment.Matrix, i int, hash string) experiment.RunRecord {
	t.Helper()
	specs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	sp := specs[i]
	return experiment.RunRecord{Index: i, Name: sp.Name, Seed: sp.Seed, Scale: sp.Scale, TraceHash: hash}
}

// TestLeaseExpiryReassignsShard drives the lease lifecycle with an
// injected clock: an expired lease's shard is reclaimable, its
// heartbeat 410s, and its late upload still counts while the shard is
// pending.
func TestLeaseExpiryReassignsShard(t *testing.T) {
	m := testMatrix()
	cur := time.Unix(1000, 0)
	co, err := dispatch.New(dispatch.Config{
		Dir: t.TempDir(), Matrix: m, ShardSize: 1,
		LeaseTTL: 10 * time.Second,
		Now:      func() time.Time { return cur },
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	first := co.Claim("w1")
	if first.Lease == nil {
		t.Fatalf("claim returned no lease: %+v", first)
	}
	if _, err := co.Heartbeat(first.Lease.ID); err != nil {
		t.Fatalf("heartbeat on live lease: %v", err)
	}

	// Lease out the remaining shards; the queue must then say wait.
	co.Claim("w1")
	co.Claim("w1")
	if r := co.Claim("w2"); !r.Wait || r.RetryMS <= 0 {
		t.Fatalf("all shards leased, want wait+retry, got %+v", r)
	}

	cur = cur.Add(11 * time.Second) // past every TTL
	second := co.Claim("w2")
	if second.Lease == nil || second.Lease.Shard != first.Lease.Shard {
		t.Fatalf("expired shard not reassigned first: %+v", second)
	}
	if _, err := co.Heartbeat(first.Lease.ID); err != dispatch.ErrLeaseGone {
		t.Fatalf("heartbeat on expired lease: want ErrLeaseGone, got %v", err)
	}

	// The dead worker's upload arrives anyway — accepted while the
	// shard is pending, and the duplicate from the new lease dedups.
	rec := fakeRecord(t, m, first.Lease.From, "aaaa")
	up, err := co.Upload(dispatch.UploadRequest{Lease: first.Lease.ID, Shard: first.Lease.Shard, Records: []experiment.RunRecord{rec}})
	if err != nil {
		t.Fatalf("upload from expired lease: %v", err)
	}
	if up.Accepted != 1 || !up.ShardDone {
		t.Fatalf("upload from expired lease: %+v", up)
	}
	dup, err := co.Upload(dispatch.UploadRequest{Lease: second.Lease.ID, Shard: second.Lease.Shard, Records: []experiment.RunRecord{rec}})
	if err != nil {
		t.Fatalf("duplicate upload: %v", err)
	}
	if dup.Accepted != 0 || !dup.ShardDone {
		t.Fatalf("duplicate upload should dedup to 0 accepted: %+v", dup)
	}
}

// TestUploadConflictRejected pins the determinism guardrail: two
// records for one spec index that disagree are corruption, not a
// race, and must fail the upload.
func TestUploadConflictRejected(t *testing.T) {
	m := testMatrix()
	co, err := dispatch.New(dispatch.Config{Dir: t.TempDir(), Matrix: m, ShardSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	a := fakeRecord(t, m, 0, "aaaa")
	b := fakeRecord(t, m, 0, "bbbb")
	if _, err := co.Upload(dispatch.UploadRequest{Shard: 0, Records: []experiment.RunRecord{a}}); err != nil {
		t.Fatal(err)
	}
	if _, err := co.Upload(dispatch.UploadRequest{Shard: 0, Records: []experiment.RunRecord{b}}); err == nil || !strings.Contains(err.Error(), "conflicting") {
		t.Fatalf("conflicting record accepted: %v", err)
	}
	// Out-of-range and wrong-shard records are rejected too.
	out := fakeRecord(t, m, 2, "cccc")
	out.Index = 99
	out.Name = "day"
	if _, err := co.Upload(dispatch.UploadRequest{Shard: 0, Records: []experiment.RunRecord{out}}); err == nil {
		t.Fatal("out-of-range record accepted")
	}
}

// TestCoordinatorResume restarts the coordinator mid-campaign and
// after completion: persisted shards reload, and a finished directory
// comes back already done with the identical report bytes.
func TestCoordinatorResume(t *testing.T) {
	m := testMatrix()
	dir := t.TempDir()
	cfg := dispatch.Config{Dir: dir, Matrix: m, ShardSize: 1, Logf: t.Logf}
	co, err := dispatch.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.Upload(dispatch.UploadRequest{Shard: 0, Records: []experiment.RunRecord{fakeRecord(t, m, 0, "aaaa")}}); err != nil {
		t.Fatal(err)
	}

	// Restart mid-campaign — resume without matrix flags.
	co2, err := dispatch.New(dispatch.Config{Dir: dir, ShardSize: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if st := co2.Status(); st.ShardsDone != 1 || st.RunsDone != 1 || st.Done {
		t.Fatalf("resumed status: %+v", st)
	}
	for i := 1; i < 3; i++ {
		if _, err := co2.Upload(dispatch.UploadRequest{Shard: i, Records: []experiment.RunRecord{fakeRecord(t, m, i, "hh")}}); err != nil {
			t.Fatal(err)
		}
	}
	rep, ok := co2.Report()
	if !ok {
		t.Fatal("campaign not done after all shards uploaded")
	}

	// Restart after completion: already finalized, same bytes.
	co3, err := dispatch.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep3, ok := co3.Report()
	if !ok {
		t.Fatal("finished campaign not done after restart")
	}
	if !bytes.Equal(rep, rep3) {
		t.Fatal("report changed across coordinator restart")
	}
	select {
	case <-co3.Done():
	default:
		t.Fatal("Done channel not closed on already-finished campaign")
	}

	// A conflicting matrix cannot hijack the directory.
	bad := m
	bad.Seeds = []int64{9}
	if _, err := dispatch.New(dispatch.Config{Dir: dir, Matrix: bad}); err == nil {
		t.Fatal("different matrix accepted into existing coordinator dir")
	}
}

// TestAPIContract pins the /api/v1 route set and its error statuses.
func TestAPIContract(t *testing.T) {
	m := testMatrix()
	co, err := dispatch.New(dispatch.Config{Dir: t.TempDir(), Matrix: m, ShardSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(dispatch.NewServer(co))
	defer srv.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}

	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("GET /healthz = %d", got)
	}
	if got := get("/api/v1/campaign"); got != http.StatusOK {
		t.Errorf("GET /api/v1/campaign = %d", got)
	}
	if got := get("/api/v1/status"); got != http.StatusOK {
		t.Errorf("GET /api/v1/status = %d", got)
	}
	if got := get("/api/v1/report"); got != http.StatusNotFound {
		t.Errorf("GET /api/v1/report before completion = %d, want 404", got)
	}
	if got, body := post("/api/v1/leases/claim", `{"worker":"t"}`); got != http.StatusOK || !strings.Contains(body, `"lease"`) {
		t.Errorf("POST claim = %d %s", got, body)
	}
	if got, _ := post("/api/v1/leases/claim", `{bad json`); got != http.StatusBadRequest {
		t.Errorf("POST claim with bad JSON = %d, want 400", got)
	}
	if got, _ := post("/api/v1/leases/nope/heartbeat", `{}`); got != http.StatusGone {
		t.Errorf("POST heartbeat on unknown lease = %d, want 410", got)
	}
	if got, _ := post("/api/v1/leases/x/journal", `{"shard":99,"records":[]}`); got != http.StatusBadRequest {
		t.Errorf("POST journal with bad shard = %d, want 400", got)
	}
	// Conflicting uploads surface as 409.
	rec := fakeRecord(t, m, 0, "aaaa")
	recJSON, _ := json.Marshal(dispatch.UploadRequest{Shard: 0, Records: []experiment.RunRecord{rec}})
	if got, _ := post("/api/v1/leases/x/journal", string(recJSON)); got != http.StatusOK {
		t.Errorf("POST journal = %d, want 200", got)
	}
	rec.TraceHash = "bbbb"
	recJSON, _ = json.Marshal(dispatch.UploadRequest{Shard: 0, Records: []experiment.RunRecord{rec}})
	if got, _ := post("/api/v1/leases/x/journal", string(recJSON)); got != http.StatusConflict {
		t.Errorf("POST conflicting journal = %d, want 409", got)
	}
	// Method mismatches 405 under Go 1.22+ pattern routing.
	if got, _ := post("/api/v1/campaign", `{}`); got != http.StatusMethodNotAllowed {
		t.Errorf("POST /api/v1/campaign = %d, want 405", got)
	}
}
