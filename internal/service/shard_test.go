package service

import (
	"context"
	"errors"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/experiment"
)

// TestShardSpecValidation pins the grid jobs' validation rules: a
// registered sweep id (shard) or buildable, distinct candidates and a
// valid eval config (synth); point indexes unique and in range of the
// grid, with at least one for a shard; and no field bleed from the other
// kinds.
func TestShardSpecValidation(t *testing.T) {
	size := quickGridSize(t, "s1")
	cases := []struct {
		name string
		spec JobSpec
		want string // "" = valid
	}{
		{"valid", JobSpec{Kind: KindShard, Sweep: "s1", Quick: true, Points: []int{0, size - 1}}, ""},
		{"no sweep", JobSpec{Kind: KindShard, Points: []int{0}}, "needs a sweep id"},
		{"unknown sweep", JobSpec{Kind: KindShard, Sweep: "zz", Points: []int{0}}, "unknown sweep"},
		{"no points", JobSpec{Kind: KindShard, Sweep: "s1", Quick: true}, "at least one grid-point index"},
		{"out of range", JobSpec{Kind: KindShard, Sweep: "s1", Quick: true, Points: []int{size}}, "out of range"},
		{"negative", JobSpec{Kind: KindShard, Sweep: "s1", Quick: true, Points: []int{-1}}, "out of range"},
		{"duplicate", JobSpec{Kind: KindShard, Sweep: "s1", Quick: true, Points: []int{1, 1}}, "listed twice"},
		{"scenario bleed", JobSpec{Kind: KindShard, Sweep: "s1", Quick: true, Points: []int{0}, Trials: 3}, "scenario-only"},
		{"sweep with points", JobSpec{Kind: KindSweep, Sweep: "s1", Quick: true, Points: []int{0}}, "shard-only"},
		{"scenario with points", JobSpec{Kind: KindScenario, Scenario: "open", D: 8, N: 2, Trials: 1, Ell: 1,
			Algo: "non-uniform", Budget: 100, Points: []int{0}}, "sweep-only"},

		// Synth jobs: candidates, eval config, field bleed, point indexes
		// against the (candidate × distance) evaluation grid of size 4.
		{"synth valid", synthJob(nil), ""},
		{"synth valid points", synthJob(func(s *JobSpec) { s.Points = []int{3, 0} }), ""},
		{"synth no candidates", synthJob(func(s *JobSpec) { s.SynthSpecs = nil }), "at least one candidate"},
		{"synth duplicate candidate", synthJob(func(s *JobSpec) { s.SynthSpecs[1] = s.SynthSpecs[0] }), "listed twice"},
		{"synth unbuildable candidate", synthJob(func(s *JobSpec) { s.SynthSpecs[1] = unbuildableSynthCandidate }), "candidate 1"},
		{"synth invalid eval", synthJob(func(s *JobSpec) { s.SynthDs = []int64{2, 0} }), "must be positive"},
		{"synth sweep bleed", synthJob(func(s *JobSpec) { s.Sweep = "s1" }), "sweep-only"},
		{"synth quick bleed", synthJob(func(s *JobSpec) { s.Quick = true }), "sweep-only"},
		{"synth scenario bleed", synthJob(func(s *JobSpec) { s.Scenario = "open" }), "scenario-only"},
		{"synth out of range", synthJob(func(s *JobSpec) { s.Points = []int{4} }), "out of range"},
		{"synth negative", synthJob(func(s *JobSpec) { s.Points = []int{-1} }), "out of range"},
		{"synth duplicate point", synthJob(func(s *JobSpec) { s.Points = []int{2, 2} }), "listed twice"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// Two buildable candidates — a two-state diagonal drift and a four-state
// uniform random walk — and one whose edge names a state the machine does
// not have.
const (
	synthCandidateA           = `{"states":[{"name":"s0","label":"up"},{"name":"s1","label":"right"}],"start":"s0","edges":[{"from":"s0","to":"s1","p":1},{"from":"s1","to":"s0","p":1}]}`
	synthCandidateB           = `{"states":[{"name":"s0","label":"up"},{"name":"s1","label":"right"},{"name":"s2","label":"down"},{"name":"s3","label":"left"}],"start":"s0","edges":[{"from":"s0","to":"s0","p":0.25},{"from":"s0","to":"s1","p":0.25},{"from":"s0","to":"s2","p":0.25},{"from":"s0","to":"s3","p":0.25},{"from":"s1","to":"s0","p":0.25},{"from":"s1","to":"s1","p":0.25},{"from":"s1","to":"s2","p":0.25},{"from":"s1","to":"s3","p":0.25},{"from":"s2","to":"s0","p":0.25},{"from":"s2","to":"s1","p":0.25},{"from":"s2","to":"s2","p":0.25},{"from":"s2","to":"s3","p":0.25},{"from":"s3","to":"s0","p":0.25},{"from":"s3","to":"s1","p":0.25},{"from":"s3","to":"s2","p":0.25},{"from":"s3","to":"s3","p":0.25}]}`
	unbuildableSynthCandidate = `{"states":[{"name":"s0","label":"up"}],"start":"s0","edges":[{"from":"s0","to":"s9","p":1}]}`
)

// synthJob returns a fully explicit, valid synth spec over two
// candidates and two distances (a 4-point grid), edited by mod.
func synthJob(mod func(*JobSpec)) JobSpec {
	s := JobSpec{
		Kind:              KindSynth,
		SynthSpecs:        []string{synthCandidateA, synthCandidateB},
		SynthDs:           []int64{2, 4},
		SynthAgents:       4,
		Trials:            6,
		SynthBudgetFactor: 16,
		Seed:              9,
	}
	if mod != nil {
		mod(&s)
	}
	return s
}

// Regenerate the grid-job and scenario-job golden artifacts after a
// deliberate grid, kernel or artifact-layout change with:
//
//	go test ./internal/service -run 'JobArtifactsGolden' -update
var updateGolden = flag.Bool("update", false, "rewrite the golden artifacts under testdata/")

// goldenShardSpec and goldenSynthSpec are the grid jobs whose artifacts
// are pinned under testdata/: a shard job over two out-of-order points of
// the quick S1 grid, and a synth job over its whole evaluation grid.
func goldenShardSpec() JobSpec {
	return JobSpec{Kind: KindShard, Sweep: "s1", Quick: true, Seed: 9, Points: []int{2, 0}}
}

func goldenSynthSpec() JobSpec { return synthJob(nil) }

// elapsedField matches the per-point kernel timing of a shard artifact —
// the one field of it that is run metadata rather than a function of the
// spec. It is the last field of its object, so the match takes the
// separating comma with it.
var elapsedField = regexp.MustCompile(`,\n\s*"elapsed_sec": [^\n]*`)

// TestGridJobArtifactsGolden pins the JSON and CSV artifacts of one
// shard job and one synth job byte for byte, kernel timings aside, on a
// cold daemon cache — the wire format both grid kinds share.
func TestGridJobArtifactsGolden(t *testing.T) {
	svc, err := New(Config{Workers: 1, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	for name, spec := range map[string]JobSpec{"shard_s1": goldenShardSpec(), "synth_eval": goldenSynthSpec()} {
		job, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if final := waitTerminal(t, svc, job.ID); final.State != StateDone {
			t.Fatalf("%s job ended %s (%s)", name, final.State, final.Error)
		}
		for _, format := range []string{"json", "csv"} {
			got, err := svc.Artifact(job.ID, format)
			if err != nil {
				t.Fatal(err)
			}
			if format == "json" {
				got = elapsedField.ReplaceAll(got, nil)
			}
			checkGolden(t, name+"."+format, got)
		}
	}
}

// TestScenarioJobArtifactsGolden pins the JSON and CSV artifacts of two
// scenario jobs byte for byte on a cold daemon cache: the paper's open
// plane under the non-uniform algorithm, and a comma-bearing torus spec
// with crash faults under the random walk. Scenario artifacts carry no
// timing, so nothing is stripped.
func TestScenarioJobArtifactsGolden(t *testing.T) {
	svc, err := New(Config{Workers: 1, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	specs := map[string]JobSpec{
		"scenario_open": {Kind: KindScenario, Scenario: "open", Algo: "non-uniform", D: 16, N: 4, Trials: 6, Seed: 5},
		"scenario_torus_crash": {Kind: KindScenario, Scenario: "torus:crash=0.1,l=24", Algo: "random-walk",
			D: 3, N: 8, Trials: 4, Seed: 7},
	}
	for name, spec := range specs {
		job, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if final := waitTerminal(t, svc, job.ID); final.State != StateDone {
			t.Fatalf("%s job ended %s (%s)", name, final.State, final.Error)
		}
		for _, format := range []string{"json", "csv"} {
			got, err := svc.Artifact(job.ID, format)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, name+"."+format, got)
		}
	}
}

// checkGolden compares an artifact with testdata/<file>, rewriting the
// file first under -update.
func checkGolden(t *testing.T, file string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden artifact (regenerate with -update): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("artifact drifted from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

func quickGridSize(t *testing.T, id string) int {
	t.Helper()
	sp, err := experiment.LookupSweep(id)
	if err != nil {
		t.Fatal(err)
	}
	return sp.Grid(experiment.Config{Quick: true}).Size()
}

// TestShardJobMatchesFullSweepPoints runs a full sweep job and a shard job
// covering a subset of its grid, and requires the shard's per-point
// results to equal the full run's point for point — the merge-equality
// property distributed sweeps build on.
func TestShardJobMatchesFullSweepPoints(t *testing.T) {
	_, client := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()

	sp, err := experiment.LookupSweep("s1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiment.Config{Seed: 9, Quick: true, Workers: 1}
	_, rep, err := experiment.RunSweep(sp, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	idxs := []int{2, 0}
	job, err := client.Submit(ctx, JobSpec{Kind: KindShard, Sweep: "s1", Quick: true, Seed: 9, Points: idxs})
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("shard job state = %s (%s)", final.State, final.Error)
	}
	if final.Total != len(idxs) || final.Done != len(idxs) {
		t.Errorf("shard progress done=%d total=%d, want %d/%d", final.Done, final.Total, len(idxs), len(idxs))
	}
	data, err := client.Result(ctx, job.ID, "")
	if err != nil {
		t.Fatal(err)
	}
	art, err := ParseShardArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	if art.Sweep != "s1" || art.Grid != rep.Grid.Name || art.GridVersion != rep.Grid.Version ||
		art.Seed != 9 || art.Trials != rep.Grid.Trials {
		t.Errorf("shard artifact identity: %+v vs grid %+v", art, rep.Grid)
	}
	if len(art.Points) != len(idxs) {
		t.Fatalf("shard artifact has %d points, want %d", len(art.Points), len(idxs))
	}
	for i, idx := range idxs {
		got := art.Points[i]
		want := rep.Points[idx]
		if got.Index != idx || !reflect.DeepEqual(got.Params, want.Point.Params) {
			t.Errorf("point %d: index/params %d %v, want %d %v", i, got.Index, got.Params, idx, want.Point.Params)
		}
		g, w := *got.Result, *want.Result
		g.ElapsedSec, w.ElapsedSec = 0, 0
		if !reflect.DeepEqual(g, w) {
			t.Errorf("point %d result differs:\n%+v\nvs\n%+v", idx, g, w)
		}
	}

	// The CSV side is the summary table restricted to the shard's rows.
	csvB, err := client.Result(ctx, job.ID, "csv")
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(csvB), "\n"); lines != len(idxs)+1 {
		t.Errorf("shard CSV has %d lines, want header + %d rows", lines, len(idxs))
	}
}

// TestShardJobServesWarmCacheAsMetadata: a shard job on a daemon whose
// cache already holds the points reports every point as a cache hit — the
// worker ships metadata, it does not recompute.
func TestShardJobServesWarmCacheAsMetadata(t *testing.T) {
	cacheDir := t.TempDir()
	_, client := newTestServer(t, Config{Workers: 1, CacheDir: cacheDir})
	ctx := context.Background()

	warm, err := client.Submit(ctx, JobSpec{Kind: KindSweep, Sweep: "s1", Quick: true, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Wait(ctx, warm.ID); err != nil {
		t.Fatal(err)
	}

	size := quickGridSize(t, "s1")
	idxs := make([]int, size)
	for i := range idxs {
		idxs[i] = i
	}
	job, err := client.Submit(ctx, JobSpec{Kind: KindShard, Sweep: "s1", Quick: true, Seed: 4, Points: idxs})
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.CacheHits != size {
		t.Errorf("warm shard job cache hits = %d, want %d", final.CacheHits, size)
	}
	data, err := client.Result(ctx, job.ID, "")
	if err != nil {
		t.Fatal(err)
	}
	art, err := ParseShardArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range art.Points {
		if !p.Cached {
			t.Errorf("point %d not served from cache", p.Index)
		}
	}
}

// TestWaitSurfacesFailedJobError is the regression test for the Wait
// contract: a job that ends failed must yield a *JobFailedError carrying
// the terminal event's error message — the kernel's words, not a generic
// status line.
func TestWaitSurfacesFailedJobError(t *testing.T) {
	svc := newFakeService(t, nil, nil)
	const kernelMsg = "kernel exploded at point D=8 n=4: numerical goo"
	svc.execute = func(ctx context.Context, rec *record) ([]byte, []byte, error) {
		return nil, nil, errors.New(kernelMsg)
	}
	client := clientFor(t, svc)
	ctx := context.Background()

	job, err := client.Submit(ctx, scenarioSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.Wait(ctx, job.ID)
	if err == nil {
		t.Fatal("Wait returned nil error for a failed job")
	}
	var jfe *JobFailedError
	if !errors.As(err, &jfe) {
		t.Fatalf("Wait error = %T %v, want *JobFailedError", err, err)
	}
	if jfe.ID != job.ID || jfe.Message != kernelMsg {
		t.Errorf("JobFailedError = %+v, want id %s message %q", jfe, job.ID, kernelMsg)
	}
	if !strings.Contains(err.Error(), kernelMsg) {
		t.Errorf("Wait error %q does not carry the kernel message %q", err, kernelMsg)
	}
	if final.State != StateFailed {
		t.Errorf("final state = %s, want failed", final.State)
	}

	// Done and cancelled jobs keep the nil-error contract.
	svc.execute = func(ctx context.Context, rec *record) ([]byte, []byte, error) {
		return []byte("{}\n"), []byte("csv\n"), nil
	}
	ok, err := client.Submit(ctx, scenarioSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if final, err := client.Wait(ctx, ok.ID); err != nil || final.State != StateDone {
		t.Errorf("Wait on done job = %v state %s, want nil/done", err, final.State)
	}
}

// TestShardJobSharesSweepCache: a shard job populates the daemon cache so
// a subsequent full sweep job only computes the complement.
func TestShardJobSharesSweepCache(t *testing.T) {
	cacheDir := t.TempDir()
	_, client := newTestServer(t, Config{Workers: 1, CacheDir: cacheDir})
	ctx := context.Background()

	size := quickGridSize(t, "s1")
	if size < 2 {
		t.Skip("grid too small")
	}
	shard, err := client.Submit(ctx, JobSpec{Kind: KindShard, Sweep: "s1", Quick: true, Seed: 6, Points: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Wait(ctx, shard.ID); err != nil {
		t.Fatal(err)
	}
	full, err := client.Submit(ctx, JobSpec{Kind: KindSweep, Sweep: "s1", Quick: true, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.Wait(ctx, full.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.CacheHits != 2 {
		t.Errorf("full sweep after 2-point shard: cache hits = %d, want 2", final.CacheHits)
	}
}

// TestRunPointsUsedByShardRespectsContext: cancelling a running shard job
// ends it at a point boundary in the cancelled state.
func TestShardJobCancellation(t *testing.T) {
	_, client := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	size := quickGridSize(t, "s2")
	idxs := make([]int, size)
	for i := range idxs {
		idxs[i] = i
	}
	job, err := client.Submit(ctx, JobSpec{Kind: KindShard, Sweep: "s2", Quick: true, Seed: 3, Points: idxs})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = client.Cancel(ctx, job.ID) // may race completion; both ends are fine
	final, err := client.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCancelled && final.State != StateDone {
		t.Errorf("state after cancel = %s (%s)", final.State, final.Error)
	}
}

// clientFor exposes an in-package Service over HTTP for client-level
// tests that need a doctored executor.
func clientFor(t *testing.T, svc *Service) *Client {
	t.Helper()
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	return NewClient(srv.URL)
}
