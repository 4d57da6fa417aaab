package cluster

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/service"
	"repro/internal/synth"
)

// synthTestConfig is a tiny two-budget search, small enough to fan out
// over in-process workers in test time.
func synthTestConfig(seed uint64) synth.Config {
	return synth.Config{
		MinStates:   2,
		MaxStates:   3,
		Generations: 2,
		Population:  3,
		Seed:        seed,
		Eval:        synth.EvalConfig{Ds: []int64{4}, Agents: 2, Trials: 3, BudgetFactor: 2},
	}
}

// TestSynthFleetMatchesLocalSearch is the fleet half of the synthesis
// determinism contract: a search whose candidate batches are dispatched
// across a worker fleet replays the exact trajectory of a local search —
// the result artifact is byte-identical.
func TestSynthFleetMatchesLocalSearch(t *testing.T) {
	cfg := synthTestConfig(17)

	local := &synth.LocalEvaluator{Eval: cfg.Eval, Seed: cfg.Seed, Shards: 1}
	lres, err := synth.Search(context.Background(), cfg, local)
	if err != nil {
		t.Fatal(err)
	}
	want, err := lres.JSON()
	if err != nil {
		t.Fatal(err)
	}

	ws := startFleet(t, 2)
	c, err := New(Config{Workers: fleetURLs(ws), CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	fleet := &SynthEvaluator{Cluster: c, Eval: cfg.Eval, Seed: cfg.Seed}
	fres, err := synth.Search(context.Background(), cfg, fleet)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fres.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("fleet search differs from local search:\n%s\nvs\n%s", got, want)
	}
	st := fleet.Stats()
	if st.Shards == 0 {
		t.Error("fleet search dispatched zero shards")
	}
	if kernels := local.KernelCalls(); int64(st.Shipped+st.LocalHits+st.RemoteHits) < kernels {
		t.Errorf("fleet accounted for %d points, local executed %d kernels",
			st.Shipped+st.LocalHits+st.RemoteHits, kernels)
	}
}

// TestSynthEvaluatorValidation pins the batch error cases: an invalid
// eval config and an unbuildable candidate are rejected before any
// worker sees a job.
func TestSynthEvaluatorValidation(t *testing.T) {
	ws := startFleet(t, 1)
	c, err := New(Config{Workers: fleetURLs(ws)})
	if err != nil {
		t.Fatal(err)
	}
	buildable := `{"states":[{"name":"s0","label":"up"}],"start":"s0","edges":[{"from":"s0","to":"s0","p":1}]}`
	unbuildable := `{"states":[{"name":"s0","label":"up"}],"start":"s0","edges":[{"from":"s0","to":"s9","p":1}]}`
	valid := synthTestConfig(1).Eval
	cases := []struct {
		name  string
		eval  synth.EvalConfig
		specs []string
		want  string
	}{
		{"empty eval config", synth.EvalConfig{}, []string{buildable}, "eval config"},
		{"unbuildable candidate", valid, []string{buildable, unbuildable}, "candidate 1"},
	}
	for _, tc := range cases {
		e := &SynthEvaluator{Cluster: c, Eval: tc.eval, Seed: 1}
		_, err := e.Evaluate(context.Background(), tc.specs)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Evaluate = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	if jobs := ws[0].svc.Jobs(); len(jobs) != 0 {
		t.Errorf("worker received %d jobs for rejected batches, want 0", len(jobs))
	}
}

// TestSynthJobOnWorker runs one KindSynth job end-to-end against a real
// in-process worker daemon through the service client, checking the job
// reaches done with the grid fully evaluated.
func TestSynthJobOnWorker(t *testing.T) {
	w := startWorker(t, service.Config{CacheDir: t.TempDir()}, nil)
	client := service.NewClient(w.srv.URL)
	spec := `{"states":[{"name":"s0","label":"up"},{"name":"s1","label":"right"}],"start":"s0","edges":[{"from":"s0","to":"s1","p":1},{"from":"s1","to":"s0","p":1}]}`
	job, err := client.Submit(context.Background(), service.JobSpec{
		Kind:       service.KindSynth,
		SynthSpecs: []string{spec},
		SynthDs:    []int64{4},
		Trials:     3,
		Seed:       9,
	})
	if err != nil {
		t.Fatal(err)
	}
	done, err := client.Wait(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != service.StateDone {
		t.Fatalf("synth job ended in state %q", done.State)
	}
	if done.Done != 1 || done.Total != 1 {
		t.Errorf("synth job evaluated %d/%d points, want 1/1 (one candidate × one distance)", done.Done, done.Total)
	}
}
