package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
)

func TestRankRule(t *testing.T) {
	for _, c := range []struct {
		q              float64
		n, idx, beyond int
	}{
		{0.5, 10, 4, 5},
		{0.5, 11, 5, 5},
		{0.9, 100, 89, 10},
		{0.9, 110, 98, 11},
		{0.9, 1, 0, 0},
	} {
		idx, beyond := rank(c.q, c.n)
		if idx != c.idx || beyond != c.beyond {
			t.Errorf("rank(%g, %d) = %d, %d; want %d, %d", c.q, c.n, idx, beyond, c.idx, c.beyond)
		}
	}
}

func TestLatencyPercentile(t *testing.T) {
	lat := make([]float64, 110)
	for i := range lat {
		lat[i] = float64(110 - i) // 1..110, reversed
	}
	p, err := latencyPercentile(lat, 0.9, 10)
	if err != nil {
		t.Fatal(err)
	}
	if p.Value != 99 || p.Below != 98 || p.Above != 100 || p.Beyond != 11 || p.N != 110 {
		t.Errorf("p90 = %+v", p)
	}
	if _, err := latencyPercentile(lat[:100], 0.95, 10); err == nil {
		t.Error("p95 of 100 samples has 5 beyond it, want a refusal")
	}
	// Failed ops are +Inf: they count as missing every latency.
	for i := 0; i < 12; i++ {
		lat[i] = math.Inf(1)
	}
	if _, err := latencyPercentile(lat, 0.9, 10); err == nil {
		t.Error("p90 on a failed op accepted")
	}
	if p, err := latencyPercentile(lat, 0.5, 10); err != nil || p.Value != 55 {
		t.Errorf("p50 with 12 failures = %v, %v; want 55", p.Value, err)
	}
}

// TestQuartilesMatchPython pins the quartile rule to Python's
// statistics.quantiles(xs, n=4) ("exclusive" method).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 4}, [3]float64{1, 4, 10}},
		{[]float64{3, 1, 2, 4, 5}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps span 2: counted once
		{ID: 4, Parent: 1, Start: 80, End: 120}, // clipped to the parent
		{ID: 5, Parent: 2, Start: 12, End: 18},  // a grandchild covers only its parent
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 40, 2: 14, 3: 30, 4: 40, 5: 6}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
}

func TestTracerNilIsFree(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", "", 0)
	tr.end(id, 1)
	if id != 0 || tr.closed() != nil {
		t.Error("nil tracer recorded a span")
	}
	tr = newTracer()
	id = tr.begin("x", "y", 0)
	child := tr.begin("z", "", id)
	tr.end(child, 3)
	tr.end(id, 1)
	got := tr.closed()
	if len(got) != 2 || got[1].Parent != id || got[1].N != 3 || got[0].Tag != "y" {
		t.Errorf("spans = %+v", got)
	}
}

// TestPlansAreSeedFunctions checks that one seed always gives the same op
// list and job mix, and another seed a different one.
func TestPlansAreSeedFunctions(t *testing.T) {
	for _, w := range workloads {
		a, b := w.plan(7, 300), w.plan(7, 300)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two op lists", w.name)
		}
		if reflect.DeepEqual(a, w.plan(8, 300)) {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", w.name)
		}
		for i, o := range a {
			if o.ID != i {
				t.Fatalf("%s: op %d has id %d", w.name, i, o.ID)
			}
		}
		kinds := map[string]bool{}
		for _, o := range a {
			kinds[o.Kind] = true
		}
		if warm := warmOps(w, 7); len(warm) != len(kinds) {
			t.Errorf("%s: warm-up covers %d kinds, the plan has %d", w.name, len(warm), len(kinds))
		}
		if top := topUpOps(w, 7); len(oneOfEachKind(top)) != len(kinds) {
			t.Errorf("%s: top-up misses a kind", w.name)
		}
		if n := opCount(w, 1); n < minOps {
			t.Errorf("%s: %d ops at 1 s, want at least %d", w.name, n, minOps)
		}
	}
}

func TestFleetMix(t *testing.T) {
	ops := fleetPlan(3, 900)
	count := map[string]int{}
	presets := map[string]bool{}
	for _, o := range ops {
		count[o.Kind]++
		if o.Kind == "scenario" {
			presets[o.Arg] = true
		}
	}
	if count["hit"] != 540 || count["cold"] != 252 || count["synth"] != 18 || count["scenario"] != 90 {
		t.Errorf("job mix = %v", count)
	}
	for _, name := range scenario.Names() {
		if !presets[name] {
			t.Errorf("preset %s never submitted", name)
		}
	}
	if !presets["adaptive-crash"] {
		t.Error("adaptive-crash left out of the mix")
	}
}

func TestSwarmCheck(t *testing.T) {
	curve := op{Kind: "curve-dense"}
	if err := checkSwarmOutput(curve, "r=1000 counts=5,9,9"); err != nil {
		t.Errorf("good curve rejected: %v", err)
	}
	for _, bad := range []string{"r=1000 counts=5,4,9", "r=1000 counts=5,9,4004002", "r=1000 counts=5,9"} {
		if checkSwarmOutput(curve, bad) == nil {
			t.Errorf("bad curve %q accepted", bad)
		}
	}
	cov := op{Kind: "cov-drift-2"}
	if err := checkSwarmOutput(cov, "d=4 cells=81 frac=1.000000000 found=false target=(0,0)"); err != nil {
		t.Errorf("good coverage rejected: %v", err)
	}
	if checkSwarmOutput(cov, "d=4 cells=82 frac=1.000000000 found=false target=(0,0)") == nil {
		t.Error("coverage beyond the ball accepted")
	}
}

// TestPlantedCSVMismatchFailsRun runs a short fleet-jobs op list with one
// fetched sweep CSV altered: the check must flag it and the run must
// print correct=false and exit non-zero.
func TestPlantedCSVMismatchFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("starts an in-process fleet")
	}
	spec := *fleetJobs
	planted := false
	spec.open = func(ctx context.Context, dir string, seed uint64, traced bool) (workload, error) {
		w, err := openFleet(ctx, dir, seed, traced)
		if err != nil {
			return nil, err
		}
		w.(*fleet).tamper = func(b []byte) []byte {
			if planted {
				return b
			}
			planted = true
			return bytes.Replace(b, []byte(","), []byte(";"), 1)
		}
		return w, nil
	}
	var ops []op
	for _, o := range fleetPlan(5, minOps) {
		if o.Kind == "hit" && len(ops) < 6 {
			o.ID = len(ops)
			ops = append(ops, o)
		}
	}
	res, err := measure(context.Background(), &spec, 5, ops, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mismatches) == 0 {
		t.Fatal("planted CSV mismatch not detected")
	}
	var out bytes.Buffer
	code, err := emit(&out, &record{Metrics: map[string]metric{}, Mismatches: res.Mismatches}, res)
	if code == 0 || err == nil {
		t.Errorf("emit = %d, %v; want a non-zero exit", code, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || last.Correct {
		t.Errorf("last line %q: correct must be false (%v)", lines[len(lines)-1], err)
	}
}

// TestTracedLayers runs every workload's traced top-up list and checks it
// reports each of the workload's per-layer metrics.
func TestTracedLayers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	units := benchmarkUnits(t)
	for _, w := range workloads {
		res, err := measure(context.Background(), w, 9, topUpOps(w, 9), true, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(res.Mismatches) > 0 {
			t.Errorf("%s: mismatches %v", w.name, res.Mismatches)
		}
		want := append([]string{"runtime.alloc_kb_per_op", "runtime.gc_per_op"}, w.layers...)
		for _, name := range want {
			if _, ok := res.Layers[name]; !ok {
				t.Errorf("%s: no %s", w.name, name)
			}
		}
		for name, m := range res.Layers {
			if m.Unit != units[name] {
				t.Errorf("%s: %s in %q, BENCHMARK.json says %q", w.name, name, m.Unit, units[name])
			}
		}
	}
}

// benchmarkUnits reads each metric's unit from BENCHMARK.json.
func benchmarkUnits(t *testing.T) map[string]string {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for _, m := range append(b.EndToEnd, b.PerLayer...) {
		units[m.Name] = m.Unit
	}
	return units
}

// TestOpsPerSecIsBatchMedian checks that ops_per_s is the median batch
// throughput: one stalled op slows its own batch only.
func TestOpsPerSecIsBatchMedian(t *testing.T) {
	c := &childResult{Ops: 100, OpMs: make([]float64, 100), OpStartMs: make([]float64, 100)}
	at := 0.0
	for i := range c.OpMs {
		c.OpMs[i] = 10
		if i == 42 {
			c.OpMs[i] = 1000
		}
		c.OpStartMs[i] = at
		at += c.OpMs[i]
	}
	c.WallSec = at / 1000
	if got := c.opsPerSec(); got != 100 {
		t.Errorf("ops_per_s = %g, want the unstalled batches' 100", got)
	}
	// Two overlapping clients: a batch's window runs from its first start
	// to its last end, not the sum of its latencies.
	for i := range c.OpMs {
		c.OpMs[i] = 20
		c.OpStartMs[i] = float64(i/2) * 20
	}
	if got := c.opsPerSec(); got != 100 {
		t.Errorf("two clients: ops_per_s = %g, want 100", got)
	}
}

func TestEndToEndUnits(t *testing.T) {
	units := benchmarkUnits(t)
	c := &childResult{Ops: 120, WallSec: 2, PeakRSSMB: 10, OpMs: make([]float64, 120), OpStartMs: make([]float64, 120)}
	for i := range c.OpMs {
		c.OpMs[i] = float64(i + 1)
		c.OpStartMs[i] = float64(i * 1000)
	}
	rec := record{SetupSamples: []float64{0.2, 0.3, 0.1}, Metrics: map[string]metric{}}
	if err := endToEnd(&rec, c); err != nil {
		t.Fatal(err)
	}
	if err := checkMetricSet(rec.Metrics, 0); err != nil {
		t.Fatal(err)
	}
	for name, m := range rec.Metrics {
		if m.Unit != units[name] {
			t.Errorf("%s in %q, BENCHMARK.json says %q", name, m.Unit, units[name])
		}
	}
	if rec.Metrics["op_p90_ms"].Value != 108 || rec.Metrics["setup_s"].Value != 0.2 || rec.Metrics["ops_per_s"].Value != c.opsPerSec() {
		t.Errorf("metrics = %v", rec.Metrics)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json, the metric names the
// code reports and the successor map in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	if got := names(b.Workloads); !reflect.DeepEqual(got, workloadNames()) {
		t.Errorf("workloads %v, code has %v", got, workloadNames())
	}
	if got := names(b.EndToEnd); !reflect.DeepEqual(got, endToEndNames) {
		t.Errorf("end_to_end %v, code reports %v", got, endToEndNames)
	}
	if got := names(b.PerLayer); !reflect.DeepEqual(got, perLayerNames()) {
		t.Errorf("per_layer %v, code reports %v", got, perLayerNames())
	}
	data, err = os.ReadFile("successors.json")
	if err != nil {
		t.Fatal(err)
	}
	var s struct {
		Successors map[string]struct{ Metric, Workload string }
	}
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	all := append(names(b.EndToEnd), names(b.PerLayer)...)
	for _, k := range []string{"compiled_next", "walker_step", "dense_walker_step", "sparse_world_step", "e6_coverage", "s1_coverage_curve"} {
		succ, ok := s.Successors[k]
		if !ok {
			t.Errorf("legacy kernel %s has no successor", k)
			continue
		}
		if !slices.Contains(all, succ.Metric) {
			t.Errorf("%s -> %s: no such metric", k, succ.Metric)
		}
		if _, ok := lookup(succ.Workload); !ok {
			t.Errorf("%s -> workload %s: no such workload", k, succ.Workload)
		}
	}
}

func TestReportFlagsHostsAndDigests(t *testing.T) {
	dir := t.TempDir()
	write := func(name, cpu, digest string, ops float64) string {
		rec := record{Workload: "w", Seed: 1, Host: host{CPU: cpu, NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go"},
			Digest: digest, P50: &percentile{Value: 10, Below: 9.9, Above: 10.1}}
		res := result{Correct: true, Attempted: 1, Metrics: map[string]metric{"ops_per_s": {ops, "1/s"}}}
		r, _ := json.Marshal(map[string]record{"record": rec})
		l, _ := json.Marshal(res)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte("text\n"+string(r)+"\n"+string(l)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b := write("a", "cpu-a", "d1", 10), write("b", "cpu-a", "d1", 12)
	var out bytes.Buffer
	if err := report([]string{a, b}, &out); err != nil {
		t.Fatalf("report: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "ops_per_s") || !strings.Contains(out.String(), "op_p50_ms neighbour gap") {
		t.Errorf("report lacks the metric or the percentile gap:\n%s", out.String())
	}
	c := write("c", "cpu-b", "d2", 11)
	out.Reset()
	if err := report([]string{a, c}, &out); err == nil ||
		!strings.Contains(out.String(), "NOT COMPARABLE") || !strings.Contains(out.String(), "DIGEST MISMATCH") {
		t.Errorf("report over two hosts and digests = %v:\n%s", err, out.String())
	}
}
