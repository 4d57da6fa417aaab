package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// allKernels is every kernel a snapshot must report (tracks measureBaseline).
var allKernels = []string{
	"compiled_next", "walker_step", "dense_walker_step",
	"s1_coverage_curve", "e6_coverage", "sparse_world_step",
}

func TestRunBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("baseline measurement takes ~1s")
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	var out strings.Builder
	start := time.Now()
	if err := run([]string{"-baseline", path}, &out); err != nil {
		t.Fatal(err)
	}
	t.Logf("baseline took %v", time.Since(start))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("baseline is not valid JSON: %v", err)
	}
	for _, k := range allKernels {
		if b.Kernels[k] <= 0 {
			t.Errorf("kernel %q missing or non-positive: %v", k, b.Kernels[k])
		}
	}
	if b.GoVersion == "" || b.Timestamp == "" {
		t.Errorf("metadata incomplete: %+v", b)
	}
	if b.Parent != "" {
		t.Errorf("-baseline must write a root snapshot, got parent %q", b.Parent)
	}
	if b.SchemaVersion != baselineSchemaVersion {
		t.Errorf("schema_version = %d, want %d", b.SchemaVersion, baselineSchemaVersion)
	}
	if !strings.Contains(out.String(), "wrote") {
		t.Errorf("no confirmation output: %q", out.String())
	}
}

func TestRunSnapshotRecordsParent(t *testing.T) {
	if testing.Short() {
		t.Skip("snapshot measurement takes ~1s")
	}
	path := filepath.Join(t.TempDir(), "candidate.json")
	var out strings.Builder
	if err := run([]string{"-snapshot", path, "-parent", "BENCH_root.json"}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if b.Parent != "BENCH_root.json" {
		t.Errorf("parent = %q, want BENCH_root.json", b.Parent)
	}
	if b.SchemaVersion != baselineSchemaVersion {
		t.Errorf("schema_version = %d, want %d", b.SchemaVersion, baselineSchemaVersion)
	}
}
