package main

import (
	"context"
	"sync/atomic"
)

// op is one entry of a workload's fixed, seed-derived op list.
type op struct {
	ID   int    `json:"id"`
	Kind string `json:"kind"`
	Seed uint64 `json:"seed"`
	Arg  string `json:"arg,omitempty"`
}

// workload is one benchmark workload, set up by its spec's open.
type workload interface {
	// run executes one op; parent is the op's span id. The returned text
	// is the op's output, which the run digest and the checks cover.
	run(ctx context.Context, o op, parent int) (string, error)
	// check verifies the outputs of a finished op list, outside the timed
	// work, and returns one line per mismatch.
	check(ctx context.Context, ops []op, outs []opOut) []string
	// layers computes the workload's per-layer metrics from its spans.
	layers(ss *spanSet, m map[string]metric) error
	// trace starts (non-nil) or stops (nil) span recording.
	trace(t *tracer)
	close() error
}

// hook holds the tracer a workload records into; it is switched on only
// after warm-up, so set-up work never lands in the spans.
type hook struct{ p atomic.Pointer[tracer] }

func (h *hook) tr() *tracer     { return h.p.Load() }
func (h *hook) trace(t *tracer) { h.p.Store(t) }

// workloadSpec describes one workload.
type workloadSpec struct {
	name string
	// clients is the number of closed-loop callers (at most nproc).
	clients int
	// perSecond is the nominal op rate that turns --seconds into the op
	// count; the count never depends on measured speed.
	perSecond float64
	// topUp is the prefix length another workload's traced run executes
	// to measure this workload's layers.
	topUp int
	// layers names the per-layer metrics the workload's spans measure.
	layers []string
	plan   func(seed uint64, n int) []op
	open   func(ctx context.Context, dir string, seed uint64, traced bool) (workload, error)
}

var workloads = []*workloadSpec{paperSweeps, swarmCoverage, fleetJobs}

func lookup(name string) (*workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// endToEndNames are the metrics every --trace 0 run reports.
var endToEndNames = []string{"setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "ok_frac", "peak_rss_mb"}

// commonLayerNames are measured on every traced run's own workload.
var commonLayerNames = []string{"runtime.alloc_kb_per_op", "runtime.gc_per_op", "trace.overhead_frac"}

// perLayerNames are the metrics every --trace 1 run reports.
func perLayerNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.layers...)
	}
	return append(out, commonLayerNames...)
}

// mix derives a seed from a seed and a salt (SplitMix64 finalizer). The
// benchmark derives its inputs itself, so they never depend on the code
// under test.
func mix(seed, salt uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(salt+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// shuffle permutes ops deterministically from seed (Fisher-Yates).
func shuffle(ops []op, seed uint64) {
	for i := len(ops) - 1; i > 0; i-- {
		j := int(mix(seed, uint64(i)) % uint64(i+1))
		ops[i], ops[j] = ops[j], ops[i]
	}
	for i := range ops {
		ops[i].ID = i
	}
}
