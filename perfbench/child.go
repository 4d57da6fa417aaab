package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// failure is one op that returned an error. It is never retried.
type failure struct {
	ID   int    `json:"id"`
	Kind string `json:"kind"`
	Arg  string `json:"arg,omitempty"`
	Err  string `json:"error"`
}

// childResult is what a child process reports to the parent.
type childResult struct {
	SetupSec   float64               `json:"setup_s"`
	WallSec    float64               `json:"wall_s,omitempty"`
	Ops        int                   `json:"ops,omitempty"`
	OpMs       []float64             `json:"op_ms,omitempty"`
	OpStartMs  []float64             `json:"op_start_ms,omitempty"`
	Failures   []failure             `json:"failures,omitempty"`
	Mismatches []string              `json:"mismatches,omitempty"`
	Digest     string                `json:"digest,omitempty"`
	PeakRSSMB  float64               `json:"peak_rss_mb,omitempty"`
	KindMs     map[string][3]float64 `json:"kind_quartiles_ms,omitempty"`
	Layers     map[string]metric     `json:"layers,omitempty"`
}

// throughputBatches is how many consecutive slices of the op list
// ops_per_s takes its median over.
const throughputBatches = 10

// opsPerSec is the median throughput of the op list's consecutive
// batches: a batch's op count over the wall time from its first op's
// start to its last op's end. Each batch has the same mix of op kinds on
// average, and a median over the whole run is not moved by a short stall
// of the host the way ops over the total wall time is.
func (c *childResult) opsPerSec() float64 {
	n := len(c.OpMs)
	b := min(throughputBatches, n)
	rates := make([]float64, 0, b)
	for k := 0; k < b; k++ {
		lo, hi := k*n/b, (k+1)*n/b
		first, last := math.Inf(1), math.Inf(-1)
		for i := lo; i < hi; i++ {
			first = math.Min(first, c.OpStartMs[i])
			last = math.Max(last, c.OpStartMs[i]+c.OpMs[i])
		}
		rates = append(rates, float64(hi-lo)/(last-first)*1000)
	}
	return median(rates)
}

// latencies returns the op latencies in ms with every failed op at +Inf.
func (c *childResult) latencies() []float64 {
	lat := append([]float64(nil), c.OpMs...)
	for _, f := range c.Failures {
		lat[f.ID] = math.Inf(1)
	}
	return lat
}

// opCount is the size of a workload's fixed op list for a nominal run of
// the given length: a function of the flags alone, never of how fast the
// program runs.
func opCount(spec *workloadSpec, seconds int) int {
	return max(minOps, int(math.Round(spec.perSecond*float64(seconds))))
}

// warmOps returns one op of every kind, drawn from a seed stream the
// measured op list never uses.
func warmOps(spec *workloadSpec, seed uint64) []op {
	return oneOfEachKind(spec.plan(mix(seed, 0x5741524d), minOps))
}

// topUpOps is the op list another workload's traced run executes to
// measure this workload's layers: a prefix plus one op of every kind.
func topUpOps(spec *workloadSpec, seed uint64) []op {
	all := spec.plan(seed, minOps)
	ops := all[:spec.topUp]
	for _, o := range oneOfEachKind(all) {
		if o.ID >= spec.topUp {
			ops = append(ops, o)
		}
	}
	for i := range ops {
		ops[i].ID = i
	}
	return ops
}

func oneOfEachKind(ops []op) []op {
	seen := map[string]bool{}
	var out []op
	for _, o := range ops {
		if !seen[o.Kind] {
			seen[o.Kind] = true
			out = append(out, o)
		}
	}
	return out
}

// childMain is one workload process: set up, warm up, then (for a run
// child) execute the op list, check the outputs and report.
func childMain(ctx context.Context, o options) (*childResult, error) {
	spec, _ := lookup(o.workload)
	if o.child == "setup" {
		w, dir, err := openWorkload(ctx, spec, o.seed, false, benchWork)
		if err != nil {
			return nil, err
		}
		setup := time.Since(procStart).Seconds()
		if err := closeWorkload(w, dir); err != nil {
			return nil, err
		}
		return &childResult{SetupSec: setup}, nil
	}
	ops := spec.plan(o.seed, opCount(spec, o.seconds))
	if o.trace == 1 {
		// A traced run reports no percentiles, so both halves of its
		// overhead comparison run the first half of the op list.
		ops = ops[:len(ops)/2]
	}
	res, err := measure(ctx, spec, o.seed, ops, o.traced, benchWork)
	if err != nil || !o.traced {
		return res, err
	}
	// A traced run reports every layer, so the other workloads' layers are
	// measured on a short prefix of their own op lists.
	for _, other := range workloads {
		if other.name == spec.name {
			continue
		}
		top, err := measure(ctx, other, o.seed, topUpOps(other, o.seed), true, benchWork)
		if err != nil {
			return nil, fmt.Errorf("%s layers: %w", other.name, err)
		}
		for k, v := range top.Layers {
			if _, ok := res.Layers[k]; !ok && !strings.HasPrefix(k, "runtime.") {
				res.Layers[k] = v
			}
		}
		for _, m := range top.Mismatches {
			res.Mismatches = append(res.Mismatches, other.name+": "+m)
		}
	}
	return res, nil
}

// openWorkload builds and sets up a workload, then warms up every op kind.
// Warm-up errors are not counted: the measured ops report failures.
func openWorkload(ctx context.Context, spec *workloadSpec, seed uint64, traced bool, base string) (workload, string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, "", err
	}
	dir, err := os.MkdirTemp(base, spec.name+"-")
	if err != nil {
		return nil, "", err
	}
	w, err := spec.open(ctx, dir, seed, traced)
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", fmt.Errorf("%s setup: %w", spec.name, err)
	}
	for _, o := range warmOps(spec, seed) {
		_, _ = w.run(ctx, o, 0)
	}
	return w, dir, nil
}

func closeWorkload(w workload, dir string) error {
	err := w.close()
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	return err
}

// benchWork holds the child processes' scratch directories, inside the
// checkout's build directory.
var benchWork = filepath.Join(".bench_build", "work")

// measure runs one op list on a workload freshly set up under base.
func measure(ctx context.Context, spec *workloadSpec, seed uint64, ops []op, traced bool, base string) (*childResult, error) {
	w, dir, err := openWorkload(ctx, spec, seed, traced, base)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err := closeWorkload(w, dir); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: close %s: %v\n", spec.name, err)
		}
	}()
	res := &childResult{SetupSec: time.Since(procStart).Seconds(), Ops: len(ops)}
	var tr *tracer
	if traced {
		tr = newTracer()
		w.trace(tr)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	outs := runOps(ctx, w, ops, spec.clients, tr, start)
	res.WallSec = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	if res.PeakRSSMB, err = peakRSSMB(); err != nil {
		return nil, err
	}
	w.trace(nil)

	h := sha256.New()
	for i, out := range outs {
		res.OpMs = append(res.OpMs, out.ms)
		res.OpStartMs = append(res.OpStartMs, out.startMs)
		body := out.text
		if out.err != nil {
			body = "error: " + out.err.Error()
			res.Failures = append(res.Failures, failure{ID: i, Kind: ops[i].Kind, Arg: ops[i].Arg, Err: out.err.Error()})
		}
		sum := sha256.Sum256([]byte(body))
		fmt.Fprintf(h, "%d %s %d %s %x\n", i, ops[i].Kind, ops[i].Seed, ops[i].Arg, sum)
	}
	res.Digest = hex.EncodeToString(h.Sum(nil))[:16]
	res.KindMs = kindQuartiles(ops, outs)
	res.Mismatches = w.check(ctx, ops, outs)

	if traced {
		if p, ok := w.(prober); ok {
			p.probe(tr)
		}
		res.Layers = map[string]metric{}
		if err := w.layers(newSpanSet(tr.closed()), res.Layers); err != nil {
			return nil, fmt.Errorf("%s layers: %w", spec.name, err)
		}
		n := float64(len(ops))
		res.Layers["runtime.alloc_kb_per_op"] = metric{float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / n, "KiB"}
		res.Layers["runtime.gc_per_op"] = metric{float64(m1.NumGC-m0.NumGC) / n, "count"}
		if err := tr.write(filepath.Join(base, fmt.Sprintf("spans-%s-seed%d-pid%d.jsonl", spec.name, seed, os.Getpid()))); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// kindQuartiles gives the latency quartiles of each op kind's successful
// ops: the cost bands the percentiles fall into.
func kindQuartiles(ops []op, outs []opOut) map[string][3]float64 {
	by := map[string][]float64{}
	for i, out := range outs {
		if out.err == nil {
			by[ops[i].Kind] = append(by[ops[i].Kind], out.ms)
		}
	}
	m := make(map[string][3]float64, len(by))
	for k, v := range by {
		q1, q2, q3 := quartiles(v)
		m[k] = [3]float64{q1, q2, q3}
	}
	return m
}

// prober is a workload that times fixed-size loops of its lower layers
// after a traced op list.
type prober interface{ probe(tr *tracer) }

// opOut is one op's outcome.
type opOut struct {
	text    string
	err     error
	ms      float64
	startMs float64 // since the op list started
}

// runOps executes the op list with a fixed number of closed-loop callers:
// each sends its next op only after the previous one completed.
func runOps(ctx context.Context, w workload, ops []op, clients int, tr *tracer, start time.Time) []opOut {
	outs := make([]opOut, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				id := tr.begin("op", ops[i].Kind, 0)
				t0 := time.Now()
				text, err := w.run(ctx, ops[i], id)
				outs[i] = opOut{text: text, err: err, ms: float64(time.Since(t0).Nanoseconds()) / 1e6,
					startMs: float64(t0.Sub(start).Nanoseconds()) / 1e6}
				tr.end(id, 1)
			}
		}()
	}
	wg.Wait()
	return outs
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// host identifies the machine and code a result was measured on; results
// from different hosts are not comparable.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	Source     string `json:"source"`
}

func (h host) String() string {
	return fmt.Sprintf("%s, nproc=%d, GOMAXPROCS=%d, %s, commit %s, source %s",
		h.CPU, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Commit, h.Source)
}

// machine is the part of the fingerprint that decides comparability.
func (h host) machine() string {
	return fmt.Sprintf("%s|%d|%d|%s", h.CPU, h.NumCPU, h.GOMAXPROCS, h.GoVersion)
}

func fingerprint() host {
	h := host{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: os.Getenv("PERFBENCH_COMMIT"), Source: sourceDigest(".")}
	if h.Commit == "" {
		h.Commit = "unknown"
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// sourceDigest hashes the Go sources under root, so a result names the
// code it measured even in a checkout without version control.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}
