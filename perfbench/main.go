// Command perfbench is the repository's benchmark. One run measures one
// workload from its seed and prints, as its last line, a JSON object with
// the keys correct, attempted, failed and metrics.
//
//	bash perfbench/run.sh --workload paper-sweeps --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh report run1.txt run2.txt ...
//
// Each workload runs a fixed op list derived from the seed (never a clock
// window) in its own process. With --trace 0 the run reports the
// end-to-end metrics; setup_s is the median cold start of several fresh
// processes. With --trace 1 it reports the per-layer metrics, measured
// from spans the benchmark records around its calls into each layer, and
// the tracing overhead against an untraced run of the same op list. The
// report subcommand reads several runs' outputs and prints each metric's
// median, quartiles and spread, and the cost gap around each percentile.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// procStart is as close to the process's start as Go code can see; a
// workload's setup_s is measured from it.
var procStart = time.Now()

// setupSamples is how many fresh processes time a workload's cold start;
// setup_s is their median. Each sample sets up for its own seed, derived
// from the run's, so the median does not rest on one seed's set-up cost.
const setupSamples = 7

// minOps keeps at least ten samples beyond every op_p90_ms.
const minOps = 110

// childTimeout bounds one child process.
const childTimeout = 150 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "report" {
		if err := report(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench report:", err)
			os.Exit(1)
		}
		return
	}
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	child    string // "", "setup" or "run": the role of this process
	traced   bool   // a traced child
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "seed the op list is derived from")
	fs.IntVar(&o.seconds, "seconds", 25, "nominal run length; sets the op count of the fixed op list")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.child, "child", "", "internal: run as a setup or run child process")
	fs.BoolVar(&o.traced, "traced", false, "internal: record spans in a run child")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() != 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := lookup(o.workload); !ok {
		return o, fmt.Errorf("unknown workload %q (valid: %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be at least 1, got %d", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	}
	return o, nil
}

// run dispatches on the process's role and returns the exit code.
func run(args []string, out io.Writer) (int, error) {
	o, err := parseFlags(args)
	if err != nil {
		return 2, err
	}
	switch o.child {
	case "setup", "run":
		res, err := childMain(context.Background(), o)
		if err != nil {
			return 1, err
		}
		if err := json.NewEncoder(out).Encode(res); err != nil {
			return 1, err
		}
		return 0, nil
	case "":
		return parentMain(o, out)
	default:
		return 2, fmt.Errorf("unknown -child role %q", o.child)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the run record printed just before the result: what ran,
// where, and the evidence the steadiness report needs.
type record struct {
	Workload     string                `json:"workload"`
	Seed         uint64                `json:"seed"`
	Trace        int                   `json:"trace"`
	Host         host                  `json:"host"`
	Digest       string                `json:"digest"`
	SetupSamples []float64             `json:"setup_samples_s,omitempty"`
	P50          *percentile           `json:"op_p50,omitempty"`
	P90          *percentile           `json:"op_p90,omitempty"`
	Failures     []failure             `json:"failures"`
	Mismatches   []string              `json:"mismatches"`
	KindMs       map[string][3]float64 `json:"kind_quartiles_ms,omitempty"`
	Metrics      map[string]metric     `json:"metrics"`
}

// parentMain runs the child processes a workload needs, assembles the
// metrics and prints the run record and the result.
func parentMain(o options, out io.Writer) (int, error) {
	self, err := os.Executable()
	if err != nil {
		return 1, err
	}
	rec := record{Workload: o.workload, Seed: o.seed, Trace: o.trace, Host: fingerprint(), Metrics: map[string]metric{}}
	var child *childResult
	if o.trace == 0 {
		for i := 0; i < setupSamples-1; i++ {
			so := o
			so.seed = mix(o.seed, 0x53455455+uint64(i))
			c, err := spawn(self, so, "setup", false)
			if err != nil {
				return 1, err
			}
			rec.SetupSamples = append(rec.SetupSamples, c.SetupSec)
		}
		if child, err = spawn(self, o, "run", false); err != nil {
			return 1, err
		}
		rec.SetupSamples = append(rec.SetupSamples, child.SetupSec)
		if err := endToEnd(&rec, child); err != nil {
			return 1, err
		}
	} else {
		plain, err := spawn(self, o, "run", false)
		if err != nil {
			return 1, err
		}
		if child, err = spawn(self, o, "run", true); err != nil {
			return 1, err
		}
		for k, v := range child.Layers {
			rec.Metrics[k] = v
		}
		rec.Metrics["trace.overhead_frac"] = metric{1 - child.opsPerSec()/plain.opsPerSec(), "ratio"}
		if d := mismatchDigest(plain, child); d != "" {
			child.Mismatches = append(child.Mismatches, d)
		}
	}
	rec.Digest = child.Digest
	rec.Failures = child.Failures
	rec.KindMs = child.KindMs
	rec.Mismatches = child.Mismatches
	if err := checkMetricSet(rec.Metrics, o.trace); err != nil {
		return 1, err
	}
	return emit(out, &rec, child)
}

// emit prints the human summary, the run record and, last, the result. A
// run whose outputs failed a check prints correct=false and exits 1.
func emit(out io.Writer, rec *record, child *childResult) (int, error) {
	printHuman(out, rec, child)
	line, err := json.Marshal(map[string]*record{"record": rec})
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(out, "%s\n", line)
	res := result{Correct: len(rec.Mismatches) == 0, Attempted: child.Ops, Failed: len(child.Failures), Metrics: rec.Metrics}
	line, err = json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		return 1, fmt.Errorf("output check failed: %s", strings.Join(rec.Mismatches, "; "))
	}
	return 0, nil
}

// mismatchDigest compares the digests of two runs of one op list, which
// must agree whether or not spans are recorded.
func mismatchDigest(a, b *childResult) string {
	if a.Digest != b.Digest {
		return fmt.Sprintf("traced run digest %s differs from untraced %s", b.Digest, a.Digest)
	}
	return ""
}

// endToEnd fills the six end-to-end metrics from a run child.
func endToEnd(rec *record, c *childResult) error {
	lat := c.latencies()
	p50, err := latencyPercentile(lat, 0.50, 10)
	if err != nil {
		return err
	}
	p90, err := latencyPercentile(lat, 0.90, 10)
	if err != nil {
		return err
	}
	rec.P50, rec.P90 = &p50, &p90
	m := rec.Metrics
	m["setup_s"] = metric{median(rec.SetupSamples), "s"}
	m["ops_per_s"] = metric{c.opsPerSec(), "1/s"}
	m["op_p50_ms"] = metric{p50.Value, "ms"}
	m["op_p90_ms"] = metric{p90.Value, "ms"}
	m["ok_frac"] = metric{float64(c.Ops-len(c.Failures)) / float64(c.Ops), "ratio"}
	m["peak_rss_mb"] = metric{c.PeakRSSMB, "MiB"}
	return nil
}

// checkMetricSet verifies a run reports exactly the metrics BENCHMARK.json
// lists for its mode, so a renamed or dropped metric fails loudly.
func checkMetricSet(m map[string]metric, trace int) error {
	want := endToEndNames
	if trace == 1 {
		want = perLayerNames()
	}
	var missing, extra []string
	for _, n := range want {
		if _, ok := m[n]; !ok {
			missing = append(missing, n)
		}
	}
	for n := range m {
		if !slices.Contains(want, n) {
			extra = append(extra, n)
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("metric set mismatch: missing %v, unexpected %v", missing, extra)
	}
	return nil
}

// printHuman prints one line per metric with its unit and sample count.
func printHuman(out io.Writer, rec *record, c *childResult) {
	fmt.Fprintf(out, "perfbench %s seed=%d trace=%d ops=%d wall=%.3fs digest=%s\n",
		rec.Workload, rec.Seed, rec.Trace, c.Ops, c.WallSec, rec.Digest)
	fmt.Fprintf(out, "host: %s\n", rec.Host)
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Metrics[n]
		note := ""
		switch n {
		case "setup_s":
			note = fmt.Sprintf("  (median of %d cold processes)", len(rec.SetupSamples))
		case "op_p50_ms":
			note = fmt.Sprintf("  (n=%d, %d beyond, neighbours %.3f..%.3f ms)", rec.P50.N, rec.P50.Beyond, rec.P50.Below, rec.P50.Above)
		case "op_p90_ms":
			note = fmt.Sprintf("  (n=%d, %d beyond, neighbours %.3f..%.3f ms)", rec.P90.N, rec.P90.Beyond, rec.P90.Below, rec.P90.Above)
		case "ops_per_s", "ok_frac":
			note = fmt.Sprintf("  (n=%d ops)", c.Ops)
		}
		fmt.Fprintf(out, "  %-32s %14.6g %-6s%s\n", n, m.Value, m.Unit, note)
	}
	for _, f := range rec.Failures {
		fmt.Fprintf(out, "failed op %d (%s): %s\n", f.ID, f.Kind, f.Err)
	}
	for _, s := range rec.Mismatches {
		fmt.Fprintf(out, "MISMATCH: %s\n", s)
	}
}

// spawn runs this binary as a child process in the given role and
// decodes its result. The child's stderr passes through.
func spawn(self string, o options, role string, traced bool) (*childResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	args := []string{"--workload", o.workload, "--seed", strconv.FormatUint(o.seed, 10),
		"--seconds", strconv.Itoa(o.seconds), "--trace", strconv.Itoa(o.trace), "-child", role}
	if traced {
		args = append(args, "-traced")
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	data, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s child of %s: %w", role, o.workload, err)
	}
	var c childResult
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s child of %s: decode result: %w", role, o.workload, err)
	}
	return &c, nil
}
