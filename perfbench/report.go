package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// runOutput is what the report reads back from one run's output.
type runOutput struct {
	file   string
	record record
	result result
}

// readRun parses one run's output: the record line and the final result.
func readRun(path string) (runOutput, error) {
	f, err := os.Open(path)
	if err != nil {
		return runOutput{}, err
	}
	defer f.Close()
	ro := runOutput{file: path}
	var last string
	sawRecord := false
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		last = line
		if strings.HasPrefix(line, `{"record":`) {
			var wrap map[string]record
			if err := json.Unmarshal([]byte(line), &wrap); err != nil {
				return ro, fmt.Errorf("%s: record: %w", path, err)
			}
			ro.record, sawRecord = wrap["record"], true
		}
	}
	if err := sc.Err(); err != nil {
		return ro, err
	}
	if !sawRecord {
		return ro, fmt.Errorf("%s: no run record line", path)
	}
	if err := json.Unmarshal([]byte(last), &ro.result); err != nil {
		return ro, fmt.Errorf("%s: last line is not a result: %w", path, err)
	}
	return ro, nil
}

// report prints, per workload and mode, each metric's median, quartiles
// and relative spread over the given runs; for op_p50_ms and op_p90_ms
// also the relative cost gap between the ops ranked just below and just
// above the percentile, so a percentile on a cliff shows. Runs from
// different hosts are flagged as not comparable, and runs of one seed
// whose output digests differ are flagged as a mismatch.
func report(files []string, out io.Writer) error {
	if len(files) == 0 {
		return fmt.Errorf("usage: perfbench report RUN_OUTPUT...")
	}
	groups := map[string][]runOutput{}
	var keys []string
	for _, path := range files {
		ro, err := readRun(path)
		if err != nil {
			return err
		}
		k := fmt.Sprintf("%s trace=%d", ro.record.Workload, ro.record.Trace)
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], ro)
	}
	sort.Strings(keys)
	problems := 0
	for _, k := range keys {
		runs := groups[k]
		fmt.Fprintf(out, "== %s: %d runs\n", k, len(runs))
		problems += reportComparability(out, runs)
		names := map[string]string{}
		for _, r := range runs {
			for n, m := range r.result.Metrics {
				names[n] = m.Unit
			}
		}
		sorted := make([]string, 0, len(names))
		for n := range names {
			sorted = append(sorted, n)
		}
		sort.Strings(sorted)
		fmt.Fprintf(out, "  %-32s %12s %12s %12s %8s  %s\n", "metric", "q1", "median", "q3", "spread", "unit")
		for _, n := range sorted {
			var vals []float64
			for _, r := range runs {
				if m, ok := r.result.Metrics[n]; ok {
					vals = append(vals, m.Value)
				}
			}
			q1, q2, q3 := quartiles(vals)
			fmt.Fprintf(out, "  %-32s %12.6g %12.6g %12.6g %7.1f%%  %s\n", n, q1, q2, q3, 100*(q3-q1)/math.Abs(q2), names[n])
		}
		for _, pick := range []struct {
			name string
			get  func(record) *percentile
		}{{"op_p50_ms", func(r record) *percentile { return r.P50 }}, {"op_p90_ms", func(r record) *percentile { return r.P90 }}} {
			var gaps []float64
			for _, r := range runs {
				if p := pick.get(r.record); p != nil && p.Value > 0 {
					gaps = append(gaps, (p.Above-p.Below)/p.Value)
				}
			}
			if len(gaps) > 0 {
				sort.Float64s(gaps)
				fmt.Fprintf(out, "  %s neighbour gap (above-below)/value: median %.1f%%, max %.1f%%\n",
					pick.name, 100*median(gaps), 100*gaps[len(gaps)-1])
			}
		}
		reportBands(out, runs)
	}
	if problems > 0 {
		return fmt.Errorf("%d comparability problem(s)", problems)
	}
	return nil
}

// reportBands prints each op kind's median latency quartiles over the
// runs: the cost bands that op_p50_ms and op_p90_ms fall into.
func reportBands(out io.Writer, runs []runOutput) {
	bands := map[string][3][]float64{}
	for _, r := range runs {
		for kind, q := range r.record.KindMs {
			b := bands[kind]
			for i := range q {
				b[i] = append(b[i], q[i])
			}
			bands[kind] = b
		}
	}
	kinds := make([]string, 0, len(bands))
	for k := range bands {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		b := bands[k]
		fmt.Fprintf(out, "  band %-20s q1 %10.4g  median %10.4g  q3 %10.4g ms\n", k, median(b[0]), median(b[1]), median(b[2]))
	}
}

// reportComparability flags runs from different hosts and same-seed runs
// whose digests differ, and returns how many problems it printed.
func reportComparability(out io.Writer, runs []runOutput) int {
	problems := 0
	machine := runs[0].record.Host.machine()
	for _, r := range runs[1:] {
		if m := r.record.Host.machine(); m != machine {
			fmt.Fprintf(out, "  NOT COMPARABLE: %s ran on %q, %s on %q\n", runs[0].file, machine, r.file, m)
			problems++
		}
	}
	digests := map[uint64]string{}
	for _, r := range runs {
		d, ok := digests[r.record.Seed]
		switch {
		case !ok:
			digests[r.record.Seed] = r.record.Digest
		case d != r.record.Digest:
			fmt.Fprintf(out, "  DIGEST MISMATCH: seed %d gave %s and %s\n", r.record.Seed, d, r.record.Digest)
			problems++
		}
	}
	for _, r := range runs {
		if !r.result.Correct {
			fmt.Fprintf(out, "  INCORRECT: %s\n", r.file)
			problems++
		}
	}
	return problems
}
