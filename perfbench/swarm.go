package main

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/automata"
	"repro/internal/grid"
	"repro/internal/lowerbound"
	"repro/internal/rng"
	"repro/internal/sim"
)

// swarm-coverage: engine calls with no sweep or service layer in the way.
// The async ops are E6's coverage measurement on compiled machines; the
// rounds ops are S1's coverage curve with 4096 agents at one radius below
// and one above the dense/sparse VisitSet switch (1024). The op kinds are
// sized to similar costs, so p50 and p90 sit inside one band.
//
// Two closed-loop callers each run one engine call at a time on one
// worker. On a host of two shared vCPUs this is the steady shape: one
// caller with the engines' own two-worker pools stalls at the rounds
// engine's per-round barrier whenever either vCPU is taken away, and one
// caller on one worker leaves a vCPU idle, which made op latencies drift
// by a third from second to second.
var swarmCoverage = &workloadSpec{
	name:      "swarm-coverage",
	clients:   2,
	perSecond: 16,
	topUp:     10,
	layers:    swarmLayerNames,
	plan:      swarmPlan,
	open: func(context.Context, string, uint64, bool) (workload, error) {
		return newSwarm()
	},
}

var swarmLayerNames = []string{
	"rng.draw_ns", "automata.next_ns", "automata.walker_step_ns",
	"ladder.walker_over_next", "ladder.env_over_walker", "ladder.round_over_next",
	"grid.visit_dense_ns", "grid.visit_sparse_ns",
	"sim.env_step_ns", "sim.agent_round_ns", "sim.alloc_kb_per_run",
	"lowerbound.predict_us",
}

// swarmKind sizes one op kind.
type swarmKind struct {
	name    string
	machine string // "random-walk", "drift-2", "drift-3"
	agents  int
	d       int64    // coverage ops: the distance D (steps per agent = D²)
	radius  int64    // curve ops: the tracked radius
	rounds  []uint64 // curve ops: checkpoints; the last is the horizon
}

const (
	swarmD       = 384
	swarmAgents  = 4096
	denseRadius  = 1000 // below the 1024 dense/sparse switch
	sparseRadius = 1100 // above it
	swarmWorkers = 1
)

var swarmKinds = []swarmKind{
	{name: "cov-random-walk", machine: "random-walk", agents: 28, d: swarmD},
	{name: "cov-drift-2", machine: "drift-2", agents: 43, d: swarmD},
	{name: "cov-drift-3", machine: "drift-3", agents: 38, d: swarmD},
	{name: "curve-dense", machine: "random-walk", agents: swarmAgents, radius: denseRadius, rounds: []uint64{936, 1872, 3744}},
	{name: "curve-sparse", machine: "random-walk", agents: swarmAgents, radius: sparseRadius, rounds: []uint64{672, 1344, 2688}},
}

func swarmKindNamed(name string) (swarmKind, bool) {
	for _, k := range swarmKinds {
		if k.name == name {
			return k, true
		}
	}
	return swarmKind{}, false
}

// swarmPlan cycles the kinds evenly and shuffles them.
func swarmPlan(seed uint64, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{Kind: swarmKinds[i%len(swarmKinds)].name, Seed: mix(seed, uint64(i))}
	}
	shuffle(ops, mix(seed, 0x53574152))
	return ops
}

type swarm struct {
	hook
	machines map[string]*automata.Machine

	// allocKB is the KiB one engine run allocates, measured by probe;
	// probeErr is an engine error it met.
	allocKB  float64
	probeErr error
}

func newSwarm() (*swarm, error) {
	d2, err := automata.DriftLineMachine(2)
	if err != nil {
		return nil, err
	}
	d3, err := automata.DriftLineMachine(3)
	if err != nil {
		return nil, err
	}
	ms := map[string]*automata.Machine{"random-walk": automata.RandomWalk(), "drift-2": d2, "drift-3": d3}
	for _, m := range ms {
		m.Compiled()
	}
	return &swarm{machines: ms}, nil
}

func (w *swarm) close() error { return nil }

func (w *swarm) run(_ context.Context, o op, parent int) (string, error) {
	k, ok := swarmKindNamed(o.Kind)
	if !ok {
		return "", fmt.Errorf("unknown swarm op kind %q", o.Kind)
	}
	return w.engine(k, o.Seed, w.tr(), parent)
}

// engine makes one op's engine call and formats its output.
func (w *swarm) engine(k swarmKind, seed uint64, tr *tracer, parent int) (string, error) {
	m := w.machines[k.machine]
	if k.rounds == nil {
		id := tr.begin("lowerbound.MeasureCoverage", k.machine, parent)
		res, err := lowerbound.MeasureCoverage(m, lowerbound.CoverageConfig{D: k.d, NumAgents: k.agents, Workers: swarmWorkers}, seed)
		tr.end(id, int64(k.agents)*k.d*k.d)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("d=%d cells=%d frac=%.9f found=%t target=%v", k.d, res.Cells, res.Fraction, res.FoundAdversarial, res.Target), nil
	}
	id := tr.begin("sim.CoverageCurveWith", k.name, parent)
	counts, err := sim.CoverageCurveWith(sim.RoundsConfig{Machine: m, NumAgents: k.agents, TrackRadius: k.radius, Workers: swarmWorkers}, k.rounds, seed)
	tr.end(id, int64(k.agents)*int64(k.rounds[len(k.rounds)-1]))
	if err != nil {
		return "", err
	}
	parts := make([]string, len(counts))
	for i, c := range counts {
		parts[i] = strconv.FormatInt(c, 10)
	}
	return fmt.Sprintf("r=%d counts=%s", k.radius, strings.Join(parts, ",")), nil
}

// check verifies every coverage curve: checkpoint counts never decrease
// and never exceed the (2r+1)² cells of the tracked window; coverage ops
// stay inside their ball.
func (w *swarm) check(_ context.Context, ops []op, outs []opOut) []string {
	var bad []string
	for i, out := range outs {
		if out.err != nil {
			continue
		}
		if err := checkSwarmOutput(ops[i], out.text); err != nil {
			bad = append(bad, fmt.Sprintf("op %d (%s): %v", i, ops[i].Kind, err))
		}
	}
	return bad
}

func checkSwarmOutput(o op, text string) error {
	k, ok := swarmKindNamed(o.Kind)
	if !ok {
		return fmt.Errorf("unknown kind")
	}
	if k.rounds == nil {
		var d, cells int64
		var frac float64
		if _, err := fmt.Sscanf(text, "d=%d cells=%d frac=%f", &d, &cells, &frac); err != nil {
			return fmt.Errorf("parse %q: %v", text, err)
		}
		if side := 2*d + 1; cells < 1 || cells > side*side || frac <= 0 || frac > 1 {
			return fmt.Errorf("coverage cells=%d frac=%g outside the radius-%d ball", cells, frac, d)
		}
		return nil
	}
	_, list, ok := strings.Cut(text, "counts=")
	if !ok {
		return fmt.Errorf("no counts in %q", text)
	}
	fields := strings.Split(list, ",")
	if len(fields) != len(k.rounds) {
		return fmt.Errorf("%d checkpoint counts, want %d", len(fields), len(k.rounds))
	}
	limit := (2*k.radius + 1) * (2*k.radius + 1)
	prev := int64(0)
	for i, f := range fields {
		c, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return err
		}
		if c < prev || c > limit {
			return fmt.Errorf("checkpoint %d count %d (previous %d, limit (2r+1)²=%d)", i, c, prev, limit)
		}
		prev = c
	}
	return nil
}

// probe times the ladder beneath the engines with fixed-size loops at the
// workload's own machines and radii: the rng draw, the compiled
// transition, the walker step, dense and sparse visits, and Predict. It
// also measures the allocation of one engine run of each kind, one at a
// time: with two callers, a MemStats window around an op would also count
// the other caller's allocations.
func (w *swarm) probe(tr *tracer) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, k := range swarmKinds {
		if _, err := w.engine(k, uint64(i)+1, nil, 0); err != nil {
			w.probeErr = err
		}
	}
	runtime.ReadMemStats(&after)
	w.allocKB = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(len(swarmKinds))

	const n = 1 << 20
	rw := w.machines["random-walk"]
	c := rw.Compiled()
	path := walkPath(rw, 1<<18)
	var sink uint64
	for rep := uint64(0); rep < 3; rep++ {
		src := rng.New(rep + 1)
		id := tr.begin("rng.Source.Uint64", "", 0)
		for i := 0; i < n; i++ {
			sink ^= src.Uint64()
		}
		tr.end(id, n)

		s := c.Start()
		id = tr.begin("automata.CompiledMachine.Next", "", 0)
		for i := 0; i < n; i++ {
			s = c.Next(s, src.Uint64())
		}
		tr.end(id, n)
		sink += uint64(s)

		wk := automata.NewWalker(rw, rng.New(rep+7))
		id = tr.begin("automata.Walker.StepN", "", 0)
		wk.StepN(n)
		tr.end(id, n)

		for _, v := range []struct {
			tag string
			r   int64
		}{{"dense", denseRadius}, {"sparse", sparseRadius}} {
			set := grid.NewVisitSet(v.r)
			id = tr.begin("grid.VisitSet.Visit", v.tag, 0)
			for _, p := range path {
				set.Visit(p)
			}
			tr.end(id, int64(len(path)))
			sink += uint64(set.CountInBall())
		}

		for _, name := range []string{"random-walk", "drift-2", "drift-3"} {
			const reps = 20
			id = tr.begin("lowerbound.Predict", name, 0)
			for i := 0; i < reps; i++ {
				if _, err := lowerbound.Predict(w.machines[name]); err != nil {
					sink++
				}
			}
			tr.end(id, reps)
		}
	}
	probeSink = sink
}

// probeSink keeps the probe loops from being optimized away.
var probeSink uint64

// walkPath records the positions of one random walk, spread over 64
// starting offsets so visits touch a realistic mix of fresh and repeated
// cells in both windows.
func walkPath(m *automata.Machine, n int) []grid.Point {
	wk := automata.NewWalker(m, rng.New(99))
	pts := make([]grid.Point, 0, n)
	for len(pts) < n {
		off := int64(len(pts)/(n/64)) * 15
		wk.Step()
		p := wk.Pos()
		pts = append(pts, grid.Point{X: p.X + off - 480, Y: p.Y - off + 480})
	}
	return pts
}

func (w *swarm) layers(ss *spanSet, m map[string]metric) error {
	vals := map[string]float64{}
	for _, x := range []struct {
		metric, span, tag string
		unit              time.Duration
	}{
		{"rng.draw_ns", "rng.Source.Uint64", "", time.Nanosecond},
		{"automata.next_ns", "automata.CompiledMachine.Next", "", time.Nanosecond},
		{"automata.walker_step_ns", "automata.Walker.StepN", "", time.Nanosecond},
		{"grid.visit_dense_ns", "grid.VisitSet.Visit", "dense", time.Nanosecond},
		{"grid.visit_sparse_ns", "grid.VisitSet.Visit", "sparse", time.Nanosecond},
		{"sim.env_step_ns", "lowerbound.MeasureCoverage", "", time.Nanosecond},
		{"sim.agent_round_ns", "sim.CoverageCurveWith", "", time.Nanosecond},
		{"lowerbound.predict_us", "lowerbound.Predict", "", time.Microsecond},
	} {
		spans := ss.named(x.span)
		if x.tag != "" {
			spans = ss.named(x.span, x.tag)
		}
		v, err := perUnit(spans, x.span, x.unit)
		if err != nil {
			return err
		}
		vals[x.metric] = v
		m[x.metric] = metric{v, unitName(x.unit)}
	}
	m["ladder.walker_over_next"] = metric{vals["automata.walker_step_ns"] / vals["automata.next_ns"], "ratio"}
	m["ladder.env_over_walker"] = metric{vals["sim.env_step_ns"] / vals["automata.walker_step_ns"], "ratio"}
	m["ladder.round_over_next"] = metric{vals["sim.agent_round_ns"] / vals["automata.next_ns"], "ratio"}
	if w.probeErr != nil {
		return fmt.Errorf("allocation probe: %w", w.probeErr)
	}
	if w.allocKB == 0 {
		return fmt.Errorf("no engine runs recorded")
	}
	m["sim.alloc_kb_per_run"] = metric{w.allocKB, "KiB"}
	return nil
}

func unitName(u time.Duration) string {
	switch u {
	case time.Nanosecond:
		return "ns"
	case time.Microsecond:
		return "us"
	default:
		return "ms"
	}
}
