package experiment

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/scenario"
	"repro/internal/search"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// DefaultMoveBudget is the per-agent move budget used when a caller does
// not set one: 512·D², comfortably past the D²/n + D bound for every
// agent count. The antsim CLI (-budget 0) and the service's job-spec
// normalization both use it.
func DefaultMoveBudget(d int64) uint64 {
	return uint64(d) * uint64(d) * 512
}

// AlgorithmNames lists the algorithm names BuildAlgorithm accepts, in
// documentation order: the paper's two contributed algorithms first, the
// baselines after.
func AlgorithmNames() []string {
	return []string{"non-uniform", "uniform", "feinerman", "random-walk", "spiral"}
}

// BuildAlgorithm resolves an algorithm name to a simulation factory plus
// the rendered χ audit of the configuration. It is the single place a
// user-facing algorithm name (CLI flag, service job spec) becomes a
// runnable program: d is the target distance the non-uniform algorithm is
// built for (and the distance the uniform/baseline audits are evaluated
// at), n the agent count, ell the base-coin precision ℓ.
func BuildAlgorithm(algo string, d int64, n int, ell uint) (sim.Factory, string, error) {
	switch algo {
	case "non-uniform":
		prog, err := search.NewNonUniform(d, ell)
		if err != nil {
			return nil, "", err
		}
		return func() sim.Program { return prog }, prog.Audit().String(), nil
	case "uniform":
		prog, err := search.NewUniform(ell, n)
		if err != nil {
			return nil, "", err
		}
		return func() sim.Program { return prog }, prog.AuditForDistance(d).String(), nil
	case "feinerman":
		prog, err := baseline.NewFeinerman(n)
		if err != nil {
			return nil, "", err
		}
		return func() sim.Program { return prog }, prog.AuditForDistance(d).String(), nil
	case "random-walk":
		return baseline.RandomWalkFactory(), baseline.PureRandomWalk{}.Audit().String(), nil
	case "spiral":
		return baseline.SpiralFactory(), (baseline.Spiral{}).AuditForDistance(d).String(), nil
	default:
		return nil, "", fmt.Errorf("experiment: unknown algorithm %q (valid: %v)", algo, AlgorithmNames())
	}
}

// ScenarioGrid is the one-point grid of a single scenario configuration:
// algorithm algo (built for distance d, n agents, base-coin precision
// ell) on scenario preset spec with a per-agent move budget, over trials
// trials. Every input that changes the result is an axis, so the cache
// key covers exactly those; the engine worker bound is not one.
func ScenarioGrid(spec, algo string, d int64, n int, ell uint, budget uint64, trials int) sweep.Grid {
	return sweep.Grid{
		Name:    "scenario",
		Version: 1,
		Axes: []sweep.Axis{
			sweep.StringAxis("scenario", spec),
			sweep.StringAxis("algo", algo),
			sweep.Int64Axis("D", d),
			sweep.IntAxis("n", n),
			sweep.UintAxis("ell", ell),
			sweep.StringAxis("budget", sweep.Uint64ListParam([]uint64{budget})), // lossless uint64
		},
		Trials: trials,
	}
}

// ScenarioPoint is ScenarioGrid's kernel, run by `antsim -scenario` and
// the service's scenario jobs alike: the asynchronous engine, seeded with
// ctx.Seed unmixed (the grid has one point). Samples are the successful
// trials' M_moves, Values["found_frac"] the fraction that found a target.
// A rounds-only scenario's roster is dropped and its adaptive adversary
// fails with sim.ErrAdaptiveAsync.
func ScenarioPoint(p sweep.Point, ctx sweep.Ctx) (*sweep.Result, error) {
	b := p.Bind()
	spec, algo := b.Str("scenario"), b.Str("algo")
	d, n, ell := b.Int64("D"), b.Int("n"), b.Uint("ell")
	budget := b.Uint64List("budget")
	if err := b.Err(); err != nil {
		return nil, err
	}
	scn, err := scenario.Build(spec, d)
	if err != nil {
		return nil, err
	}
	factory, _, err := BuildAlgorithm(algo, d, n, ell)
	if err != nil {
		return nil, err
	}
	cfg := scn.Apply(sim.Config{NumAgents: n, MoveBudget: budget[0], Workers: ctx.Workers})
	st, err := sim.RunTrials(cfg, factory, ctx.Trials, ctx.Seed)
	if err != nil {
		return nil, err
	}
	return &sweep.Result{Samples: st.Moves, Values: map[string]float64{"found_frac": st.FoundFrac}}, nil
}
