package experiment

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/sim"
)

// e2 reproduces the per-iteration lemmas of Section 3.1:
//
//	Lemma 3.1: R ≤ 2D      (expected moves per iteration)
//	Lemma 3.2: R̂ ≤ 2R      (conditioned on missing the target)
//	Lemma 3.4: per-iteration hit probability ≥ 1/(64D) for any target in
//	           the D-ball.
func e2() Experiment {
	return Experiment{
		ID:    "E2",
		Title: "Per-iteration move count and hit probability (Lemmas 3.1–3.4)",
		Claim: "Lemmas 3.1, 3.2 and 3.4",
		Run:   runE2,
	}
}

// e2Ds returns the ball radii D that E2 sweeps.
func e2Ds(quick bool) []int64 {
	if quick {
		return []int64{16, 32}
	}
	return []int64{16, 32, 64}
}

// e2Targets returns E2b's probe points for radius d, with the far corner
// (d, d) that E2a conditions on. Each iteration records its visits in a
// VisitSet of radius d, which holds the d-ball only, so every probe must lie
// inside it.
func e2Targets(d int64) (targets []grid.Point, corner grid.Point) {
	corner = grid.Point{X: d, Y: d}
	return []grid.Point{
		{X: d, Y: 0},
		{X: d / 2, Y: d / 2},
		corner,
		{X: 1, Y: 0},
	}, corner
}

func runE2(cfg Config) ([]*Table, error) {
	iters := 200000
	if cfg.Quick {
		iters = 40000
	}

	moves := &Table{
		Title:   "E2a: moves per iteration of Algorithm 1",
		Columns: []string{"D", "iterations", "mean_moves", "bound_2D", "mean_missing", "ratio_Rhat_R"},
	}
	hits := &Table{
		Title:   "E2b: per-iteration hit probability vs the 1/(64D) bound",
		Columns: []string{"D", "target", "hit_rate", "bound_1/(64D)", "margin"},
	}
	for _, d := range e2Ds(cfg.Quick) {
		prog, err := search.NewNonUniform(d, 1)
		if err != nil {
			return nil, err
		}
		targets, corner := e2Targets(d)
		root := rng.New(cfg.Seed + uint64(d))
		// Move statistics, unconditioned and conditioned on missing the
		// far corner target.
		var total, totalMissing float64
		missing := 0
		hitCounts := make([]int, len(targets))
		for i := 0; i < iters; i++ {
			src := root.Derive(uint64(i))
			v := grid.NewVisitSet(d)
			env := sim.NewEnv(sim.EnvConfig{Src: src, TrackVisits: v})
			coin := rng.MustCoin(1, src)
			if err := prog.RunIteration(env, coin); err != nil {
				return nil, fmt.Errorf("E2 D=%d iter %d: %w", d, i, err)
			}
			m := float64(env.Moves())
			total += m
			if !v.Contains(corner) {
				totalMissing += m
				missing++
			}
			for j, tg := range targets {
				if v.Contains(tg) {
					hitCounts[j]++
				}
			}
		}
		meanAll := total / float64(iters)
		meanMissing := totalMissing / float64(missing)
		moves.AddRow(d, iters, meanAll, 2*float64(d), meanMissing, meanMissing/meanAll)
		bound := 1 / (64 * float64(d))
		for j, tg := range targets {
			rate := float64(hitCounts[j]) / float64(iters)
			hits.AddRow(d, tg.String(), rate, bound, rate/bound)
		}
	}
	moves.Notes = append(moves.Notes,
		"mean_moves must stay below bound_2D (Lemma 3.1); ratio_Rhat_R must stay below 2 (Lemma 3.2)")
	hits.Notes = append(hits.Notes,
		"margin ≥ 1 everywhere confirms Lemma 3.4's (loose) 1/(64D) bound")
	return []*Table{moves, hits}, nil
}
