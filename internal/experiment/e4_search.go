package experiment

import (
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/sim"
)

// e4 reproduces the subroutine guarantees of Section 3.2:
//
//	Lemma 3.8: walk(k, ℓ) performs exactly i moves with probability at
//	           least 1/2^{kℓ+2} for each i ≤ 2^{kℓ}, at least 2^{kℓ} moves
//	           with probability ≥ 1/4, and fewer than 2^{kℓ} expected
//	           moves.
//	Lemma 3.9: search(k, ℓ) visits each (x, y) ∈ {0..2^{kℓ}}² with
//	           probability ≥ 1/2^{kℓ+6} per coordinate argument; we check
//	           the per-point rate against the bound.
func e4() Experiment {
	return Experiment{
		ID:    "E4",
		Title: "walk/search subroutine guarantees (Lemmas 3.8, 3.9)",
		Claim: "Lemmas 3.8 and 3.9",
		Run:   runE4,
	}
}

// The walk/search parameters E4 exercises, the same in the quick and the
// full configuration: k = 2, ℓ = 1, so the span 2^{kℓ} is 4.
const (
	e4K    = 2
	e4Ell  = 1
	e4Span = 1 << (e4K * e4Ell)
)

// e4SearchProbes returns the points E4b probes after search(k, ℓ) with the
// given span, and the radius of the VisitSet that records each trial. The
// set holds its ball only, so every probe must lie inside it.
func e4SearchProbes(span int64) (radius int64, points []grid.Point) {
	return span + 2, []grid.Point{
		{X: 0, Y: 1}, {X: 1, Y: 1}, {X: 2, Y: 2},
		{X: span, Y: span}, {X: -span, Y: span}, {X: span, Y: -1},
	}
}

func runE4(cfg Config) ([]*Table, error) {
	trials := 400000
	if cfg.Quick {
		trials = 60000
	}
	const (
		k    = e4K
		ell  = e4Ell
		span = e4Span
	)

	walkTable := &Table{
		Title:   "E4a: walk(2, 1) length distribution (span 2^{kℓ} = 4)",
		Columns: []string{"length_i", "empirical_P", "bound_1/2^{kℓ+2}", "margin"},
	}
	root := rng.New(cfg.Seed + 17)
	lengths := make(map[int64]int)
	atLeastSpan := 0
	var totalMoves float64
	for i := 0; i < trials; i++ {
		src := root.Derive(uint64(i))
		env := sim.NewEnv(sim.EnvConfig{Src: src})
		coin := rng.MustCoin(ell, src)
		if err := search.Walk(env, coin, k, grid.Right); err != nil {
			return nil, fmt.Errorf("E4 walk trial %d: %w", i, err)
		}
		m := int64(env.Moves())
		lengths[m]++
		totalMoves += float64(m)
		if m >= span {
			atLeastSpan++
		}
	}
	bound := 1 / math.Pow(2, float64(k*ell+2))
	for i := int64(0); i <= span; i++ {
		p := float64(lengths[i]) / float64(trials)
		walkTable.AddRow(i, p, bound, p/bound)
	}
	walkTable.Notes = append(walkTable.Notes,
		fmt.Sprintf("P[length ≥ 2^{kℓ}] = %.3f (Lemma 3.8 bound 0.25)",
			float64(atLeastSpan)/float64(trials)),
		fmt.Sprintf("mean length = %.3f < 2^{kℓ} = %d (Lemma 3.8)",
			totalMoves/float64(trials), span),
	)

	searchTable := &Table{
		Title:   "E4b: search(2, 1) per-point visit probability",
		Columns: []string{"point", "empirical_P", "bound_1/2^{kℓ+6}", "margin"},
	}
	radius, points := e4SearchProbes(span)
	counts := make([]int, len(points))
	root2 := rng.New(cfg.Seed + 18)
	for i := 0; i < trials; i++ {
		src := root2.Derive(uint64(i))
		v := grid.NewVisitSet(radius)
		env := sim.NewEnv(sim.EnvConfig{Src: src, TrackVisits: v})
		coin := rng.MustCoin(ell, src)
		if err := search.BoxSearch(env, coin, k); err != nil {
			return nil, fmt.Errorf("E4 search trial %d: %w", i, err)
		}
		for j, p := range points {
			if v.Contains(p) {
				counts[j]++
			}
		}
	}
	pointBound := 1 / math.Pow(2, float64(k*ell+6))
	for j, p := range points {
		rate := float64(counts[j]) / float64(trials)
		searchTable.AddRow(p.String(), rate, pointBound, rate/pointBound)
	}
	searchTable.Notes = append(searchTable.Notes,
		"margin ≥ 1 for every probed point of the square confirms Lemma 3.9")
	return []*Table{walkTable, searchTable}, nil
}
