package experiment

import (
	"fmt"
	"math"

	"repro/internal/automata"
	"repro/internal/lowerbound"
	"repro/internal/search"
	"repro/internal/sim"
)

// e8 probes the χ threshold itself: log log D is where searchability can
// switch on. At or below it (χ ≤ log log D, Theorem 4.1's regime) agents
// cover o(D²) and miss adversarial targets. Crossing it is necessary but
// not sufficient: drift machines past it still miss, while the paper's
// Non-Uniform-Search (χ = log log D + O(1)) finds every target in
// O(D²/n + D) moves. Each row's side column is the regime test itself.
func e8() Experiment {
	return Experiment{
		ID:    "E8",
		Title: "The log log D threshold for selection complexity",
		Claim: "Theorem 4.1 (below threshold) vs Theorem 3.7 (above threshold)",
		Run:   runE8,
	}
}

func runE8(cfg Config) ([]*Table, error) {
	d := int64(128)
	agents := 8
	trials := 20
	if cfg.Quick {
		d = 64
		agents = 4
		trials = 8
	}
	loglogD := math.Log2(math.Log2(float64(d)))

	table := &Table{
		Title: fmt.Sprintf(
			"E8: search success across the χ spectrum at D = %d (log log D = %.2f)", d, loglogD),
		Columns: []string{"machine", "b", "ℓ", "χ", "side", "coverage", "found_frac", "mean_moves"},
	}

	// Drift machines with growing state budgets, on both sides of the
	// threshold. All of them have a single drift line, so coverage stays
	// o(D²) no matter how many bits they spend.
	for _, bits := range []int{1, 2, 3, 4, 6} {
		m, err := automata.DriftLineMachine(bits)
		if err != nil {
			return nil, err
		}
		res, err := lowerbound.MeasureCoverage(m, lowerbound.CoverageConfig{
			D:         d,
			NumAgents: agents,
			Workers:   cfg.Workers,
		}, cfg.Seed+uint64(bits))
		if err != nil {
			return nil, fmt.Errorf("E8 drift-%dbit: %w", bits, err)
		}
		foundFrac := 0.0
		if res.FoundAdversarial {
			foundFrac = 1
		}
		table.AddRow(fmt.Sprintf("drift-%dbit", bits), bits, m.Ell(), m.Chi(),
			e8Side(m.Chi(), d), res.Fraction, foundFrac, "-")
	}
	// The diffusive extreme.
	rw := automata.RandomWalk()
	res, err := lowerbound.MeasureCoverage(rw, lowerbound.CoverageConfig{
		D:         d,
		NumAgents: agents,
		Workers:   cfg.Workers,
	}, cfg.Seed+50)
	if err != nil {
		return nil, err
	}
	rwFound := 0.0
	if res.FoundAdversarial {
		rwFound = 1
	}
	table.AddRow("random-walk", 3, rw.Ell(), rw.Chi(), e8Side(rw.Chi(), d), res.Fraction, rwFound, "-")

	// The paper's algorithm with χ = log log D + O(1) finds adversarially
	// placed corner targets reliably.
	prog, err := search.NewNonUniform(d, 1)
	if err != nil {
		return nil, err
	}
	factory, err := search.NonUniformFactory(d, 1)
	if err != nil {
		return nil, err
	}
	st, err := sim.RunPlacedTrials(sim.Config{
		NumAgents:  agents,
		MoveBudget: uint64(d*d) * 512,
		Workers:    cfg.Workers,
	}, sim.PlaceCorner, d, factory, trials, cfg.Seed+51)
	if err != nil {
		return nil, err
	}
	a := prog.Audit()
	table.AddRow("non-uniform-search", a.B, a.Ell, a.Chi(), e8Side(a.Chi(), d),
		"-", st.FoundFrac, meanOf(st.Moves))

	table.Notes = append(table.Notes,
		"side is Theorem 4.1's regime test: below means χ ≤ log log D, where coverage stays o(D²) and adversarial targets are missed",
		"χ above log log D is necessary but not sufficient: drift machines past it still spend their bits on a single drift line and miss just the same",
		"Non-Uniform-Search, with χ = log log D + O(1), finds every target fast — the paper's headline trade-off")
	return []*Table{table}, nil
}

// e8Side names the side of the log log D threshold that χ falls on at
// distance d, by Theorem 4.1's regime test — the one behind the
// applicability E6c reports.
func e8Side(chi float64, d int64) string {
	if lowerbound.InRegime(chi, d) {
		return "below"
	}
	return "above"
}
