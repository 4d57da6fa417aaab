package scenario

import (
	"testing"

	"repro/internal/automata"
	"repro/internal/baseline"
	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/sim"
)

// visitSetsEqual compares two visit sets point for point in both
// directions, plus every aggregate statistic.
func visitSetsEqual(t *testing.T, label string, a, b *grid.VisitSet) {
	t.Helper()
	if a == nil || b == nil {
		if a != b {
			t.Fatalf("%s: one visit set is nil (%v vs %v)", label, a, b)
		}
		return
	}
	if a.CountInBall() != b.CountInBall() {
		t.Fatalf("%s: counts diverge: dense %d sparse %d",
			label, a.CountInBall(), b.CountInBall())
	}
	if a.CoverageFraction() != b.CoverageFraction() {
		t.Fatalf("%s: coverage fractions diverge", label)
	}
	a.Each(func(p grid.Point) {
		if !b.Contains(p) {
			t.Fatalf("%s: sparse set missing %v", label, p)
		}
	})
	b.Each(func(p grid.Point) {
		if !a.Contains(p) {
			t.Fatalf("%s: sparse set has extra %v", label, p)
		}
	})
}

// TestSparseVisitsOracleEqualityAllPresets is the acceptance check that the
// sparse visit-set backing is byte-identical to the dense oracle on every
// registered scenario preset, on both engines: same outcomes, same rounds,
// and the same visited set point for point.
func TestSparseVisitsOracleEqualityAllPresets(t *testing.T) {
	const d = 8
	for _, name := range Names() {
		s, err := Build(name, d)
		if err != nil {
			t.Fatalf("Build(%q, %d): %v", name, d, err)
		}

		// Synchronous engine.
		rcfg := s.ApplyRounds(sim.RoundsConfig{
			NumAgents:   3,
			Rounds:      400,
			TrackRadius: 2 * d,
			Workers:     2,
		})
		rcfg.Machine = automata.RandomWalk()
		sparseCfg := rcfg
		sparseCfg.SparseVisits = true
		denseRes, err := sim.RunRounds(rcfg, nil, 13)
		if err != nil {
			t.Fatalf("%s: dense rounds: %v", name, err)
		}
		sparseRes, err := sim.RunRounds(sparseCfg, nil, 13)
		if err != nil {
			t.Fatalf("%s: sparse rounds: %v", name, err)
		}
		if denseRes.Found != sparseRes.Found ||
			denseRes.FoundRound != sparseRes.FoundRound ||
			denseRes.RoundsRun != sparseRes.RoundsRun ||
			denseRes.Crashed != sparseRes.Crashed {
			t.Fatalf("%s: rounds results diverge: %+v vs %+v", name, denseRes, sparseRes)
		}
		if denseRes.Visited.Sparse() {
			t.Fatalf("%s: dense run unexpectedly sparse", name)
		}
		if !sparseRes.Visited.Sparse() {
			t.Fatalf("%s: SparseVisits did not force the sparse backing", name)
		}
		visitSetsEqual(t, name+"/rounds", denseRes.Visited, sparseRes.Visited)

		// Asynchronous engine (rounds-only presets are rejected by design).
		if s.RoundsOnly() {
			continue
		}
		acfg := s.Apply(sim.Config{
			NumAgents:   3,
			MoveBudget:  2000,
			TrackRadius: 2 * d,
			Workers:     2,
		})
		sparseACfg := acfg
		sparseACfg.SparseVisits = true
		denseA, err := sim.RunTrials(acfg, baseline.RandomWalkFactory(), 1, 29)
		if err != nil {
			t.Fatalf("%s: dense async: %v", name, err)
		}
		sparseA, err := sim.RunTrials(sparseACfg, baseline.RandomWalkFactory(), 1, 29)
		if err != nil {
			t.Fatalf("%s: sparse async: %v", name, err)
		}
		if denseA.FoundFrac != sparseA.FoundFrac {
			t.Fatalf("%s: async outcomes diverge: %+v vs %+v", name, denseA, sparseA)
		}
	}
}

// TestSparseVisitsAsyncVisitedEquality drives sim.Run directly (RunTrials
// discards the visit set) and compares merged visit sets across backings.
func TestSparseVisitsAsyncVisitedEquality(t *testing.T) {
	const d = 8
	for _, name := range Names() {
		s, err := Build(name, d)
		if err != nil {
			t.Fatalf("Build(%q, %d): %v", name, d, err)
		}
		if s.RoundsOnly() {
			continue
		}
		acfg := s.Apply(sim.Config{
			NumAgents:   3,
			MoveBudget:  1500,
			TrackRadius: 2 * d,
			Workers:     2,
		})
		sparseCfg := acfg
		sparseCfg.SparseVisits = true
		run := func(cfg sim.Config) *sim.Result {
			res, err := sim.Run(cfg, baseline.RandomWalkFactory(), rng.New(31))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return res
		}
		denseRes := run(acfg)
		sparseRes := run(sparseCfg)
		if denseRes.Found != sparseRes.Found ||
			denseRes.MinMoves != sparseRes.MinMoves ||
			denseRes.MinSteps != sparseRes.MinSteps {
			t.Fatalf("%s: async results diverge: %+v vs %+v", name, denseRes, sparseRes)
		}
		for i := range denseRes.Agents {
			if denseRes.Agents[i] != sparseRes.Agents[i] {
				t.Fatalf("%s: agent %d diverges: %+v vs %+v",
					name, i, denseRes.Agents[i], sparseRes.Agents[i])
			}
		}
		visitSetsEqual(t, name+"/async", denseRes.Visited, sparseRes.Visited)
	}
}
