package sim

import (
	"sync/atomic"
	"testing"

	"repro/internal/automata"
	"repro/internal/grid"
	"repro/internal/rng"
)

// TestRunRoundsWorkerPoolRace drives the persistent worker pool hard with
// every concurrent feature on (target detection, visit striping,
// checkpoints, observer) so `go test -race` exercises the round barrier.
func TestRunRoundsWorkerPoolRace(t *testing.T) {
	var checkpoints atomic.Int64
	var observed atomic.Int64
	res, err := RunRounds(RoundsConfig{
		Machine:     automata.RandomWalk(),
		NumAgents:   300,
		Rounds:      400,
		Target:      grid.Point{X: 2, Y: 2},
		HasTarget:   true,
		TrackRadius: 24,
		Workers:     8, // force a multi-worker pool despite the small swarm
		Checkpoints: []uint64{50, 100, 200, 400},
		CheckpointFn: func(round uint64, v *grid.VisitSet) {
			checkpoints.Add(1)
			if v.CountInBall() < 1 {
				t.Errorf("round %d: empty merged visit set", round)
			}
		},
	}, RoundObserverFunc(func(round uint64, agents []AgentState) {
		observed.Add(1)
		if len(agents) != 300 {
			t.Errorf("round %d: observer saw %d agents", round, len(agents))
		}
	}), 21)
	if err != nil {
		t.Fatal(err)
	}
	if res.RoundsRun != 400 || observed.Load() != 400 || checkpoints.Load() != 4 {
		t.Errorf("rounds=%d observed=%d checkpoints=%d, want 400/400/4",
			res.RoundsRun, observed.Load(), checkpoints.Load())
	}
	if !res.Found {
		t.Error("300 random walkers should hit (2,2) within 400 rounds")
	}
	if res.Visited == nil || !res.Visited.Contains(grid.Origin) {
		t.Error("merged visit set must contain the origin")
	}
}

// TestRunRoundsDeterministicAcrossWorkerCounts: the engine's results are a
// function of the seed only — worker count and striping must not leak into
// the outcome.
func TestRunRoundsDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) (*RoundsResult, []int64) {
		var counts []int64
		res, err := RunRounds(RoundsConfig{
			Machine:     automata.RandomWalk(),
			NumAgents:   64,
			Rounds:      512,
			Target:      grid.Point{X: 3, Y: 1},
			HasTarget:   true,
			TrackRadius: 16,
			Workers:     workers,
			Checkpoints: []uint64{128, 512},
			CheckpointFn: func(round uint64, v *grid.VisitSet) {
				counts = append(counts, v.CountInBall())
			},
		}, nil, 1234)
		if err != nil {
			t.Fatal(err)
		}
		return res, counts
	}
	base, baseCounts := run(1)
	for _, workers := range []int{2, 3, 7, 16} {
		res, counts := run(workers)
		if res.Found != base.Found || res.FoundRound != base.FoundRound {
			t.Errorf("workers=%d: found %v@%d, want %v@%d",
				workers, res.Found, res.FoundRound, base.Found, base.FoundRound)
		}
		if res.Visited.CountInBall() != base.Visited.CountInBall() {
			t.Errorf("workers=%d: coverage %d, want %d", workers,
				res.Visited.CountInBall(), base.Visited.CountInBall())
		}
		for i := range baseCounts {
			if counts[i] != baseCounts[i] {
				t.Errorf("workers=%d: checkpoint counts %v, want %v", workers, counts, baseCounts)
				break
			}
		}
	}
}

// TestRunRoundsCheckpointValidation covers the checkpoint argument checks.
func TestRunRoundsCheckpointValidation(t *testing.T) {
	m := automata.RandomWalk()
	fn := func(uint64, *grid.VisitSet) {}
	if _, err := RunRounds(RoundsConfig{
		Machine: m, NumAgents: 1, Rounds: 8,
		Checkpoints: []uint64{4}, CheckpointFn: fn,
	}, nil, 1); err == nil {
		t.Error("checkpoints without TrackRadius should fail")
	}
	if _, err := RunRounds(RoundsConfig{
		Machine: m, NumAgents: 1, Rounds: 8, TrackRadius: 4,
		Checkpoints: []uint64{4},
	}, nil, 1); err == nil {
		t.Error("checkpoints without CheckpointFn should fail")
	}
	if _, err := RunRounds(RoundsConfig{
		Machine: m, NumAgents: 1, Rounds: 8, TrackRadius: 4,
		Checkpoints: []uint64{4, 4}, CheckpointFn: fn,
	}, nil, 1); err == nil {
		t.Error("non-increasing checkpoints should fail")
	}
	if _, err := RunRounds(RoundsConfig{
		Machine: m, NumAgents: 1, Rounds: 8, TrackRadius: 4,
		Checkpoints: []uint64{0, 4}, CheckpointFn: fn,
	}, nil, 1); err == nil {
		t.Error("checkpoint 0 can never fire and should fail")
	}
	if _, err := RunRounds(RoundsConfig{
		Machine: m, NumAgents: 1, Rounds: 8, TrackRadius: 4,
		Checkpoints: []uint64{4, 16}, CheckpointFn: fn,
	}, nil, 1); err == nil {
		t.Error("checkpoint beyond Rounds can never fire and should fail")
	}
	if _, err := RunRounds(RoundsConfig{
		Machine: m, NumAgents: 1, Rounds: 8, TrackRadius: 4, StopOnFound: true,
		Checkpoints: []uint64{4}, CheckpointFn: fn,
	}, nil, 1); err == nil {
		t.Error("StopOnFound with checkpoints should fail (early stop would skip them)")
	}
	if _, err := CoverageCurveWith(RoundsConfig{
		Machine: m, NumAgents: 1,
	}, []uint64{4}, 1); err == nil {
		t.Error("coverage curve without radius should fail")
	}
}

// TestCoverageCurveWithIgnoresStopOnFound: the curve contract is that every
// checkpoint fires; a tracked target must not truncate the run.
func TestCoverageCurveWithIgnoresStopOnFound(t *testing.T) {
	counts, err := CoverageCurveWith(RoundsConfig{
		Machine:     automata.RandomWalk(),
		NumAgents:   8,
		TrackRadius: 16,
		Target:      grid.Point{X: 1, Y: 0},
		HasTarget:   true,
		StopOnFound: true, // must be overridden
	}, []uint64{64, 256}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] < 2 || counts[1] <= counts[0] {
		t.Errorf("curve truncated despite StopOnFound override: %v", counts)
	}
}

// TestCoverageCurveWithMatchesCoverageCurve: the explicit-config entry point
// must agree with the simple one for the same parameters.
func TestCoverageCurveWithMatchesCoverageCurve(t *testing.T) {
	cps := []uint64{16, 64, 256}
	a, err := CoverageCurve(automata.RandomWalk(), 4, 20, cps, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CoverageCurveWith(RoundsConfig{
		Machine:     automata.RandomWalk(),
		NumAgents:   4,
		TrackRadius: 20,
		Workers:     3,
	}, cps, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("curves diverge: %v vs %v", a, b)
			break
		}
	}
}

// TestRunAtomicQueueStress hammers the async engine's atomic work counter
// with many more agents than workers and verifies every slot is written
// exactly once with its own substream (detected via per-agent variety).
func TestRunAtomicQueueStress(t *testing.T) {
	f, err := MachineFactory(automata.RandomWalk(), 32)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		NumAgents:   2000,
		Target:      grid.Point{X: 1, Y: 1},
		HasTarget:   true,
		MoveBudget:  64,
		TrackRadius: 10,
		Workers:     12,
	}, f, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Agents) != 2000 {
		t.Fatalf("agents = %d", len(res.Agents))
	}
	// Every agent ran: a machine walker with a 32-step budget always
	// records steps.
	variety := map[uint64]bool{}
	for id, a := range res.Agents {
		if a.Steps == 0 {
			t.Fatalf("agent %d never ran (zero steps)", id)
		}
		variety[a.Moves] = true
	}
	if len(variety) < 2 {
		t.Error("all agents produced identical move counts: substreams broken?")
	}
	if !res.Found {
		t.Error("2000 random walkers should find (1,1)")
	}
}
