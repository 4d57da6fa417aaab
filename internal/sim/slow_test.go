//go:build slow

package sim

import (
	"runtime"
	"testing"

	"repro/internal/automata"
)

// TestMillionAgentUnboundedSmoke is the tentpole's scale gate (run with
// -tags slow): one process steps 2²⁰ agents through a few synchronous
// rounds on an unbounded arena — TrackRadius 2⁴⁰ forces the sparse
// visit-set backing — inside a 1 GB memory budget.
func TestMillionAgentUnboundedSmoke(t *testing.T) {
	const (
		agents   = 1 << 20
		rounds   = 4
		memLimit = 1 << 30
	)
	res, err := RunRounds(RoundsConfig{
		Machine:     automata.RandomWalk(),
		NumAgents:   agents,
		Rounds:      rounds,
		TrackRadius: 1 << 40,
	}, nil, 99)
	if err != nil {
		t.Fatal(err)
	}
	if res.RoundsRun != rounds {
		t.Fatalf("RoundsRun = %d, want %d", res.RoundsRun, rounds)
	}
	if res.Visited == nil || !res.Visited.Sparse() {
		t.Fatal("unbounded-arena run did not select the sparse visit backing")
	}
	// In `rounds` steps a walker reaches exactly the Manhattan-radius
	// diamond of 2r(r+1)+1 cells, and 2^20 agents saturate it w.h.p.
	if want := int64(2*rounds*(rounds+1) + 1); res.Visited.CountInBall() != want {
		t.Fatalf("coverage = %d cells, want the full radius-%d diamond (%d)",
			res.Visited.CountInBall(), rounds, want)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	// Sys is everything the Go runtime reserved from the OS — an upper
	// bound on the process's steady-state RSS contribution.
	if ms.Sys > memLimit {
		t.Fatalf("runtime.MemStats.Sys = %d MB, budget %d MB",
			ms.Sys>>20, memLimit>>20)
	}
	t.Logf("1M agents × %d rounds: %d cells visited, Sys = %d MB",
		rounds, res.Visited.CountInBall(), ms.Sys>>20)
}
