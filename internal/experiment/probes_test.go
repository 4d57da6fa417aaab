package experiment

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/automata"
	"repro/internal/lowerbound"
	"repro/internal/search"
)

// TestE2E4ProbesInsideBall: a VisitSet records its radius-r ball only, so a
// probe outside it would silently read "not visited". Every point E2 and E4
// probe must lie in the ball of the set that records the trial, for every D
// and span in both the quick and the full configuration.
func TestE2E4ProbesInsideBall(t *testing.T) {
	for _, quick := range []bool{true, false} {
		for _, d := range e2Ds(quick) {
			targets, corner := e2Targets(d)
			for _, p := range append(targets, corner) {
				if p.Norm() > d {
					t.Errorf("quick=%v: E2 probe %v lies outside the D=%d ball", quick, p, d)
				}
			}
		}
	}
	radius, points := e4SearchProbes(e4Span)
	for _, p := range points {
		if p.Norm() > radius {
			t.Errorf("E4 probe %v lies outside the radius-%d ball (span %d)", p, radius, e4Span)
		}
	}
}

// TestE8SideMatchesRegime: each E8 row's side column must be Theorem 4.1's
// regime test on that row's χ — "below" exactly when χ ≤ log log D.
func TestE8SideMatchesRegime(t *testing.T) {
	const d = 64 // E8's quick radius
	tables, err := runE8(Config{Seed: 1, Quick: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if !strings.Contains(tb.Title, fmt.Sprintf("D = %d ", d)) {
		t.Fatalf("E8 quick title %q does not name D = %d", tb.Title, d)
	}
	loglogD := math.Log2(math.Log2(d))
	for _, row := range tb.Rows {
		name, side := row[0], row[4]
		var chi float64
		var machine *automata.Machine
		switch {
		case name == "random-walk":
			machine = automata.RandomWalk()
		case name == "non-uniform-search":
			prog, err := search.NewNonUniform(d, 1)
			if err != nil {
				t.Fatal(err)
			}
			chi = prog.Audit().Chi()
		default:
			var bits int
			if _, err := fmt.Sscanf(name, "drift-%dbit", &bits); err != nil {
				t.Fatalf("unexpected E8 row %q", name)
			}
			if machine, err = automata.DriftLineMachine(bits); err != nil {
				t.Fatal(err)
			}
		}
		if machine != nil {
			chi = machine.Chi()
			tp, err := lowerbound.ComputeParams(machine, d)
			if err != nil {
				t.Fatal(err)
			}
			if tp.Applicable != (chi <= loglogD) {
				t.Errorf("%s: Applicable = %v for χ = %v at log log D = %.2f", name, tp.Applicable, chi, loglogD)
			}
		}
		want := "above"
		if chi <= loglogD {
			want = "below"
		}
		if side != want {
			t.Errorf("%s: side = %q, want %q (χ = %v, log log D = %.2f)", name, side, want, chi, loglogD)
		}
	}
}
