package lowerbound

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/automata"
)

// TheoremParams instantiates the quantities of the Section 4 proof for a
// concrete machine and distance D, with the proof's unspecified constant c
// set to 1 so the asymptotics become inspectable numbers:
//
//	R₀ = p₀^(−2^b) · 2^b · log D      (Lemma 4.2: w.h.p. any always-
//	                                   reachable state is visited within
//	                                   R₀ rounds)
//	β  = |S| · ln D / p₀^|S|          (Section 4.2.2: the block size after
//	                                   which the state distribution is
//	                                   within 1/D^c of stationary)
//	Δ  = D² / (β · |S|² · log D)      (the D^{2−o(1)} horizon the bound
//	                                   holds for)
//	CoverBound = |S| · D · (D/|S|) / β^{1/2} ... reported instead as the
//	   strip-area fraction: |C| · O(D) · o(D/|S|) / D².
//
// These are the o(1)-suppressed terms of Theorem 4.1: meaningful only when
// χ(A) ≤ log log D − ω(1), i.e. when p₀^(−2^b) remains D^{o(1)}.
type TheoremParams struct {
	B        int     // memory bits b
	NumState int     // |S|
	P0       float64 // smallest non-zero transition probability
	Chi      float64
	R0       float64 // initial-rounds bound of Lemma 4.2
	Beta     float64 // mixing block size β
	Delta    float64 // step horizon Δ = D^{2−o(1)}
	// Applicable reports whether the machine is in the theorem's regime:
	// χ ≤ log log D (so that R₀ and β stay D^{o(1)}).
	Applicable bool
}

// ComputeParams evaluates the Section 4 quantities for machine m at
// distance d.
func ComputeParams(m *automata.Machine, d int64) (*TheoremParams, error) {
	if m == nil {
		return nil, errors.New("lowerbound: nil machine")
	}
	if d < 4 {
		return nil, fmt.Errorf("lowerbound: distance %d too small for the asymptotic quantities", d)
	}
	b := m.MemoryBits()
	if b < 1 {
		b = 1
	}
	s := float64(m.NumStates())
	p0 := m.MinProb()
	logD := math.Log2(float64(d))
	params := &TheoremParams{
		B:        b,
		NumState: m.NumStates(),
		P0:       p0,
		Chi:      m.Chi(),
	}
	params.R0 = math.Pow(p0, -math.Pow(2, float64(b))) * math.Pow(2, float64(b)) * logD
	params.Beta = s * math.Log(float64(d)) / math.Pow(p0, s)
	params.Delta = float64(d) * float64(d) / (params.Beta * s * s * logD)
	params.Applicable = InRegime(params.Chi, d)
	return params, nil
}

// InRegime reports whether selection complexity chi is in Theorem 4.1's
// regime at distance d: χ ≤ log log D (logarithms base 2). It is the test
// behind TheoremParams.Applicable, exposed for algorithms audited by χ
// alone rather than by a machine.
func InRegime(chi float64, d int64) bool {
	return chi <= math.Log2(math.Log2(float64(d)))+1e-9
}

// String formats the parameters compactly.
func (p *TheoremParams) String() string {
	return fmt.Sprintf("b=%d |S|=%d p0=%.4g χ=%.2f R0=%.3g β=%.3g Δ=%.3g applicable=%v",
		p.B, p.NumState, p.P0, p.Chi, p.R0, p.Beta, p.Delta, p.Applicable)
}
