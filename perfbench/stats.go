package main

import (
	"fmt"
	"math"
	"sort"
)

// rank is the nearest-rank percentile rule: the q-quantile of n sorted
// samples is the sample at 1-based rank ceil(q·n). It returns the 0-based
// index and how many samples lie beyond it.
func rank(q float64, n int) (idx, beyond int) {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r - 1, n - r
}

// percentile is one latency percentile with the evidence that it does not
// sit on a cliff: the samples ranked just below and just above it.
type percentile struct {
	Q      float64 `json:"q"`
	Value  float64 `json:"value_ms"`
	Below  float64 `json:"below_ms"`
	Above  float64 `json:"above_ms"`
	N      int     `json:"samples"`
	Beyond int     `json:"beyond"`
}

// latencyPercentile applies the rank rule to op latencies in ms. Failed
// ops are +Inf: they count as missing every latency. It refuses a
// percentile with fewer than minBeyond samples beyond it, or one that
// lands on a failed op.
func latencyPercentile(lat []float64, q float64, minBeyond int) (percentile, error) {
	s := append([]float64(nil), lat...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return percentile{}, fmt.Errorf("no samples for p%.0f", q*100)
	}
	i, beyond := rank(q, n)
	if beyond < minBeyond {
		return percentile{}, fmt.Errorf("p%.0f of %d samples has %d beyond it, want at least %d", q*100, n, beyond, minBeyond)
	}
	if math.IsInf(s[i], 1) {
		return percentile{}, fmt.Errorf("p%.0f lands on a failed op (%d of %d samples)", q*100, countInf(s), n)
	}
	p := percentile{Q: q, Value: s[i], Below: s[max(i-1, 0)], Above: s[min(i+1, n-1)], N: n, Beyond: beyond}
	return p, nil
}

func countInf(s []float64) int {
	c := 0
	for _, v := range s {
		if math.IsInf(v, 1) {
			c++
		}
	}
	return c
}

// median of a non-empty sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, Q2, Q3 by the "exclusive" method of Python's
// statistics.quantiles(xs, n=4), the rule the steadiness gate uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}
