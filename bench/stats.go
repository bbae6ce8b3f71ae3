package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples a reported percentile must have
// beyond it: a p99 of 500 samples would rest on five of them.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of sorted durations by the
// nearest-rank rule. It refuses a percentile with fewer than minBeyond
// samples beyond it.
func percentile(sorted []time.Duration, q float64) (time.Duration, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("percentile %g of no samples", q)
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	beyond := n - rank
	if beyond < minBeyond {
		return 0, fmt.Errorf("percentile %g of %d samples has %d beyond it, want at least %d", q, n, beyond, minBeyond)
	}
	return sorted[rank-1], nil
}

// quartiles returns the three quartiles of vals as Python's
// statistics.quantiles(vals, n=4) computes them (the exclusive method), so
// the spread the benchmark reports about itself is the one its driver
// computes. It needs at least two values.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		delta := i*m - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(vals []float64) float64 {
	_, m, _ := quartiles(vals)
	return m
}

// spreadPct is the distance between the first and third quartile as a
// percentage of the median.
func spreadPct(vals []float64) float64 {
	q1, q2, q3 := quartiles(vals)
	if q2 == 0 {
		return 0
	}
	return 100 * (q3 - q1) / math.Abs(q2)
}

// scale applies a speed factor to a duration.
func scale(d time.Duration, factor float64) time.Duration {
	return time.Duration(float64(d) * factor)
}

// sortedKeys returns a map's keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
