package main

import (
	"math"
	"sort"
)

// median returns the middle of vs (the mean of the two middle values
// for an even count) and NaN for no values.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := sorted(vs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(vs, n=4) gives them (the exclusive method), so
// a spread computed here is the spread the driver computes. Fewer than
// two values have no spread: both quartiles are the value itself.
func quartiles(vs []float64) (q1, q3 float64) {
	s := sorted(vs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	at := func(quarter int) float64 {
		m := len(s) + 1
		j := min(max(quarter*m/4, 1), len(s)-1)
		delta := quarter*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// iqr is the distance between the quartiles.
func iqr(vs []float64) float64 {
	q1, q3 := quartiles(vs)
	return q3 - q1
}

func sorted(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}
