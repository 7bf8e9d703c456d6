package main

import (
	"math"
	"sort"

	"repro/internal/mathx"
)

// quantile is mathx.Quantile with 0 for an empty series: a metric that does
// not exist on a workload reports 0, and NaN has no JSON form.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return mathx.Quantile(xs, q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), so the spread
// this benchmark reports is the one the acceptance procedure computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*d
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

func ms(ns float64) float64 { return ns / 1e6 }
