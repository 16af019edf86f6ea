package main

import (
	"math"
	"sort"
)

// sample is the distribution of one metric over the rounds of a run.
type sample []float64

func (s sample) sorted() []float64 {
	xs := append([]float64(nil), s...)
	sort.Float64s(xs)
	return xs
}

// quartiles returns Q1, the median and Q3 the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), because that
// is what the repeatability criterion is stated in. Fewer than two values
// have no spread: all three are the value itself (0 for none).
func (s sample) quartiles() (q1, med, q3 float64) {
	xs := s.sorted()
	m := len(xs)
	switch m {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// percentile is the nearest-rank p-th percentile (p in [0,100]).
func (s sample) percentile(p float64) float64 {
	xs := s.sorted()
	if len(xs) == 0 {
		return 0
	}
	k := int(math.Ceil(p/100*float64(len(xs)))) - 1
	if k < 0 {
		k = 0
	}
	return xs[k]
}

func (s sample) sum() float64 {
	t := 0.0
	for _, x := range s {
		t += x
	}
	return t
}

func (s sample) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}
