// Package stats implements the statistical machinery HiCS is built on:
// descriptive moments, the Student-t distribution (via the regularized
// incomplete beta function), Welch's unequal-variance t-test with the
// Welch–Satterthwaite degrees of freedom, and the two-sample
// Kolmogorov–Smirnov test.
//
// Only the standard library is used. The special functions are implemented
// with the classical continued-fraction expansions (Lentz's algorithm) and
// are accurate to roughly 1e-12 over the parameter ranges that occur in
// subspace contrast computation.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs. It returns NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// MeanVar returns the sample mean and the unbiased sample variance
// (denominator n−1) in a single pass, using Welford's algorithm for
// numerical stability. Variance is NaN for fewer than two observations.
func MeanVar(xs []float64) (mean, variance float64) {
	m, m2 := welford(xs, 0, 0, 0)
	return moments(len(xs), m, m2)
}

// MeanVar4 returns MeanVar of each of four samples. It runs the four
// Welford chains side by side over the samples' common prefix, so the CPU
// overlaps their dependent divisions instead of waiting on one chain at a
// time, and then finishes each tail alone. Each chain performs MeanVar's
// operations in MeanVar's order, so every result is bit-identical to
// MeanVar on that sample; only a NaN's payload may differ, since the
// compiler may order the operands of an addition differently. The
// samples may share memory.
func MeanVar4(xs [4][]float64) (mean, variance [4]float64) {
	a := xs[0][:min(len(xs[0]), len(xs[1]), len(xs[2]), len(xs[3]))]
	b, c, d := xs[1][:len(a)], xs[2][:len(a)], xs[3][:len(a)]
	var ma, mb, mc, md, sa, sb, sc, sd float64
	for i := range a {
		n := float64(i + 1)
		x, y, z, w := a[i], b[i], c[i], d[i]
		da, db, dc, dd := x-ma, y-mb, z-mc, w-md
		ma += da / n
		mb += db / n
		mc += dc / n
		md += dd / n
		sa += da * (x - ma)
		sb += db * (y - mb)
		sc += dc * (z - mc)
		sd += dd * (w - md)
	}
	m, m2 := [4]float64{ma, mb, mc, md}, [4]float64{sa, sb, sc, sd}
	for l, x := range xs {
		m[l], m2[l] = welford(x, len(a), m[l], m2[l])
		mean[l], variance[l] = moments(len(x), m[l], m2[l])
	}
	return mean, variance
}

// welford continues Welford's update over xs[from:], starting from the
// running mean m and sum of squared deviations m2 of xs[:from].
func welford(xs []float64, from int, m, m2 float64) (float64, float64) {
	for i, x := range xs[from:] {
		delta := x - m
		m += delta / float64(from+i+1)
		m2 += delta * (x - m)
	}
	return m, m2
}

// moments turns Welford's running state over n observations into MeanVar's
// results.
func moments(n int, m, m2 float64) (mean, variance float64) {
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n < 2 {
		return m, math.NaN()
	}
	return m, m2 / float64(n-1)
}

// Variance returns the unbiased sample variance of xs.
func Variance(xs []float64) float64 {
	_, v := MeanVar(xs)
	return v
}

// Stddev returns the unbiased sample standard deviation of xs.
func Stddev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// MinMax returns the minimum and maximum of xs.
// It returns (NaN, NaN) for an empty slice.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Median returns the median of xs without modifying it.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if q <= 0 {
		return cp[0]
	}
	if q >= 1 {
		return cp[len(cp)-1]
	}
	pos := q * float64(len(cp)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(cp) {
		return cp[len(cp)-1]
	}
	return cp[i]*(1-frac) + cp[i+1]*frac
}
