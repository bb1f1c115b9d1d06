package stats

import (
	"math"
	"slices"
	"sort"
)

// MannWhitneyResult holds a two-sample Mann–Whitney U test outcome.
type MannWhitneyResult struct {
	U float64 // U statistic of the first sample
	Z float64 // normal approximation z-score (tie-corrected)
	P float64 // two-tailed p-value under H0 "same distribution"
}

// MannWhitneyTest compares the distributions of a and b with the
// rank-based Mann–Whitney U test, using the normal approximation with tie
// correction — accurate for the sample sizes the HiCS contrast works with
// (dozens and up). It extends the deviation-function family of the paper
// (Sec. III-E) with a non-parametric location test: unlike Welch it makes
// no normality assumption, unlike KS it targets location shifts
// specifically.
func MannWhitneyTest(a, b []float64) MannWhitneyResult {
	sa := slices.Clone(a)
	sb := slices.Clone(b)
	slices.Sort(sa)
	slices.Sort(sb)
	return MannWhitneySorted(sa, sb)
}

// MannWhitneySorted is MannWhitneyTest for samples that are already
// sorted ascending. It merges the two samples in one pass, walking each
// tie group across both sides, in O(len(a)+len(b)).
func MannWhitneySorted(a, b []float64) MannWhitneyResult {
	na, nb := float64(len(a)), float64(len(b))
	if len(a) == 0 || len(b) == 0 {
		return MannWhitneyResult{P: 1}
	}
	// Midranks and tie correction term Σ(t³−t), group by group in
	// ascending value order; the midrank is added once per member of a.
	rankSumA := 0.0
	tieTerm := 0.0
	for i, j := 0, 0; i < len(a) || j < len(b); {
		// The group's first member is consumed before the equality walks,
		// so a NaN (equal to nothing) forms a group of its own.
		first, i0 := i+j, i
		var v float64
		if j >= len(b) || (i < len(a) && a[i] <= b[j]) {
			v = a[i]
			i++
		} else {
			v = b[j]
			j++
		}
		for i < len(a) && a[i] == v {
			i++
		}
		for j < len(b) && b[j] == v {
			j++
		}
		last := i + j - 1
		mid := float64(first+last)/2 + 1
		t := float64(last - first + 1)
		tieTerm += t*t*t - t
		for k := i0; k < i; k++ {
			rankSumA += mid
		}
	}
	u := rankSumA - na*(na+1)/2
	mean := na * nb / 2
	nn := na + nb
	variance := na * nb / 12 * ((nn + 1) - tieTerm/(nn*(nn-1)))
	if variance <= 0 {
		// All observations tied: no evidence either way.
		return MannWhitneyResult{U: u, Z: 0, P: 1}
	}
	// Continuity correction.
	z := (u - mean)
	switch {
	case z > 0.5:
		z -= 0.5
	case z < -0.5:
		z += 0.5
	default:
		z = 0
	}
	z /= math.Sqrt(variance)
	p := 2 * (1 - NormalCDF(math.Abs(z)))
	if p > 1 {
		p = 1
	}
	return MannWhitneyResult{U: u, Z: z, P: p}
}

// CramerVonMisesSorted returns the two-sample Cramér–von Mises criterion
// T for samples that are already sorted ascending, normalized to [0, 1)
// via T/(T+1) so it can serve directly as a HiCS deviation value. Unlike
// the KS statistic (which looks at the single largest ECDF gap), the CvM
// criterion integrates the squared gap over the whole domain, making it
// sensitive to distributed shape differences.
func CramerVonMisesSorted(a, b []float64) float64 {
	na, nb := len(a), len(b)
	if na == 0 || nb == 0 {
		return 0
	}
	// T = (nm/(n+m)²)·Σ_k (F_a(z_k) − F_b(z_k))², the sum running over every
	// observation z_k of the pooled sorted sample. One merge pass; within a
	// tie group the a-observations are consumed first, which keeps the
	// statistic deterministic (the classical derivation assumes continuous
	// distributions, so any consistent tie order is acceptable).
	var (
		i, j int
		sum  float64
	)
	for i < na || j < nb {
		if j >= nb || (i < na && a[i] <= b[j]) {
			i++
		} else {
			j++
		}
		d := float64(i)/float64(na) - float64(j)/float64(nb)
		sum += d * d
	}
	t := sum * float64(na) * float64(nb) / float64((na+nb)*(na+nb))
	return t / (t + 1)
}

// CramerVonMises returns the normalized two-sample Cramér–von Mises
// deviation for unsorted samples. The inputs are not modified.
func CramerVonMises(a, b []float64) float64 {
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	return CramerVonMisesSorted(sa, sb)
}
