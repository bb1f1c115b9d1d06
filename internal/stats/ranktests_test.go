package stats

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"hics/internal/rng"
)

func TestMannWhitneyIdentical(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	res := MannWhitneyTest(a, a)
	if res.Z != 0 {
		t.Errorf("Z = %v, want 0", res.Z)
	}
	if !almostEq(res.P, 1, 1e-9) {
		t.Errorf("P = %v, want 1", res.P)
	}
}

func TestMannWhitneyShifted(t *testing.T) {
	r := rng.New(1)
	a := make([]float64, 150)
	b := make([]float64, 150)
	for i := range a {
		a[i] = r.Normal()
		b[i] = r.Normal() + 1.5
	}
	res := MannWhitneyTest(a, b)
	if res.P > 1e-6 {
		t.Errorf("shifted distributions P = %v, want ~0", res.P)
	}
	if 1-MannWhitneyTest(a, b).P < 0.999 {
		t.Error("deviation for clear shift should be ~1")
	}
}

func TestMannWhitneySameDistribution(t *testing.T) {
	r := rng.New(2)
	// Under H0 the p-values are uniform → mean deviation ~0.5.
	const reps = 200
	sum := 0.0
	for rep := 0; rep < reps; rep++ {
		a := make([]float64, 80)
		b := make([]float64, 80)
		for i := range a {
			a[i] = r.Normal()
			b[i] = r.Normal()
		}
		sum += 1 - MannWhitneyTest(a, b).P
	}
	mean := sum / reps
	if mean < 0.38 || mean > 0.62 {
		t.Errorf("mean H0 deviation = %v, want ~0.5", mean)
	}
}

func TestMannWhitneyKnownU(t *testing.T) {
	// Hand-computed example: a = {1, 2}, b = {3, 4}.
	// All b beat all a: U_a = 0.
	res := MannWhitneyTest([]float64{1, 2}, []float64{3, 4})
	if res.U != 0 {
		t.Errorf("U = %v, want 0", res.U)
	}
	// Reversed: U_a = n·m = 4.
	res = MannWhitneyTest([]float64{3, 4}, []float64{1, 2})
	if res.U != 4 {
		t.Errorf("U = %v, want 4", res.U)
	}
}

func TestMannWhitneyDegenerate(t *testing.T) {
	if res := MannWhitneyTest(nil, []float64{1}); res.P != 1 {
		t.Errorf("empty sample P = %v", res.P)
	}
	// All values identical: zero variance, P = 1.
	if res := MannWhitneyTest([]float64{5, 5, 5}, []float64{5, 5}); res.P != 1 {
		t.Errorf("all-tied P = %v", res.P)
	}
	// A NaN equals nothing, so it must form a group of its own rather
	// than stall the merge.
	nan := math.NaN()
	if res := MannWhitneyTest([]float64{1, nan, 2}, []float64{nan, 1}); res.P < 0 || res.P > 1 {
		t.Errorf("NaN samples P = %v", res.P)
	}
}

func TestCramerVonMisesIdentical(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	if d := CramerVonMises(a, a); d > 0.15 {
		t.Errorf("CvM of identical samples = %v, want small", d)
	}
}

func TestCramerVonMisesDisjoint(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	b := []float64{11, 12, 13, 14, 15, 16, 17, 18, 19, 20}
	d := CramerVonMises(a, b)
	if d < 0.5 {
		t.Errorf("CvM of disjoint samples = %v, want large", d)
	}
}

func TestCramerVonMisesOrderInvariance(t *testing.T) {
	r := rng.New(3)
	a := make([]float64, 40)
	b := make([]float64, 25)
	for i := range a {
		a[i] = r.Normal()
	}
	for i := range b {
		b[i] = r.Normal() + 0.3
	}
	want := CramerVonMises(a, b)
	// Shuffle inputs; unsorted entry point must sort internally.
	r.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
	if got := CramerVonMises(a, b); !almostEq(got, want, 1e-12) {
		t.Errorf("CvM depends on input order: %v vs %v", got, want)
	}
}

func TestCramerVonMisesSortedMatchesUnsorted(t *testing.T) {
	r := rng.New(4)
	a := make([]float64, 30)
	b := make([]float64, 50)
	for i := range a {
		a[i] = r.Float64()
	}
	for i := range b {
		b[i] = r.Float64()
	}
	want := CramerVonMises(a, b)
	sort.Float64s(a)
	sort.Float64s(b)
	if got := CramerVonMisesSorted(a, b); !almostEq(got, want, 1e-12) {
		t.Errorf("sorted path %v != unsorted %v", got, want)
	}
}

func TestCramerVonMisesEmpty(t *testing.T) {
	if d := CramerVonMisesSorted(nil, []float64{1}); d != 0 {
		t.Errorf("empty CvM = %v", d)
	}
}

func TestCramerVonMisesMoreSensitiveThanKSForShapes(t *testing.T) {
	// Same median, different spread: a distributed shape difference.
	r := rng.New(5)
	a := make([]float64, 400)
	b := make([]float64, 400)
	for i := range a {
		a[i] = r.NormalScaled(0, 1)
		b[i] = r.NormalScaled(0, 2)
	}
	cvm := CramerVonMises(a, b)
	if cvm < 0.3 {
		t.Errorf("CvM for variance difference = %v, want clearly above noise", cvm)
	}
}

// Property: both deviations are in [0,1] and symmetric in sample order.
func TestQuickRankDeviationsBoundsAndSymmetry(t *testing.T) {
	f := func(seed uint64, nA, nB uint8, shiftRaw float64) bool {
		r := rng.New(seed)
		na := int(nA%40) + 3
		nb := int(nB%40) + 3
		shift := 0.0
		if !math.IsNaN(shiftRaw) && !math.IsInf(shiftRaw, 0) {
			shift = math.Mod(shiftRaw, 5)
		}
		a := make([]float64, na)
		b := make([]float64, nb)
		for i := range a {
			a[i] = r.Normal()
		}
		for i := range b {
			b[i] = r.Normal() + shift
		}
		dmw1 := 1 - MannWhitneyTest(a, b).P
		dmw2 := 1 - MannWhitneyTest(b, a).P
		if dmw1 < 0 || dmw1 > 1 || !almostEq(dmw1, dmw2, 1e-9) {
			return false
		}
		dcv1 := CramerVonMises(a, b)
		dcv2 := CramerVonMises(b, a)
		return dcv1 >= 0 && dcv1 < 1 && almostEq(dcv1, dcv2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: larger location shifts never decrease the Mann–Whitney
// deviation much (monotone sensitivity on average).
func TestQuickMannWhitneyMonotoneInShift(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		a := make([]float64, 100)
		base := make([]float64, 100)
		for i := range a {
			a[i] = r.Normal()
			base[i] = r.Normal()
		}
		small := make([]float64, 100)
		large := make([]float64, 100)
		for i := range base {
			small[i] = base[i] + 0.2
			large[i] = base[i] + 2.0
		}
		dSmall := 1 - MannWhitneyTest(a, small).P
		dLarge := 1 - MannWhitneyTest(a, large).P
		return dLarge >= dSmall-0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// mannWhitneyReference is MannWhitneyTest as it was before the merge:
// the pooled samples sorted as one, midranks assigned group by group.
func mannWhitneyReference(a, b []float64) MannWhitneyResult {
	na, nb := float64(len(a)), float64(len(b))
	if len(a) == 0 || len(b) == 0 {
		return MannWhitneyResult{P: 1}
	}
	type obs struct {
		v     float64
		fromA bool
	}
	all := make([]obs, 0, len(a)+len(b))
	for _, v := range a {
		all = append(all, obs{v, true})
	}
	for _, v := range b {
		all = append(all, obs{v, false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	n := len(all)
	rankSumA := 0.0
	tieTerm := 0.0
	for i := 0; i < n; {
		j := i
		for j+1 < n && all[j+1].v == all[i].v {
			j++
		}
		mid := float64(i+j)/2 + 1
		t := float64(j - i + 1)
		tieTerm += t*t*t - t
		for k := i; k <= j; k++ {
			if all[k].fromA {
				rankSumA += mid
			}
		}
		i = j + 1
	}
	u := rankSumA - na*(na+1)/2
	mean := na * nb / 2
	nn := na + nb
	variance := na * nb / 12 * ((nn + 1) - tieTerm/(nn*(nn-1)))
	if variance <= 0 {
		return MannWhitneyResult{U: u, Z: 0, P: 1}
	}
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

// Property: the merged test is bit-for-bit the pooled-sort reference on
// tie-heavy samples (values from a small set that includes −0 and +0),
// with a large marginal against a small conditional sample as the
// contrast calls it, and the other way round.
func TestQuickMannWhitneyMatchesReference(t *testing.T) {
	levels := []float64{-1.5, -1, math.Copysign(0, -1), 0, 0.25, 0.5, 2, 3}
	same := func(x, y MannWhitneyResult) bool {
		return math.Float64bits(x.U) == math.Float64bits(y.U) &&
			math.Float64bits(x.Z) == math.Float64bits(y.Z) &&
			math.Float64bits(x.P) == math.Float64bits(y.P)
	}
	f := func(seed uint64, nA, nB, nLevels uint8) bool {
		r := rng.New(seed)
		na := int(nA)%300 + 1
		nb := int(nB)%40 + 1
		k := int(nLevels)%len(levels) + 1
		draw := func(n int) []float64 {
			x := make([]float64, n)
			for i := range x {
				if r.Float64() < 0.2 {
					x[i] = r.Normal() // an untied value now and then
				} else {
					x[i] = levels[r.Intn(k)]
				}
			}
			return x
		}
		a, b := draw(na), draw(nb)
		want, back := mannWhitneyReference(a, b), mannWhitneyReference(b, a)
		if !same(MannWhitneyTest(a, b), want) || !same(MannWhitneyTest(b, a), back) {
			return false
		}
		sa := slices.Clone(a)
		slices.Sort(sa)
		sb := slices.Clone(b)
		slices.Sort(sb)
		return same(MannWhitneySorted(sa, sb), want) && same(MannWhitneySorted(sb, sa), back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMannWhitney(b *testing.B) {
	r := rng.New(1)
	x := make([]float64, 1000)
	y := make([]float64, 100)
	for i := range x {
		x[i] = r.Normal()
	}
	for i := range y {
		y[i] = r.Normal()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MannWhitneyTest(x, y)
	}
}

func BenchmarkCramerVonMisesSorted(b *testing.B) {
	r := rng.New(1)
	x := make([]float64, 1000)
	y := make([]float64, 100)
	for i := range x {
		x[i] = r.Float64()
	}
	for i := range y {
		y[i] = r.Float64()
	}
	sort.Float64s(x)
	sort.Float64s(y)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CramerVonMisesSorted(x, y)
	}
}
