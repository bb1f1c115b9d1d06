package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{1, 2, 3}, 2},
		{[]float64{5}, 5},
		{[]float64{-1, 1}, 0},
		{[]float64{0, 0, 0, 0}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestMeanVar(t *testing.T) {
	mean, variance := MeanVar([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almostEq(mean, 5, 1e-12) {
		t.Errorf("mean = %v, want 5", mean)
	}
	// Unbiased sample variance: sum of squared deviations 32, n-1 = 7.
	if !almostEq(variance, 32.0/7.0, 1e-12) {
		t.Errorf("variance = %v, want %v", variance, 32.0/7.0)
	}
}

func TestMeanVarDegenerate(t *testing.T) {
	m, v := MeanVar(nil)
	if !math.IsNaN(m) || !math.IsNaN(v) {
		t.Error("MeanVar(nil) should be (NaN, NaN)")
	}
	m, v = MeanVar([]float64{3})
	if m != 3 || !math.IsNaN(v) {
		t.Errorf("MeanVar single = (%v,%v)", m, v)
	}
}

func TestMeanVarStability(t *testing.T) {
	// Large offset stresses the naive sum-of-squares formula; Welford must
	// not lose the small variance.
	const offset = 1e9
	xs := []float64{offset + 1, offset + 2, offset + 3}
	_, v := MeanVar(xs)
	if !almostEq(v, 1, 1e-6) {
		t.Errorf("variance under offset = %v, want 1", v)
	}
}

func TestVarianceStddev(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if v := Variance(xs); !almostEq(v, 2.5, 1e-12) {
		t.Errorf("Variance = %v, want 2.5", v)
	}
	if s := Stddev(xs); !almostEq(s, math.Sqrt(2.5), 1e-12) {
		t.Errorf("Stddev = %v", s)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 0})
	if lo != -1 || hi != 7 {
		t.Errorf("MinMax = (%v,%v)", lo, hi)
	}
	lo, hi = MinMax(nil)
	if !math.IsNaN(lo) || !math.IsNaN(hi) {
		t.Error("MinMax(nil) should be NaN pair")
	}
}

func TestMedianQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if m := Median(xs); m != 3 {
		t.Errorf("Median = %v", m)
	}
	if q := Quantile(xs, 0); q != 1 {
		t.Errorf("Quantile(0) = %v", q)
	}
	if q := Quantile(xs, 1); q != 5 {
		t.Errorf("Quantile(1) = %v", q)
	}
	if q := Quantile([]float64{1, 2}, 0.5); !almostEq(q, 1.5, 1e-12) {
		t.Errorf("interpolated quantile = %v", q)
	}
	// Input must not be modified.
	if xs[0] != 5 {
		t.Error("Quantile modified its input")
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile(nil) should be NaN")
	}
}

// Property: variance is never negative and mean lies within [min, max].
func TestQuickMomentsInvariants(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e100 {
				xs = append(xs, x)
			}
		}
		if len(xs) < 2 {
			return true
		}
		mean, variance := MeanVar(xs)
		lo, hi := MinMax(xs)
		return variance >= 0 && mean >= lo-1e-9*(1+math.Abs(lo)) && mean <= hi+1e-9*(1+math.Abs(hi))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantile is monotone in q.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		a := math.Mod(math.Abs(q1), 1)
		b := math.Mod(math.Abs(q2), 1)
		if a > b {
			a, b = b, a
		}
		return Quantile(xs, a) <= Quantile(xs, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: each lane of MeanVar4 is bit-identical to MeanVar on that
// lane's sample, over independent lane lengths 0–700 (so the common
// prefix and every tail length occur), values of every scale, constant
// runs, NaN and ±Inf, and one slice passed in several lanes.
func TestQuickMeanVar4MatchesMeanVar(t *testing.T) {
	sample := func(r *rand.Rand) []float64 {
		xs := make([]float64, r.IntN(701))
		scale := math.Pow(10, float64(r.IntN(13)-6))
		shift := r.NormFloat64() * scale * 100
		kind := r.IntN(4)
		for i := range xs {
			switch {
			case kind == 0: // constant run
				xs[i] = shift
			case kind == 1 && r.IntN(50) == 0: // sparse non-finite values
				xs[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r.IntN(3)]
			default:
				xs[i] = shift + r.NormFloat64()*scale
			}
		}
		return xs
	}
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 0x4d56))
		var lanes [4][]float64
		for l := range lanes {
			lanes[l] = sample(r)
		}
		// A padded final group passes its first sample in the unused
		// lanes: the same slice, several times.
		if r.IntN(3) == 0 {
			for l := 1 + r.IntN(3); l < 4; l++ {
				lanes[l] = lanes[0]
			}
		}
		mean, variance := MeanVar4(lanes)
		for l, xs := range lanes {
			m, v := MeanVar(xs)
			if !sameFloat(mean[l], m) || !sameFloat(variance[l], v) {
				t.Logf("seed %d lane %d (n=%d): MeanVar4 (%#x, %#x), MeanVar (%#x, %#x)", seed, l, len(xs),
					math.Float64bits(mean[l]), math.Float64bits(variance[l]), math.Float64bits(m), math.Float64bits(v))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// sameFloat reports whether a and b have the same bits, or are both NaN.
// Which NaN an operation on two NaNs returns depends on its operand
// order, and the compiler may swap the operands of an addition or a
// multiplication, so NaN payloads are not part of the contract.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}
