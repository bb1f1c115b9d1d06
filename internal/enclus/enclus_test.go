package enclus

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"hics/internal/dataset"
	"hics/internal/rng"
	"hics/internal/subspace"
)

func uniformData(seed uint64, n, d int) *dataset.Dataset {
	r := rng.New(seed)
	cols := make([][]float64, d)
	for j := range cols {
		cols[j] = make([]float64, n)
		for i := range cols[j] {
			cols[j][i] = r.Float64()
		}
	}
	return dataset.MustNew(nil, cols)
}

// clusteredPair correlates attrs 0 and 1 into two tight clusters; other
// attrs are uniform noise.
func clusteredPair(seed uint64, n, d int) *dataset.Dataset {
	r := rng.New(seed)
	cols := make([][]float64, d)
	for j := range cols {
		cols[j] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		c := 0.25
		if r.Float64() < 0.5 {
			c = 0.75
		}
		cols[0][i] = clamp01(r.NormalScaled(c, 0.03))
		cols[1][i] = clamp01(r.NormalScaled(c, 0.03))
		for j := 2; j < d; j++ {
			cols[j][i] = r.Float64()
		}
	}
	return dataset.MustNew(nil, cols)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func TestEntropyUniformVsClustered(t *testing.T) {
	unif := uniformData(1, 1000, 2)
	clus := clusteredPair(2, 1000, 2)
	s := subspace.New(0, 1)
	hU := Entropy(unif, s)
	hC := Entropy(clus, s)
	if hC >= hU {
		t.Errorf("clustered entropy %v should be below uniform entropy %v", hC, hU)
	}
	// Uniform 2-d grid with 100 cells and 1000 points: H ≈ log2(100) ≈ 6.6.
	if hU < 6 || hU > math.Log2(100)+0.01 {
		t.Errorf("uniform entropy = %v, want ≈ 6.64", hU)
	}
}

func TestEntropySinglePoint(t *testing.T) {
	ds := dataset.MustNew(nil, [][]float64{{0.5}, {0.5}})
	if h := Entropy(ds, subspace.New(0, 1)); h != 0 {
		t.Errorf("single-point entropy = %v, want 0", h)
	}
}

func TestEntropyMonotoneInDim(t *testing.T) {
	ds := uniformData(3, 500, 3)
	h2 := Entropy(ds, subspace.New(0, 1))
	h3 := Entropy(ds, subspace.New(0, 1, 2))
	if h3 < h2 {
		t.Errorf("entropy decreased with dimensionality: %v -> %v", h2, h3)
	}
}

func TestEntropyClampsOutOfRange(t *testing.T) {
	ds := dataset.MustNew(nil, [][]float64{{-0.5, 1.5, 0.5}})
	// All values clamp into valid cells; entropy is computable.
	h := Entropy(ds, subspace.New(0))
	if math.IsNaN(h) || h < 0 {
		t.Errorf("entropy with out-of-range data = %v", h)
	}
}

// Entropy sums its cells in a fixed order, so repeated calls on the same
// input return one bit pattern.
func TestEntropyReproducible(t *testing.T) {
	ds := uniformData(11, 2000, 6)
	for _, s := range []subspace.Subspace{subspace.New(0, 1), subspace.New(0, 1, 2), subspace.New(1, 3, 4, 5)} {
		want := math.Float64bits(Entropy(ds, s))
		for i := 0; i < 100; i++ {
			if got := math.Float64bits(Entropy(ds, s)); got != want {
				t.Fatalf("Entropy(%v) call %d = %x, first call %x", s, i, got, want)
			}
		}
	}
}

func TestInterestCorrelatedVsIndependent(t *testing.T) {
	clus := clusteredPair(4, 1000, 2)
	unif := uniformData(5, 1000, 2)
	s := subspace.New(0, 1)
	iC := Interest(clus, s)
	iU := Interest(unif, s)
	if iC <= iU {
		t.Errorf("interest correlated %v <= independent %v", iC, iU)
	}
	if iU > 0.3 {
		t.Errorf("independent interest = %v, want ≈ 0", iU)
	}
}

func TestSearchFindsClusteredSubspace(t *testing.T) {
	ds := clusteredPair(6, 800, 6)
	list, err := (&Searcher{Params: Params{TopK: 10}}).Search(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) == 0 {
		t.Fatal("no subspaces found")
	}
	if !list[0].S.SupersetOf(subspace.New(0, 1)) {
		t.Errorf("top subspace %v does not cover the planted pair", list[0].S)
	}
}

func TestSearchRespectsTopKAndMaxDim(t *testing.T) {
	ds := clusteredPair(7, 300, 5)
	list, err := (&Searcher{Params: Params{TopK: 3, MaxDim: 2}}).Search(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) > 3 {
		t.Errorf("TopK violated: %d", len(list))
	}
	for _, sc := range list {
		if sc.S.Dim() > 2 {
			t.Errorf("MaxDim violated by %v", sc.S)
		}
	}
}

func TestSearchErrors(t *testing.T) {
	ds := dataset.MustNew(nil, [][]float64{{1, 2}})
	if _, err := (&Searcher{Params: Params{}}).Search(context.Background(), ds); err == nil {
		t.Error("single attribute should fail")
	}
}

func TestSearcherAdapter(t *testing.T) {
	ds := clusteredPair(9, 300, 4)
	s := &Searcher{}
	list, err := s.Search(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) == 0 {
		t.Error("adapter returned nothing")
	}
	if s.Name() != "Enclus" {
		t.Errorf("Name = %q", s.Name())
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 3 {
		t.Errorf("median even (upper) = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median empty = %v", m)
	}
}

// Property: entropy is non-negative and bounded by log2(min(n, xi^d)).
func TestQuickEntropyBounds(t *testing.T) {
	f := func(seed uint64, nRaw, dRaw uint8) bool {
		n := int(nRaw%100) + 1
		d := int(dRaw%3) + 1
		ds := uniformData(seed, n, d)
		h := Entropy(ds, subspace.Full(d))
		if h < 0 || math.IsNaN(h) {
			return false
		}
		maxCells := math.Pow(10, float64(d))
		bound := math.Log2(math.Min(float64(n), maxCells))
		return h <= bound+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
