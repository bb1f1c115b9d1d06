package core

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"hics/internal/dataset"
	"hics/internal/rng"
	"hics/internal/subspace"
)

// uncorrelated builds n objects with d independent uniform attributes.
func uncorrelated(seed uint64, n, d int) *dataset.Dataset {
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

// correlatedPair builds a dataset whose first two attributes are strongly
// correlated (y = x + small noise) and whose remaining attributes are
// independent noise.
func correlatedPair(seed uint64, n, d int) *dataset.Dataset {
	r := rng.New(seed)
	cols := make([][]float64, d)
	for j := range cols {
		cols[j] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		x := r.Float64()
		cols[0][i] = x
		cols[1][i] = x + r.NormalScaled(0, 0.01)
		for j := 2; j < d; j++ {
			cols[j][i] = r.Float64()
		}
	}
	return dataset.MustNew(nil, cols)
}

func TestContrastSeparatesCorrelation(t *testing.T) {
	for _, test := range []Test{WelchT, KolmogorovSmirnov, MannWhitney, CramerVonMises} {
		p := Params{M: 100, Alpha: 0.15, Seed: 1, Test: test}
		corr := correlatedPair(2, 600, 2)
		unc := uncorrelated(3, 600, 2)
		cCorr, err := ContrastOf(corr, subspace.New(0, 1), p)
		if err != nil {
			t.Fatal(err)
		}
		cUnc, err := ContrastOf(unc, subspace.New(0, 1), p)
		if err != nil {
			t.Fatal(err)
		}
		if cCorr <= cUnc+0.15 {
			t.Errorf("%v: contrast(correlated)=%v not clearly above contrast(uncorrelated)=%v",
				test, cCorr, cUnc)
		}
		// For y ≈ x on uniforms the expected KS deviation is ~0.45 (the
		// conditional is a width-α1 uniform inside the marginal), while the
		// Welch deviation saturates towards 1; both must clear 0.35.
		if cCorr < 0.35 {
			t.Errorf("%v: correlated contrast = %v, expected high", test, cCorr)
		}
	}
}

func TestContrastBounds(t *testing.T) {
	ds := correlatedPair(4, 300, 3)
	for _, test := range []Test{WelchT, KolmogorovSmirnov, MannWhitney, CramerVonMises} {
		c, err := ContrastOf(ds, subspace.New(0, 1, 2), Params{M: 50, Seed: 2, Test: test})
		if err != nil {
			t.Fatal(err)
		}
		if c < 0 || c > 1 {
			t.Errorf("%v contrast out of [0,1]: %v", test, c)
		}
	}
}

func TestContrastDeterministicAcrossWorkers(t *testing.T) {
	ds := correlatedPair(5, 400, 6)
	p := Params{M: 20, Seed: 7, Cutoff: 50, TopK: 10}
	p1 := p
	p1.Workers = 1
	p4 := p
	p4.Workers = 4
	r1, err := SearchContext(context.Background(), ds, p1)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := SearchContext(context.Background(), ds, p4)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Subspaces) != len(r4.Subspaces) {
		t.Fatalf("worker counts changed result size: %d vs %d", len(r1.Subspaces), len(r4.Subspaces))
	}
	for i := range r1.Subspaces {
		if !r1.Subspaces[i].S.Equal(r4.Subspaces[i].S) || r1.Subspaces[i].Score != r4.Subspaces[i].Score {
			t.Fatalf("entry %d differs: %v=%v vs %v=%v", i,
				r1.Subspaces[i].S, r1.Subspaces[i].Score, r4.Subspaces[i].S, r4.Subspaces[i].Score)
		}
	}
}

func TestSearchFindsPlantedSubspace(t *testing.T) {
	// Attributes 0-1 strongly correlated, 2-5 noise: {0,1} must rank first.
	ds := correlatedPair(6, 500, 6)
	res, err := SearchContext(context.Background(), ds, Params{M: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Subspaces) == 0 {
		t.Fatal("no subspaces returned")
	}
	if !res.Subspaces[0].S.SupersetOf(subspace.New(0, 1)) {
		t.Errorf("top subspace %v does not contain the planted pair", res.Subspaces[0].S)
	}
}

func TestSearchCutoffLimitsLevels(t *testing.T) {
	ds := uncorrelated(8, 200, 10)
	res, err := SearchContext(context.Background(), ds, Params{M: 10, Seed: 4, Cutoff: 5, TopK: -1})
	if err != nil {
		t.Fatal(err)
	}
	for lvl, list := range res.Levels {
		if len(list) > 5 {
			t.Errorf("level %d retained %d candidates, cutoff 5", lvl, len(list))
		}
	}
}

func TestSearchMaxDim(t *testing.T) {
	ds := correlatedPair(9, 300, 5)
	res, err := SearchContext(context.Background(), ds, Params{M: 10, Seed: 5, MaxDim: 2, TopK: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range res.Subspaces {
		if sc.S.Dim() > 2 {
			t.Errorf("MaxDim=2 violated by %v", sc.S)
		}
	}
	if len(res.Levels) != 1 {
		t.Errorf("expected a single level, got %d", len(res.Levels))
	}
}

func TestSearchTopK(t *testing.T) {
	ds := uncorrelated(10, 150, 8)
	res, err := SearchContext(context.Background(), ds, Params{M: 5, Seed: 6, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Subspaces) > 3 {
		t.Errorf("TopK=3 returned %d subspaces", len(res.Subspaces))
	}
	// Sorted descending.
	for i := 1; i < len(res.Subspaces); i++ {
		if res.Subspaces[i].Score > res.Subspaces[i-1].Score {
			t.Error("result not sorted by descending contrast")
		}
	}
}

func TestSearchErrors(t *testing.T) {
	ds := dataset.MustNew(nil, [][]float64{{1, 2, 3}})
	if _, err := SearchContext(context.Background(), ds, Params{}); err == nil {
		t.Error("single-attribute search should fail")
	}
}

func TestContrastOfValidation(t *testing.T) {
	ds := uncorrelated(11, 50, 3)
	if _, err := ContrastOf(ds, subspace.New(0, 7), Params{}); err == nil {
		t.Error("out-of-range subspace should fail")
	}
	if _, err := ContrastOf(ds, subspace.New(1), Params{}); err == nil {
		t.Error("one-dimensional subspace should fail")
	}
}

func TestSearcherAdapter(t *testing.T) {
	ds := correlatedPair(12, 200, 4)
	s := &Searcher{Params: Params{M: 10, Seed: 1}}
	list, err := s.Search(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) == 0 {
		t.Fatal("adapter returned nothing")
	}
	if s.Name() != "HiCS" {
		t.Errorf("Name = %q", s.Name())
	}
	ks := &Searcher{Params: Params{Test: KolmogorovSmirnov}}
	if ks.Name() != "HiCS_KS" {
		t.Errorf("KS name = %q", ks.Name())
	}
	if (&Searcher{Params: Params{Test: MannWhitney}}).Name() != "HiCS_MW" {
		t.Error("MW name wrong")
	}
	if (&Searcher{Params: Params{Test: CramerVonMises}}).Name() != "HiCS_CVM" {
		t.Error("CVM name wrong")
	}
}

func TestParseTest(t *testing.T) {
	for _, s := range []string{"welch", "wt", "t"} {
		if tt, err := ParseTest(s); err != nil || tt != WelchT {
			t.Errorf("ParseTest(%q) = %v, %v", s, tt, err)
		}
	}
	if tt, err := ParseTest("ks"); err != nil || tt != KolmogorovSmirnov {
		t.Errorf("ParseTest(ks) = %v, %v", tt, err)
	}
	if tt, err := ParseTest("mw"); err != nil || tt != MannWhitney {
		t.Errorf("ParseTest(mw) = %v, %v", tt, err)
	}
	if tt, err := ParseTest("cvm"); err != nil || tt != CramerVonMises {
		t.Errorf("ParseTest(cvm) = %v, %v", tt, err)
	}
	if _, err := ParseTest("bogus"); err == nil {
		t.Error("bogus test name accepted")
	}
	if WelchT.String() != "welch" || KolmogorovSmirnov.String() != "ks" ||
		MannWhitney.String() != "mw" || CramerVonMises.String() != "cvm" {
		t.Error("String() names wrong")
	}
	if Test(99).String() == "" {
		t.Error("unknown test should still render")
	}
}

func TestPruningAblation(t *testing.T) {
	ds := correlatedPair(13, 300, 5)
	with, err := SearchContext(context.Background(), ds, Params{M: 20, Seed: 9, TopK: -1})
	if err != nil {
		t.Fatal(err)
	}
	without, err := SearchContext(context.Background(), ds, Params{M: 20, Seed: 9, TopK: -1, DisablePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(without.Subspaces) < len(with.Subspaces) {
		t.Errorf("pruning enlarged the list: %d -> %d", len(without.Subspaces), len(with.Subspaces))
	}
}

func TestHashSubspaceDistinct(t *testing.T) {
	seen := map[uint64]string{}
	for i := 0; i < 20; i++ {
		for j := i + 1; j < 20; j++ {
			s := subspace.New(i, j)
			h := hashSubspace(s)
			if prev, ok := seen[h]; ok {
				t.Fatalf("hash collision between %s and %v", prev, s)
			}
			seen[h] = s.Key()
		}
	}
	// Order-insensitive because Subspace is canonical.
	if hashSubspace(subspace.New(3, 1)) != hashSubspace(subspace.New(1, 3)) {
		t.Error("hash differs for identical canonical subspaces")
	}
}

// Property: contrast is always in [0,1] for arbitrary data and both tests.
func TestQuickContrastBounds(t *testing.T) {
	f := func(seed uint64, dRaw, testRaw uint8) bool {
		d := int(dRaw%3) + 2
		ds := uncorrelated(seed, 80, d)
		tt := WelchT
		if testRaw%2 == 1 {
			tt = KolmogorovSmirnov
		}
		c, err := ContrastOf(ds, subspace.Full(d), Params{M: 10, Seed: seed, Test: tt})
		if err != nil {
			return false
		}
		return c >= 0 && c <= 1 && !math.IsNaN(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: search results are deterministic for a fixed seed.
func TestQuickSearchDeterministic(t *testing.T) {
	f := func(seed uint64) bool {
		ds := correlatedPair(seed, 120, 4)
		p := Params{M: 8, Seed: seed, TopK: 5}
		a, err1 := SearchContext(context.Background(), ds, p)
		b, err2 := SearchContext(context.Background(), ds, p)
		if err1 != nil || err2 != nil || len(a.Subspaces) != len(b.Subspaces) {
			return false
		}
		for i := range a.Subspaces {
			if !a.Subspaces[i].S.Equal(b.Subspaces[i].S) || a.Subspaces[i].Score != b.Subspaces[i].Score {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
