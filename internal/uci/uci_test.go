package uci

import (
	"context"
	"testing"

	"hics/internal/eval"
	"hics/internal/lof"
	"hics/internal/neighbors"
	"hics/internal/stats"
	"hics/internal/subspace"
)

func TestSpecsShapes(t *testing.T) {
	// The shapes the paper reports (Pendigits after downsampling).
	want := map[string][3]int{ // name -> N, D, outliers
		"Ann-Thyroid": {3428, 6, 250},
		"Arrhythmia":  {452, 120, 66},
		"Breast":      {683, 9, 239},
		"Breast-Diag": {569, 30, 212},
		"Diabetes":    {768, 8, 268},
		"Glass":       {214, 9, 9},
		"Ionosphere":  {351, 34, 126},
		"Pendigits":   {6792, 16, 78},
	}
	if len(Specs) != len(want) {
		t.Fatalf("have %d specs, want %d", len(Specs), len(want))
	}
	for _, s := range Specs {
		w, ok := want[s.Name]
		if !ok {
			t.Errorf("unexpected dataset %q", s.Name)
			continue
		}
		if s.N != w[0] || s.D != w[1] || s.Outliers != w[2] {
			t.Errorf("%s shape (%d,%d,%d), want (%d,%d,%d)", s.Name, s.N, s.D, s.Outliers, w[0], w[1], w[2])
		}
	}
}

func TestLookup(t *testing.T) {
	s, err := Lookup("Glass")
	if err != nil || s.Name != "Glass" {
		t.Errorf("Lookup(Glass) = %v, %v", s, err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown name should fail")
	}
}

func TestGenerateFullSize(t *testing.T) {
	for _, spec := range Specs {
		if spec.N > 1000 {
			continue // keep the unit-test budget small; large ones covered below at scale
		}
		l, err := Generate(spec, 1)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if l.Data.N() != spec.N || l.Data.D() != spec.D {
			t.Errorf("%s shape %dx%d", spec.Name, l.Data.N(), l.Data.D())
		}
		if got := l.NumOutliers(); got != spec.Outliers {
			t.Errorf("%s outliers = %d, want %d", spec.Name, got, spec.Outliers)
		}
		for d := 0; d < l.Data.D(); d++ {
			lo, hi := stats.MinMax(l.Data.Col(d))
			if lo < 0 || hi > 1 {
				t.Errorf("%s attribute %d out of unit range [%v,%v]", spec.Name, d, lo, hi)
			}
		}
	}
}

func TestGenerateScaled(t *testing.T) {
	l, err := Load("Pendigits", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if l.Data.N() != 679 {
		t.Errorf("scaled N = %d, want 679", l.Data.N())
	}
	if l.NumOutliers() < 5 {
		t.Errorf("scaled outliers = %d, want >= 5", l.NumOutliers())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Load("Glass", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Load("Glass", 1)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < a.Data.D(); d++ {
		ca, cb := a.Data.Col(d), b.Data.Col(d)
		for i := range ca {
			if ca[i] != cb[i] {
				t.Fatal("generation not deterministic")
			}
		}
	}
}

func TestLoadUnknown(t *testing.T) {
	if _, err := Load("bogus", 1); err == nil {
		t.Error("unknown dataset should fail")
	}
}

func TestNamesAndSortedNames(t *testing.T) {
	if len(Names()) != len(Specs) {
		t.Error("Names length mismatch")
	}
	sorted := SortedNames()
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1] > sorted[i] {
			t.Error("SortedNames not sorted")
		}
	}
}

// Difficulty profile: the easy datasets must be clearly easier than the
// hard ones for a plain LOF ranking, mirroring the paper's Fig. 11
// ordering (Ann-Thyroid/Breast-Diag/Pendigits high, Arrhythmia/Breast low).
func TestDifficultyProfile(t *testing.T) {
	auc := func(name string, scale float64) float64 {
		l, err := Load(name, scale)
		if err != nil {
			t.Fatal(err)
		}
		_, scores, err := lof.FitContext(context.Background(), l.Data, subspace.Full(l.Data.D()), 10, neighbors.KindAuto, 0)
		if err != nil {
			t.Fatal(err)
		}
		a, err := eval.AUC(scores, l.Outlier)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	easy := auc("Breast-Diag", 1)
	hard := auc("Breast", 1)
	if easy < hard+0.1 {
		t.Errorf("Breast-Diag (%.3f) should be much easier than Breast (%.3f)", easy, hard)
	}
	if easy < 0.7 {
		t.Errorf("Breast-Diag LOF AUC = %.3f, want reasonably high", easy)
	}
	if hard > 0.75 {
		t.Errorf("Breast LOF AUC = %.3f, want low (hard dataset)", hard)
	}
}
