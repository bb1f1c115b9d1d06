package surfing

import (
	"context"
	"testing"

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
		cols[0][i] = r.NormalScaled(c, 0.03)
		cols[1][i] = r.NormalScaled(c, 0.03)
		for j := 2; j < d; j++ {
			cols[j][i] = r.Float64()
		}
	}
	return dataset.MustNew(nil, cols)
}

func TestQualityClusteredAboveUniform(t *testing.T) {
	clus := clusteredPair(1, 400, 2)
	unif := uniformData(2, 400, 2)
	s := subspace.New(0, 1)
	qC, err := Quality(clus, s, Params{})
	if err != nil {
		t.Fatal(err)
	}
	qU, err := Quality(unif, s, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if qC <= qU {
		t.Errorf("clustered quality %v <= uniform %v", qC, qU)
	}
}

func TestQualityDegenerate(t *testing.T) {
	// All objects identical: quality zero (mean k-dist is zero).
	col := make([]float64, 50)
	ds := dataset.MustNew(nil, [][]float64{col, col})
	q, err := Quality(ds, subspace.New(0, 1), Params{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if q != 0 {
		t.Errorf("degenerate quality = %v", q)
	}
}

func TestQualityErrors(t *testing.T) {
	ds := uniformData(3, 5, 2)
	if _, err := Quality(ds, subspace.New(0, 1), Params{K: 10}); err == nil {
		t.Error("k >= n should fail")
	}
	if _, err := Quality(ds, subspace.New(0, 9), Params{K: 2}); err == nil {
		t.Error("bad dims should fail")
	}
}

func TestSearchFindsClusteredSubspace(t *testing.T) {
	ds := clusteredPair(4, 400, 5)
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

func TestSearchBounds(t *testing.T) {
	ds := clusteredPair(5, 200, 5)
	list, err := (&Searcher{Params: Params{TopK: 3, MaxDim: 2, Cutoff: 4}}).Search(context.Background(), ds)
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

func TestSearchSorted(t *testing.T) {
	ds := clusteredPair(6, 300, 4)
	list, err := (&Searcher{Params: Params{TopK: -1}}).Search(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(list); i++ {
		if list[i].Score > list[i-1].Score {
			t.Fatal("not sorted by descending quality")
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
	ds := clusteredPair(7, 200, 4)
	s := &Searcher{}
	list, err := s.Search(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) == 0 {
		t.Error("adapter returned nothing")
	}
	if s.Name() != "SURFING" {
		t.Errorf("Name = %q", s.Name())
	}
}
