package ris

import (
	"context"
	"math"
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
		cols[0][i] = clamp01(r.NormalScaled(c, 0.02))
		cols[1][i] = clamp01(r.NormalScaled(c, 0.02))
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

func TestBallVolume(t *testing.T) {
	// 1-d "ball" of radius 0.1 is an interval of length 0.2.
	if v := ballVolume(1, 0.1); math.Abs(v-0.2) > 1e-12 {
		t.Errorf("1-d volume = %v, want 0.2", v)
	}
	// 2-d: π r².
	if v := ballVolume(2, 0.1); math.Abs(v-math.Pi*0.01) > 1e-12 {
		t.Errorf("2-d volume = %v, want %v", v, math.Pi*0.01)
	}
	// Huge radius is capped at the unit cube.
	if v := ballVolume(2, 10); v != 1 {
		t.Errorf("capped volume = %v, want 1", v)
	}
}

// countWithin is the per-object reference of countAll: how many objects
// other than q lie within eps of q (boundary inclusive), from one scan
// of all N distances. dists is N-sized scratch, overwritten.
func countWithin(cols [][]float64, q int, eps float64, dists []float64) int {
	clear(dists)
	for _, col := range cols {
		cq := col[q]
		for i, v := range col {
			d := v - cq
			dists[i] += d * d
		}
	}
	eps2 := eps * eps
	count := 0
	for i, d := range dists {
		if i != q && d <= eps2 {
			count++
		}
	}
	return count
}

// TestCountAllMatchesPerObject: counting each pair once gives every
// object the count of its own full scan, across tile boundaries, on
// random data and on data full of exact duplicates and exact-boundary
// distances.
func TestCountAllMatchesPerObject(t *testing.T) {
	r := rng.New(11)
	for _, tc := range []struct {
		n, d  int
		eps   float64
		value func() float64
	}{
		{1500, 3, 0.1, r.Float64},
		{countTile + 1, 2, 0.05, r.Float64},
		{1100, 4, 0.25, func() float64 { return float64(r.Intn(4)) / 8 }}, // duplicates; distances of exactly eps
		{700, 1, 0, func() float64 { return float64(r.Intn(50)) }},
		{1, 2, 0.1, r.Float64},
	} {
		cols := make([][]float64, tc.d)
		for j := range cols {
			cols[j] = make([]float64, tc.n)
			for i := range cols[j] {
				cols[j][i] = tc.value()
			}
		}
		counts := make([]int, tc.n)
		countAll(cols, tc.eps, counts)
		dists := make([]float64, tc.n)
		for q := range counts {
			if want := countWithin(cols, q, tc.eps, dists); counts[q] != want {
				t.Fatalf("n=%d d=%d eps=%v: object %d counts %d, its own scan %d", tc.n, tc.d, tc.eps, q, counts[q], want)
			}
		}
	}
}

func TestCountWithin(t *testing.T) {
	// Five points on a line plus one far away.
	cols := [][]float64{{0, 1, 2, 3, 4, 100}}
	dists := make([]float64, 6)
	if got := countWithin(cols, 2, 1.5, dists); got != 2 {
		t.Errorf("countWithin = %d, want 2", got)
	}
	// The radius boundary is inclusive: points 0 and 4 lie at exactly 2.
	if got := countWithin(cols, 2, 2, dists); got != 4 {
		t.Errorf("countWithin inclusive = %d, want 4", got)
	}
	if got := countWithin(cols, 5, 1, dists); got != 0 {
		t.Errorf("isolated point countWithin = %d, want 0", got)
	}
	// A second column adds to the distance: (0,0)–(3,4) is 5 apart.
	plane := [][]float64{{0, 3}, {0, 4}}
	if got := countWithin(plane, 0, 5, dists[:2]); got != 1 {
		t.Errorf("2-d countWithin at r=5 = %d, want 1", got)
	}
	if got := countWithin(plane, 0, 4.99, dists[:2]); got != 0 {
		t.Errorf("2-d countWithin at r=4.99 = %d, want 0", got)
	}
}

func TestQualityClusteredAboveUniform(t *testing.T) {
	clus := clusteredPair(1, 600, 2)
	unif := uniformData(2, 600, 2)
	s := subspace.New(0, 1)
	qC, coresC, err := Quality(clus, s, Params{})
	if err != nil {
		t.Fatal(err)
	}
	qU, _, err := Quality(unif, s, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if coresC == 0 {
		t.Fatal("clustered data produced no core objects")
	}
	if qC <= qU {
		t.Errorf("clustered quality %v <= uniform quality %v", qC, qU)
	}
}

func TestQualityNoCoreObjects(t *testing.T) {
	// 20 points, each with at most 19 neighbors: no object reaches
	// MinPts 21.
	r := rng.New(3)
	x := make([]float64, 20)
	y := make([]float64, 20)
	for i := range x {
		x[i] = r.Float64()
		y[i] = r.Float64()
	}
	ds := dataset.MustNew(nil, [][]float64{x, y})
	q, cores, err := Quality(ds, subspace.New(0, 1), Params{MinPts: 21})
	if err != nil {
		t.Fatal(err)
	}
	if cores != 0 || q != 0 {
		t.Errorf("expected no cores, got q=%v cores=%d", q, cores)
	}
}

func TestQualityBadSubspace(t *testing.T) {
	ds := uniformData(4, 50, 2)
	if _, _, err := Quality(ds, subspace.New(0, 9), Params{}); err == nil {
		t.Error("out-of-range subspace should fail")
	}
	if _, _, err := Quality(ds, subspace.Subspace{}, Params{}); err == nil {
		t.Error("empty subspace should fail")
	}
}

func TestSearchFindsClusteredSubspace(t *testing.T) {
	ds := clusteredPair(5, 500, 5)
	list, err := (&Searcher{Params: Params{TopK: 10}}).Search(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) == 0 {
		t.Fatal("no subspaces found")
	}
	if !list[0].S.SupersetOf(subspace.New(0, 1)) {
		t.Errorf("top subspace %v does not cover planted pair", list[0].S)
	}
}

func TestSearchRespectsBounds(t *testing.T) {
	ds := clusteredPair(6, 300, 5)
	list, err := (&Searcher{Params: Params{TopK: 4, MaxDim: 2, Cutoff: 3}}).Search(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) > 4 {
		t.Errorf("TopK violated: %d", len(list))
	}
	for _, sc := range list {
		if sc.S.Dim() > 2 {
			t.Errorf("MaxDim violated by %v", sc.S)
		}
	}
}

func TestSearchSortedDescending(t *testing.T) {
	ds := clusteredPair(7, 400, 4)
	list, err := (&Searcher{Params: Params{TopK: -1}}).Search(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(list); i++ {
		if list[i].Score > list[i-1].Score {
			t.Fatal("result not sorted by descending quality")
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
	ds := clusteredPair(8, 300, 4)
	s := &Searcher{}
	list, err := s.Search(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) == 0 {
		t.Error("adapter returned nothing")
	}
	if s.Name() != "RIS" {
		t.Errorf("Name = %q", s.Name())
	}
}
