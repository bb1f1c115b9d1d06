// Package knn holds only tests: the subspace k-nearest-neighbor contract
// that the SURFING and OUTRES competitors rely on, checked through
// internal/neighbors the way they call it (neighbors.New over a subspace
// projection, then Index.KNN or Index.Dist).
package knn

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"hics/internal/dataset"
	"hics/internal/neighbors"
	"hics/internal/rng"
)

func grid2D() *dataset.Dataset {
	// Five points on a line plus one far away.
	return dataset.MustNew(nil, [][]float64{
		{0, 1, 2, 3, 4, 100},
		{0, 0, 0, 0, 0, 0},
	})
}

// newIndex builds an index over the subspace dims of ds with the backend
// chosen automatically, as SURFING does.
func newIndex(t testing.TB, ds *dataset.Dataset, dims []int) neighbors.Index {
	t.Helper()
	ix, err := neighbors.New(ds, dims, neighbors.KindAuto)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestNewValidation(t *testing.T) {
	ds := grid2D()
	if _, err := neighbors.New(ds, nil, neighbors.KindAuto); err == nil {
		t.Error("empty subspace should fail")
	}
	if _, err := neighbors.New(ds, []int{5}, neighbors.KindAuto); err == nil {
		t.Error("out-of-range dim should fail")
	}
}

func TestDist(t *testing.T) {
	ds := dataset.MustNew(nil, [][]float64{{0, 3}, {0, 4}})
	if d := newIndex(t, ds, []int{0, 1}).Dist(0, 1); d != 5 {
		t.Errorf("Dist = %v, want 5", d)
	}
	// Subspace restriction: only first dim.
	if d := newIndex(t, ds, []int{0}).Dist(0, 1); d != 3 {
		t.Errorf("subspace Dist = %v, want 3", d)
	}
}

func TestNeighborhoodBasic(t *testing.T) {
	ix := newIndex(t, grid2D(), []int{0, 1})
	nb, kd := ix.KNN(0, 2, ix.NewScratch(), nil)
	// Two nearest of point 0 are points 1 (d=1) and 2 (d=2).
	if kd != 2 {
		t.Errorf("kdist = %v, want 2", kd)
	}
	if len(nb) != 2 || nb[0].ID != 1 || nb[1].ID != 2 {
		t.Errorf("neighbors = %v", nb)
	}
	if nb[0].Dist != 1 || nb[1].Dist != 2 {
		t.Errorf("distances = %v", nb)
	}
}

func TestNeighborhoodTies(t *testing.T) {
	// Point 2 has points 1 and 3 at distance 1, 0 and 4 at distance 2.
	ix := newIndex(t, grid2D(), []int{0})
	nb, kd := ix.KNN(2, 3, ix.NewScratch(), nil)
	// 3rd nearest is at distance 2, and the tie at distance 2 (both point 0
	// and 4) must be included per the LOF neighborhood definition.
	if kd != 2 {
		t.Errorf("kdist = %v", kd)
	}
	if len(nb) != 4 {
		t.Errorf("tie expansion failed: %v", nb)
	}
}

func TestNeighborhoodExcludesSelf(t *testing.T) {
	ds := dataset.MustNew(nil, [][]float64{{1, 1, 5}}) // duplicate points
	ix := newIndex(t, ds, []int{0})
	nb, kd := ix.KNN(0, 1, ix.NewScratch(), nil)
	if kd != 0 {
		t.Errorf("kdist with duplicate = %v, want 0", kd)
	}
	if len(nb) != 1 || nb[0].ID != 1 {
		t.Errorf("neighbors = %v", nb)
	}
}

func TestNeighborhoodKClamp(t *testing.T) {
	ix := newIndex(t, dataset.MustNew(nil, [][]float64{{0, 1, 2}}), []int{0})
	nb, _ := ix.KNN(0, 10, ix.NewScratch(), nil)
	if len(nb) != 2 {
		t.Errorf("clamped neighborhood = %v", nb)
	}
}

func TestNewWithKindEquivalence(t *testing.T) {
	// The backend SURFING gets (automatic) and the one OUTRES pins (brute)
	// must agree bit for bit with the k-d tree on a tie-heavy subspace.
	r := rng.New(5)
	n := 300
	cols := [][]float64{make([]float64, n), make([]float64, n)}
	for i := 0; i < n; i++ {
		cols[0][i] = math.Floor(r.Float64() * 10)
		cols[1][i] = r.Float64()
	}
	ds := dataset.MustNew(nil, cols)
	var ixs []neighbors.Index
	for _, kind := range []neighbors.Kind{neighbors.KindBrute, neighbors.KindKDTree, neighbors.KindAuto} {
		ix, err := neighbors.New(ds, []int{0, 1}, kind)
		if err != nil {
			t.Fatal(err)
		}
		if kind != neighbors.KindAuto && ix.Kind() != kind {
			t.Fatalf("New(%v) built a %v index", kind, ix.Kind())
		}
		ixs = append(ixs, ix)
	}
	brute := ixs[0]
	scB := brute.NewScratch()
	for _, other := range ixs[1:] {
		scO := other.NewScratch()
		for q := 0; q < n; q++ {
			nbB, kdB := brute.KNN(q, 10, scB, nil)
			nbO, kdO := other.KNN(q, 10, scO, nil)
			if kdB != kdO || len(nbB) != len(nbO) {
				t.Fatalf("%v q=%d: backends disagree (%d/%v vs %d/%v)", other.Kind(), q, len(nbB), kdB, len(nbO), kdO)
			}
			for i := range nbB {
				if nbB[i] != nbO[i] {
					t.Fatalf("%v q=%d neighbor %d: %v vs %v", other.Kind(), q, i, nbB[i], nbO[i])
				}
			}
		}
	}
}

// Property: the neighborhood returned is exactly the set of points with
// distance <= kdist, and kdist is the k-th smallest distance.
func TestQuickNeighborhoodDefinition(t *testing.T) {
	f := func(seed uint64, nRaw, kRaw uint8) bool {
		r := rng.New(seed)
		n := int(nRaw%30) + 3
		k := int(kRaw)%(n-1) + 1
		col1 := make([]float64, n)
		col2 := make([]float64, n)
		for i := range col1 {
			col1[i] = math.Floor(r.Float64() * 5) // heavy ties
			col2[i] = math.Floor(r.Float64() * 5)
		}
		ds := dataset.MustNew(nil, [][]float64{col1, col2})
		ix := newIndex(t, ds, []int{0, 1})
		q := r.Intn(n)
		nb, kd := ix.KNN(q, k, ix.NewScratch(), nil)

		// Reference: sort all distances.
		type pair struct {
			id int
			d  float64
		}
		var all []pair
		for i := 0; i < n; i++ {
			if i != q {
				all = append(all, pair{i, ix.Dist(q, i)})
			}
		}
		sort.Slice(all, func(a, b int) bool { return all[a].d < all[b].d })
		wantKd := all[k-1].d
		if math.Abs(kd-wantKd) > 1e-12 {
			return false
		}
		wantSet := map[int]bool{}
		for _, p := range all {
			if p.d <= wantKd+1e-12 {
				wantSet[p.id] = true
			}
		}
		if len(nb) != len(wantSet) {
			return false
		}
		for _, x := range nb {
			if !wantSet[x.ID] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
