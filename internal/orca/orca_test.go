package orca

import (
	"context"
	"sort"
	"testing"
	"testing/quick"

	"hics/internal/dataset"
	"hics/internal/lof"
	"hics/internal/neighbors"
	"hics/internal/rng"
)

// blob builds a tight cluster with `outliers` far-away points appended.
func blob(seed uint64, n, outliers int) *dataset.Dataset {
	r := rng.New(seed)
	x := make([]float64, n+outliers)
	y := make([]float64, n+outliers)
	for i := 0; i < n; i++ {
		x[i] = r.NormalScaled(0.5, 0.03)
		y[i] = r.NormalScaled(0.5, 0.03)
	}
	for i := 0; i < outliers; i++ {
		x[n+i] = 2 + float64(i)
		y[n+i] = 2 + float64(i)
	}
	return dataset.MustNew(nil, [][]float64{x, y})
}

func TestTopOutliersFindsPlanted(t *testing.T) {
	ds := blob(1, 200, 3)
	out, _, err := TopOutliers(ds, []int{0, 1}, Params{K: 10, TopN: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("got %d outliers", len(out))
	}
	ids := map[int]bool{}
	for _, o := range out {
		ids[o.ID] = true
	}
	for i := 200; i < 203; i++ {
		if !ids[i] {
			t.Errorf("planted outlier %d not found: %v", i, out)
		}
	}
	// Descending order.
	for i := 1; i < len(out); i++ {
		if out[i].Score > out[i-1].Score {
			t.Error("results not sorted descending")
		}
	}
}

func TestTopOutliersMatchesExhaustive(t *testing.T) {
	// ORCA's pruning must not change the result set, only the work done.
	ds := blob(2, 150, 5)
	orcaOut, _, err := TopOutliers(ds, []int{0, 1}, Params{K: 8, TopN: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustive reference: full kNN scores, take top 5.
	_, ref, err := lof.FitKNNContext(context.Background(), ds, []int{0, 1}, 8, neighbors.KindAuto, 0)
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, len(ref))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return ref[idx[a]] > ref[idx[b]] })
	want := map[int]bool{}
	for _, i := range idx[:5] {
		want[i] = true
	}
	for _, o := range orcaOut {
		if !want[o.ID] {
			t.Errorf("ORCA found %d which is not in the exhaustive top-5", o.ID)
		}
	}
}

func TestPruningActuallyPrunes(t *testing.T) {
	// Pin the brute backend: the pruned scan is what this test measures.
	ds := blob(4, 400, 3)
	_, stats, err := TopOutliers(ds, []int{0, 1}, Params{K: 10, TopN: 3, Seed: 5, Index: neighbors.KindBrute})
	if err != nil {
		t.Fatal(err)
	}
	n := ds.N()
	full := n * (n - 1)
	if stats.DistanceComputations >= full {
		t.Errorf("no savings: %d distance computations vs %d exhaustive", stats.DistanceComputations, full)
	}
	if stats.Pruned == 0 {
		t.Error("no candidate was pruned on easy data")
	}
	// On this clustered data the bulk of candidates must be pruned.
	if stats.DistanceComputations > full/2 {
		t.Errorf("pruning too weak: %d of %d distances computed", stats.DistanceComputations, full)
	}
}

func TestTopOutliersErrors(t *testing.T) {
	ds := dataset.MustNew(nil, [][]float64{{1}})
	if _, _, err := TopOutliers(ds, []int{0}, Params{}); err == nil {
		t.Error("single object should fail")
	}
	ds2 := dataset.MustNew(nil, [][]float64{{1, 2}})
	if _, _, err := TopOutliers(ds2, []int{5}, Params{}); err == nil {
		t.Error("bad dims should fail")
	}
}

func TestTopOutliersClamps(t *testing.T) {
	ds := blob(6, 20, 2)
	out, _, err := TopOutliers(ds, []int{0, 1}, Params{K: 100, TopN: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 22 {
		t.Errorf("TopN clamp: got %d", len(out))
	}
}

func TestScorerAdapter(t *testing.T) {
	ds := blob(7, 100, 2)
	s := Scorer{K: 8, TopN: 5, Seed: 2}
	scores := make([]float64, ds.N())
	err := s.Score(context.Background(), ds, []int{0, 1}, 0, scores)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != ds.N() {
		t.Fatalf("score count %d", len(scores))
	}
	// Planted outliers carry positive scores, bulk is zero.
	if scores[100] <= 0 || scores[101] <= 0 {
		t.Error("planted outliers scored zero")
	}
	zeros := 0
	for _, v := range scores {
		if v == 0 {
			zeros++
		}
	}
	if zeros < 90 {
		t.Errorf("expected most objects pruned to zero, got %d zeros", zeros)
	}
	if s.Name() != "ORCA" {
		t.Errorf("Name = %q", s.Name())
	}
}

// Property: ORCA's result is invariant to the random seed (the pruning
// rule is exact), as long as scores are distinct.
func TestQuickSeedInvariance(t *testing.T) {
	f := func(seed1, seed2 uint64) bool {
		ds := blob(9, 80, 3)
		a, _, err1 := TopOutliers(ds, []int{0, 1}, Params{K: 5, TopN: 3, Seed: seed1})
		b, _, err2 := TopOutliers(ds, []int{0, 1}, Params{K: 5, TopN: 3, Seed: seed2})
		if err1 != nil || err2 != nil || len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].ID != b[i].ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestIndexEquivalence: the index-backed path must mine the identical
// top-n with bit-identical scores as the classic pruned scan.
func TestIndexEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		for _, n := range []int{100, 400, 800} {
			ds := blob(seed, n, 5)
			brute, _, err := TopOutliers(ds, []int{0, 1}, Params{K: 10, TopN: 8, Seed: seed, Index: neighbors.KindBrute})
			if err != nil {
				t.Fatal(err)
			}
			tree, _, err := TopOutliers(ds, []int{0, 1}, Params{K: 10, TopN: 8, Seed: seed, Index: neighbors.KindKDTree})
			if err != nil {
				t.Fatal(err)
			}
			if len(brute) != len(tree) {
				t.Fatalf("seed=%d n=%d: %d outliers brute vs %d kdtree", seed, n, len(brute), len(tree))
			}
			for i := range brute {
				if brute[i] != tree[i] {
					t.Fatalf("seed=%d n=%d: outlier %d brute %+v != kdtree %+v", seed, n, i, brute[i], tree[i])
				}
			}
		}
	}
}

func BenchmarkORCAvsExhaustive(b *testing.B) {
	ds := blob(1, 1000, 5)
	b.Run("orca", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := TopOutliers(ds, []int{0, 1}, Params{K: 10, TopN: 5, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := lof.FitKNNContext(context.Background(), ds, []int{0, 1}, 10, neighbors.KindAuto, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
