package hics

import (
	"math"
	"sort"
	"strings"
	"testing"

	"hics/internal/eval"
	"hics/internal/rng"
	"hics/internal/synth"
)

// demoRows builds row-major data with a strongly correlated pair
// (attrs 0,1), noise attrs, and one planted non-trivial outlier at row 0.
func demoRows(seed uint64, n, d int) [][]float64 {
	r := rng.New(seed)
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, d)
		c := 0.3
		if r.Float64() < 0.5 {
			c = 0.7
		}
		row[0] = r.NormalScaled(c, 0.04)
		row[1] = r.NormalScaled(c, 0.04)
		for j := 2; j < d; j++ {
			row[j] = r.Float64()
		}
		rows[i] = row
	}
	// Non-trivial outlier: anti-diagonal combination.
	rows[0][0] = 0.3
	rows[0][1] = 0.7
	return rows
}

func TestSearchSubspacesFindsPlantedPair(t *testing.T) {
	rows := demoRows(1, 400, 6)
	subs, err := SearchSubspaces(rows, Options{M: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) == 0 {
		t.Fatal("no subspaces")
	}
	top := subs[0]
	has0, has1 := false, false
	for _, d := range top.Dims {
		if d == 0 {
			has0 = true
		}
		if d == 1 {
			has1 = true
		}
	}
	if !has0 || !has1 {
		t.Errorf("top subspace %v does not contain the planted pair", top.Dims)
	}
	for i := 1; i < len(subs); i++ {
		if subs[i].Contrast > subs[i-1].Contrast {
			t.Fatal("subspaces not sorted by descending contrast")
		}
	}
}

func TestRankFlagsPlantedOutlier(t *testing.T) {
	rows := demoRows(2, 400, 6)
	res, err := Rank(rows, Options{M: 50, Seed: 2, MinPts: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scores) != 400 {
		t.Fatalf("score count %d", len(res.Scores))
	}
	top := res.TopOutliers(5)
	found := false
	for _, i := range top {
		if i == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("planted outlier not in top 5: %v", top)
	}
}

func TestRankWithKNNAndMax(t *testing.T) {
	rows := demoRows(3, 200, 4)
	res, err := Rank(rows, Options{M: 20, Seed: 3, UseKNNScore: true, Aggregation: "max"})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.Scores {
		if math.IsNaN(s) {
			t.Fatalf("NaN score at %d", i)
		}
	}
}

func TestRankKSVariant(t *testing.T) {
	rows := demoRows(4, 200, 4)
	res, err := Rank(rows, Options{M: 20, Seed: 4, Test: "ks"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Subspaces) == 0 {
		t.Fatal("KS variant returned no subspaces")
	}
}

func TestRankQualityOnBenchmark(t *testing.T) {
	b, err := synth.Generate(synth.Config{N: 500, D: 15, MinSubspaceDim: 2, MaxSubspaceDim: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ds := b.Data.Data
	rows := make([][]float64, ds.N())
	for i := range rows {
		rows[i] = ds.Row(i, nil)
	}
	res, err := Rank(rows, Options{M: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	auc, err := eval.AUC(res.Scores, b.Data.Outlier)
	if err != nil {
		t.Fatal(err)
	}
	if auc < 0.8 {
		t.Errorf("public API AUC = %.3f on planted benchmark, want >= 0.8", auc)
	}
}

func TestContrastPublic(t *testing.T) {
	rows := demoRows(5, 300, 4)
	cCorr, err := Contrast(rows, []int{0, 1}, Options{M: 50, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cNoise, err := Contrast(rows, []int{2, 3}, Options{M: 50, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if cCorr <= cNoise {
		t.Errorf("correlated contrast %v <= noise contrast %v", cCorr, cNoise)
	}
}

func TestLOFScoresPublic(t *testing.T) {
	rows := demoRows(6, 150, 3)
	scores, err := LOFScores(rows, 0) // default MinPts
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 150 {
		t.Fatalf("score count %d", len(scores))
	}
}

func TestOptionValidation(t *testing.T) {
	rows := demoRows(7, 50, 3)
	if _, err := Rank(rows, Options{Test: "bogus"}); err == nil {
		t.Error("bad test name should fail")
	}
	if _, err := Rank(nil, Options{}); err == nil {
		t.Error("empty data should fail")
	}
	if _, err := SearchSubspaces([][]float64{{1, 2}, {3}}, Options{}); err == nil {
		t.Error("ragged rows should fail")
	}
	if _, err := Contrast(rows, []int{0}, Options{}); err == nil {
		t.Error("1-d contrast should fail")
	}
}

// Out-of-range option values must be rejected at the API boundary — with
// the offending field named in the error — instead of silently deferring
// to defaults.
func TestOptionRangeValidation(t *testing.T) {
	rows := demoRows(7, 50, 3)
	cases := []struct {
		name string
		opts Options
		want string // substring the error must contain
	}{
		{"negative M", Options{M: -1}, "M"},
		{"negative Alpha", Options{Alpha: -0.1}, "Alpha"},
		{"Alpha one", Options{Alpha: 1}, "Alpha"},
		{"Alpha above one", Options{Alpha: 1.5}, "Alpha"},
		{"Alpha NaN", Options{Alpha: math.NaN()}, "Alpha"},
		{"negative MinPts", Options{MinPts: -3}, "MinPts"},
		{"negative CandidateCutoff", Options{CandidateCutoff: -1}, "CandidateCutoff"},
		{"negative MaxDim", Options{MaxDim: -1}, "MaxDim"},
		{"TopK below -1", Options{TopK: -2}, "TopK"},
		{"negative Workers", Options{Workers: -1}, "Workers"},
		{"unknown searcher", Options{Search: "bogus"}, "searcher"},
		{"unknown scorer", Options{Scorer: "bogus"}, "scorer"},
		{"scorer conflicts with UseKNNScore", Options{Scorer: "lof", UseKNNScore: true}, "UseKNNScore"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for entry, f := range map[string]func() error{
				"Rank": func() error { _, err := Rank(rows, tc.opts); return err },
				"Fit":  func() error { _, err := Fit(rows, tc.opts); return err },
				"SearchSubspaces": func() error {
					_, err := SearchSubspaces(rows, tc.opts)
					return err
				},
			} {
				err := f()
				if err == nil {
					t.Fatalf("%s accepted %+v", entry, tc.opts)
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s error %q does not mention %q", entry, err, tc.want)
				}
			}
		})
	}
	// Boundary values that must stay valid: zeros defer to defaults, -1
	// keeps all subspaces.
	for _, ok := range []Options{{}, {TopK: -1, M: 5, Seed: 1}} {
		if _, err := SearchSubspaces(rows, ok); err != nil {
			t.Errorf("valid options %+v rejected: %v", ok, err)
		}
	}
}

// Every registry-listed searcher and scorer name must run end-to-end
// through Rank. Sizes are kept tiny — the full-size matrix lives in
// integration_test.go; this is the always-on guard that no registered
// name is unreachable from the public API.
func TestRankEveryRegistryMethod(t *testing.T) {
	rows := demoRows(11, 80, 4)
	for _, search := range SearcherNames() {
		for _, scorer := range ScorerNames() {
			opts := Options{M: 5, TopK: 8, Seed: 3, Search: search, Scorer: scorer}
			res, err := Rank(rows, opts)
			if err != nil {
				t.Errorf("Rank(%s, %s): %v", search, scorer, err)
				continue
			}
			if len(res.Scores) != len(rows) {
				t.Errorf("Rank(%s, %s): %d scores for %d rows", search, scorer, len(res.Scores), len(rows))
			}
			if len(res.Subspaces) == 0 {
				t.Errorf("Rank(%s, %s): no subspaces", search, scorer)
			}
		}
	}
}

func TestTopOutliersOrdering(t *testing.T) {
	r := &Result{Scores: []float64{0.2, 0.9, 0.5, 0.7}}
	top := r.TopOutliers(3)
	want := []int{1, 3, 2}
	for i := range want {
		if top[i] != want[i] {
			t.Fatalf("TopOutliers = %v, want %v", top, want)
		}
	}
	if got := r.TopOutliers(100); len(got) != 4 {
		t.Errorf("clamped TopOutliers length %d", len(got))
	}
}

func TestTopOutliersEdgeCases(t *testing.T) {
	r := &Result{Scores: []float64{0.2, 0.9, 0.5, 0.7}}
	if got := r.TopOutliers(0); len(got) != 0 {
		t.Errorf("TopOutliers(0) = %v, want empty", got)
	}
	if got := r.TopOutliers(-5); len(got) != 0 {
		t.Errorf("TopOutliers(-5) = %v, want empty", got)
	}
	if got := r.TopOutliers(7); len(got) != 4 {
		t.Errorf("TopOutliers beyond len = %v, want all 4", got)
	}
	empty := &Result{Scores: nil}
	if got := empty.TopOutliers(3); len(got) != 0 {
		t.Errorf("TopOutliers on empty result = %v", got)
	}
}

func TestTopOutliersTiedScores(t *testing.T) {
	// Ties break toward the lower object index, at every rank.
	r := &Result{Scores: []float64{0.5, 0.9, 0.5, 0.9, 0.1, 0.5}}
	want := []int{1, 3, 0, 2, 5, 4}
	for k := 0; k <= len(want); k++ {
		got := r.TopOutliers(k)
		if len(got) != k {
			t.Fatalf("TopOutliers(%d) returned %d indices", k, len(got))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("TopOutliers(%d) = %v, want prefix of %v", k, got, want)
			}
		}
	}
}

func TestTopOutliersMatchesSort(t *testing.T) {
	// Heap selection must agree with a full stable sort for every k.
	r := rng.New(42)
	scores := make([]float64, 500)
	for i := range scores {
		scores[i] = math.Floor(r.Float64()*50) / 50 // many ties
	}
	res := &Result{Scores: scores}
	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return scores[order[a]] > scores[order[b]] })
	for _, k := range []int{1, 10, 250, 499, 500} {
		got := res.TopOutliers(k)
		for i := range got {
			if got[i] != order[i] {
				t.Fatalf("k=%d rank %d: heap %d, sort %d", k, i, got[i], order[i])
			}
		}
	}
}

// TestTopOutliersRandomizedVsSort compares the heap selection against a
// full stable sort over many random score vectors with heavy duplication,
// for every k from 0 through past the end.
func TestTopOutliersRandomizedVsSort(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 60; trial++ {
		n := r.IntRange(1, 120)
		distinct := float64(r.IntRange(1, 8)) // few distinct values => many duplicates
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = math.Floor(r.Float64() * distinct)
		}
		res := &Result{Scores: scores}
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return scores[order[a]] > scores[order[b]] })
		for k := 0; k <= n+2; k++ {
			got := res.TopOutliers(k)
			wantLen := k
			if wantLen > n {
				wantLen = n
			}
			if wantLen < 0 {
				wantLen = 0
			}
			if len(got) != wantLen {
				t.Fatalf("trial %d n=%d k=%d: got %d indices, want %d", trial, n, k, len(got), wantLen)
			}
			for i := range got {
				if got[i] != order[i] {
					t.Fatalf("trial %d n=%d k=%d rank %d: heap %d (score %v), sort %d (score %v)",
						trial, n, k, i, got[i], scores[got[i]], order[i], scores[order[i]])
				}
			}
		}
	}
}

// TestRankNeighborIndexEquivalence is the acceptance contract at the
// public-API level: pinning the KD-tree must reproduce the brute-force
// ranking bit for bit.
func TestRankNeighborIndexEquivalence(t *testing.T) {
	rows := demoRows(11, 600, 5)
	brute, err := Rank(rows, Options{M: 20, Seed: 11, NeighborIndex: "brute"})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Rank(rows, Options{M: 20, Seed: 11, NeighborIndex: "kdtree"})
	if err != nil {
		t.Fatal(err)
	}
	auto, err := Rank(rows, Options{M: 20, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := range brute.Scores {
		if brute.Scores[i] != tree.Scores[i] {
			t.Fatalf("score[%d]: brute %v != kdtree %v", i, brute.Scores[i], tree.Scores[i])
		}
		if brute.Scores[i] != auto.Scores[i] {
			t.Fatalf("score[%d]: brute %v != auto %v", i, brute.Scores[i], auto.Scores[i])
		}
	}
	if _, err := Rank(rows, Options{M: 20, NeighborIndex: "octree"}); err == nil {
		t.Error("invalid NeighborIndex should fail")
	}
}

func TestRankKNNScorerIndexEquivalence(t *testing.T) {
	rows := demoRows(12, 500, 4)
	brute, err := Rank(rows, Options{M: 20, Seed: 12, UseKNNScore: true, NeighborIndex: "brute"})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Rank(rows, Options{M: 20, Seed: 12, UseKNNScore: true, NeighborIndex: "kdtree"})
	if err != nil {
		t.Fatal(err)
	}
	for i := range brute.Scores {
		if brute.Scores[i] != tree.Scores[i] {
			t.Fatalf("kNN score[%d]: brute %v != kdtree %v", i, brute.Scores[i], tree.Scores[i])
		}
	}
}

func TestDeterministicEndToEnd(t *testing.T) {
	rows := demoRows(8, 200, 5)
	a, err := Rank(rows, Options{M: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Rank(rows, Options{M: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Scores {
		if a.Scores[i] != b.Scores[i] {
			t.Fatal("same seed produced different rankings")
		}
	}
}
