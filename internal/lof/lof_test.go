package lof

import (
	"context"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"hics/internal/dataset"
	"hics/internal/neighbors"
	"hics/internal/race"
	"hics/internal/rng"
)

// clusterWithOutlier builds a tight Gaussian blob plus one far-away point
// (the last object).
func clusterWithOutlier(seed uint64, n int) *dataset.Dataset {
	r := rng.New(seed)
	x := make([]float64, n+1)
	y := make([]float64, n+1)
	for i := 0; i < n; i++ {
		x[i] = r.NormalScaled(0, 0.1)
		y[i] = r.NormalScaled(0, 0.1)
	}
	x[n], y[n] = 5, 5
	return dataset.MustNew(nil, [][]float64{x, y})
}

func TestLOFFlagsObviousOutlier(t *testing.T) {
	ds := clusterWithOutlier(1, 60)
	_, scores, err := FitContext(context.Background(), ds, []int{0, 1}, 10, neighbors.KindAuto, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := scores[len(scores)-1]
	for i := 0; i < len(scores)-1; i++ {
		if scores[i] >= out {
			t.Fatalf("inlier %d score %v >= outlier score %v", i, scores[i], out)
		}
	}
	if out < 2 {
		t.Errorf("outlier LOF = %v, expected clearly above cluster scores", out)
	}
}

func TestLOFUniformScoresNearOne(t *testing.T) {
	// Points on a regular grid have uniform density: LOF ≈ 1 everywhere.
	var x, y []float64
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			x = append(x, float64(i))
			y = append(y, float64(j))
		}
	}
	ds := dataset.MustNew(nil, [][]float64{x, y})
	_, scores, err := FitContext(context.Background(), ds, []int{0, 1}, 6, neighbors.KindAuto, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range scores {
		if s < 0.8 || s > 1.35 {
			t.Errorf("grid point %d LOF = %v, want ~1", i, s)
		}
	}
}

func TestLOFSubspaceRestriction(t *testing.T) {
	// Outlier only in dim 0; dim 1 is pure noise that would mask it.
	r := rng.New(2)
	n := 80
	x := make([]float64, n+1)
	y := make([]float64, n+1)
	for i := 0; i < n; i++ {
		x[i] = r.NormalScaled(0, 0.05)
		y[i] = r.Float64() * 100
	}
	x[n] = 3
	y[n] = 50
	ds := dataset.MustNew(nil, [][]float64{x, y})

	_, sub, err := FitContext(context.Background(), ds, []int{0}, 10, neighbors.KindAuto, 0)
	if err != nil {
		t.Fatal(err)
	}
	rank := 0
	for i := 0; i < n; i++ {
		if sub[i] >= sub[n] {
			rank++
		}
	}
	if rank > 2 {
		t.Errorf("outlier not top-ranked in its subspace (beaten by %d)", rank)
	}
}

func TestLOFDuplicatePoints(t *testing.T) {
	// Many exact duplicates: lrd is infinite, LOF must stay finite (=1)
	// for the duplicated points rather than NaN.
	x := []float64{1, 1, 1, 1, 1, 9}
	ds := dataset.MustNew(nil, [][]float64{x})
	_, scores, err := FitContext(context.Background(), ds, []int{0}, 3, neighbors.KindAuto, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if math.IsNaN(scores[i]) {
			t.Fatalf("duplicate point %d has NaN LOF", i)
		}
		if scores[i] != 1 {
			t.Errorf("duplicate point %d LOF = %v, want 1", i, scores[i])
		}
	}
	// The isolated point's neighbors all have infinite lrd while its own is
	// finite, so its LOF is +Inf per the original definition — it must rank
	// above every duplicate and must not be NaN.
	if math.IsNaN(scores[5]) {
		t.Errorf("isolated point LOF = %v, want non-NaN", scores[5])
	}
	if scores[5] <= 1 {
		t.Errorf("isolated point LOF = %v, want > 1", scores[5])
	}
}

func TestLOFErrors(t *testing.T) {
	ds := dataset.MustNew(nil, [][]float64{{1}})
	if _, _, err := FitContext(context.Background(), ds, []int{0}, 3, neighbors.KindAuto, 0); err == nil {
		t.Error("single object should fail")
	}
	ds2 := dataset.MustNew(nil, [][]float64{{1, 2}})
	if _, _, err := FitContext(context.Background(), ds2, []int{7}, 3, neighbors.KindAuto, 0); err == nil {
		t.Error("bad dimension should fail")
	}
	if _, _, err := FitContext(context.Background(), ds2, nil, 3, neighbors.KindAuto, 0); err == nil {
		t.Error("empty subspace should fail")
	}
}

func TestLOFDefaultMinPts(t *testing.T) {
	ds := clusterWithOutlier(3, 40)
	_, a, err := FitContext(context.Background(), ds, []int{0, 1}, 0, neighbors.KindAuto, 0) // falls back to default
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := FitContext(context.Background(), ds, []int{0, 1}, DefaultMinPts, neighbors.KindAuto, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("minPts<1 should equal DefaultMinPts")
		}
	}
}

func TestKNNScoresOutlier(t *testing.T) {
	ds := clusterWithOutlier(4, 50)
	_, scores, err := FitKNNContext(context.Background(), ds, []int{0, 1}, 10, neighbors.KindAuto, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := scores[len(scores)-1]
	for i := 0; i < len(scores)-1; i++ {
		if scores[i] >= out {
			t.Fatalf("kNN score of inlier %d >= outlier", i)
		}
	}
}

func TestKNNScoresErrors(t *testing.T) {
	ds := dataset.MustNew(nil, [][]float64{{1}})
	if _, _, err := FitKNNContext(context.Background(), ds, []int{0}, 3, neighbors.KindAuto, 0); err == nil {
		t.Error("single object should fail")
	}
	if _, _, err := FitKNNContext(context.Background(), dataset.MustNew(nil, [][]float64{{1, 2}}), nil, 3, neighbors.KindAuto, 0); err == nil {
		t.Error("empty dims should fail")
	}
}

// Property: LOF scores are finite, positive numbers for data without exact
// duplicates.
func TestQuickLOFFinite(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		r := rng.New(seed)
		n := int(nRaw%60) + 12
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = r.Normal()
			y[i] = r.Normal()
		}
		ds := dataset.MustNew(nil, [][]float64{x, y})
		_, scores, err := FitContext(context.Background(), ds, []int{0, 1}, 5, neighbors.KindAuto, 0)
		if err != nil {
			return false
		}
		for _, s := range scores {
			if math.IsNaN(s) || math.IsInf(s, 0) || s <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: LOF is invariant under translation and uniform scaling of the
// data (it is a ratio of densities).
func TestQuickLOFScaleInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 40
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = r.Normal()
			y[i] = r.Normal()
		}
		ds := dataset.MustNew(nil, [][]float64{x, y})
		_, a, err := FitContext(context.Background(), ds, []int{0, 1}, 5, neighbors.KindAuto, 0)
		if err != nil {
			return false
		}
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range x {
			xs[i] = 3*x[i] + 7
			ys[i] = 3*y[i] + 7
		}
		ds2 := dataset.MustNew(nil, [][]float64{xs, ys})
		_, b, err := FitContext(context.Background(), ds2, []int{0, 1}, 5, neighbors.KindAuto, 0)
		if err != nil {
			return false
		}
		for i := range a {
			if math.Abs(a[i]-b[i]) > 1e-9*(1+math.Abs(a[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestScoresIndexEquivalence is the tentpole contract at the LOF level:
// KD-tree-backed scores equal brute-force scores bit for bit.
func TestScoresIndexEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		for _, n := range []int{30, 150, 400} {
			ds := clusterWithOutlier(seed, n)
			_, brute, err := FitContext(context.Background(), ds, []int{0, 1}, 10, neighbors.KindBrute, 0)
			if err != nil {
				t.Fatal(err)
			}
			_, tree, err := FitContext(context.Background(), ds, []int{0, 1}, 10, neighbors.KindKDTree, 0)
			if err != nil {
				t.Fatal(err)
			}
			_, auto, err := FitContext(context.Background(), ds, []int{0, 1}, 10, neighbors.KindAuto, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := range brute {
				if brute[i] != tree[i] {
					t.Fatalf("seed=%d n=%d: LOF[%d] brute %v != kdtree %v", seed, n, i, brute[i], tree[i])
				}
				if brute[i] != auto[i] {
					t.Fatalf("seed=%d n=%d: LOF[%d] brute %v != auto %v", seed, n, i, brute[i], auto[i])
				}
			}
		}
	}
}

func TestKNNScoresIndexEquivalence(t *testing.T) {
	ds := clusterWithOutlier(6, 300)
	_, brute, err := FitKNNContext(context.Background(), ds, []int{0, 1}, 10, neighbors.KindBrute, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, tree, err := FitKNNContext(context.Background(), ds, []int{0, 1}, 10, neighbors.KindKDTree, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range brute {
		if brute[i] != tree[i] {
			t.Fatalf("kNN score[%d] brute %v != kdtree %v", i, brute[i], tree[i])
		}
	}
}

func TestFitScoresMatchBatch(t *testing.T) {
	ds := clusterWithOutlier(7, 120)
	for _, kind := range []neighbors.Kind{neighbors.KindBrute, neighbors.KindKDTree} {
		batch := make([]float64, ds.N())
		_, err := FitInto(context.Background(), ds, []int{0, 1}, 10, kind, 0, batch)
		if err != nil {
			t.Fatal(err)
		}
		f, scores, err := FitContext(context.Background(), ds, []int{0, 1}, 10, kind, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := range batch {
			if scores[i] != batch[i] {
				t.Fatalf("%v: FitContext score[%d] = %v, batch = %v", kind, i, scores[i], batch[i])
			}
		}
		if f.MinPts() != 10 || f.N() != ds.N() {
			t.Errorf("%v: fitted state MinPts=%d N=%d", kind, f.MinPts(), f.N())
		}
	}
}

func TestScoreQueryFlagsOutlierPoint(t *testing.T) {
	ds := clusterWithOutlier(8, 100)
	f, _, err := FitContext(context.Background(), ds, []int{0, 1}, 10, neighbors.KindAuto, 0)
	if err != nil {
		t.Fatal(err)
	}
	far := f.ScoreQuery([]float64{8, -8})
	center := f.ScoreQuery([]float64{0, 0})
	if far <= center {
		t.Errorf("far query LOF %v <= central query LOF %v", far, center)
	}
	if center < 0.5 || center > 1.5 {
		t.Errorf("central query LOF = %v, want ~1", center)
	}
	if far < 2 {
		t.Errorf("far query LOF = %v, want clearly outlying", far)
	}
}

// TestScoreQueryIndexEquivalence extends the backend contract to
// out-of-sample scoring: queries against a brute-backed and a tree-backed
// fit must agree bit for bit.
func TestScoreQueryIndexEquivalence(t *testing.T) {
	ds := clusterWithOutlier(9, 400)
	brute, _, err := FitContext(context.Background(), ds, []int{0, 1}, 10, neighbors.KindBrute, 0)
	if err != nil {
		t.Fatal(err)
	}
	tree, _, err := FitContext(context.Background(), ds, []int{0, 1}, 10, neighbors.KindKDTree, 0)
	if err != nil {
		t.Fatal(err)
	}
	bruteK, _, err := FitKNNContext(context.Background(), ds, []int{0, 1}, 10, neighbors.KindBrute, 0)
	if err != nil {
		t.Fatal(err)
	}
	treeK, _, err := FitKNNContext(context.Background(), ds, []int{0, 1}, 10, neighbors.KindKDTree, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(99)
	for trial := 0; trial < 300; trial++ {
		q := []float64{r.Float64()*12 - 6, r.Float64()*12 - 6}
		if a, b := brute.ScoreQuery(q), tree.ScoreQuery(q); a != b {
			t.Fatalf("LOF query %v: brute %v != kdtree %v", q, a, b)
		}
		if a, b := bruteK.ScoreQuery(q), treeK.ScoreQuery(q); a != b {
			t.Fatalf("kNN query %v: brute %v != kdtree %v", q, a, b)
		}
	}
}

// TestScoreQueryConcurrent exercises the per-query scratch pool under the
// race detector.
func TestScoreQueryConcurrent(t *testing.T) {
	ds := clusterWithOutlier(10, 200)
	f, _, err := FitContext(context.Background(), ds, []int{0, 1}, 10, neighbors.KindKDTree, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := f.ScoreQuery([]float64{1, 1})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(w))
			for i := 0; i < 200; i++ {
				f.ScoreQuery([]float64{r.Float64(), r.Float64()})
				if got := f.ScoreQuery([]float64{1, 1}); got != want {
					t.Errorf("concurrent ScoreQuery = %v, want %v", got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestFitKNNMatchesBatchAndQueries(t *testing.T) {
	ds := clusterWithOutlier(11, 90)
	batch := make([]float64, ds.N())
	_, err := FitKNNInto(context.Background(), ds, []int{0, 1}, 10, neighbors.KindBrute, 0, batch)
	if err != nil {
		t.Fatal(err)
	}
	f, scores, err := FitKNNContext(context.Background(), ds, []int{0, 1}, 10, neighbors.KindBrute, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		if scores[i] != batch[i] {
			t.Fatalf("FitKNNContext score[%d] = %v, batch = %v", i, scores[i], batch[i])
		}
	}
	if far, near := f.ScoreQuery([]float64{9, 9}), f.ScoreQuery([]float64{0, 0}); far <= near {
		t.Errorf("far kNN query %v <= near query %v", far, near)
	}
}

// gridDataset is n×d uniform data; quant > 0 floors it onto a grid of
// that many steps, so exact duplicates and distance ties are common.
func gridDataset(seed uint64, n, d int, quant float64) *dataset.Dataset {
	r := rng.New(seed)
	cols := make([][]float64, d)
	for j := range cols {
		cols[j] = make([]float64, n)
		for i := range cols[j] {
			v := r.Float64()
			if quant > 0 {
				v = math.Floor(v*quant) / quant
			}
			cols[j][i] = v
		}
	}
	return dataset.MustNew(nil, cols)
}

// fitKNNReference is the materializing average-kNN-distance pass that
// FitKNNContext streams: every neighborhood kept, then summed in
// ascending id order.
func fitKNNReference(t *testing.T, ds *dataset.Dataset, dims []int, k int, kind neighbors.Kind) []float64 {
	t.Helper()
	idx, err := neighbors.New(ds, dims, kind)
	if err != nil {
		t.Fatal(err)
	}
	neighborhoods, _, err := idx.KNNAllContext(context.Background(), k, 0)
	if err != nil {
		t.Fatal(err)
	}
	scores := make([]float64, ds.N())
	for i, nb := range neighborhoods {
		if len(nb) == 0 {
			continue
		}
		sum := 0.0
		for _, x := range nb {
			sum += x.Dist
		}
		scores[i] = sum / float64(len(nb))
	}
	return scores
}

// TestFitKNNMatchesMaterializingReference: the streamed kNN scores equal
// the materializing pass bit for bit, on both backends, at several worker
// counts, on continuous, tie-heavy and leaf-sized data.
func TestFitKNNMatchesMaterializingReference(t *testing.T) {
	sets := map[string]*dataset.Dataset{
		"cluster":  clusterWithOutlier(13, 400),
		"ties":     gridDataset(14, 500, 2, 4),
		"leafsize": gridDataset(15, 13, 3, 0),
		"grid3d":   gridDataset(16, 3000, 3, 8),
	}
	for name, ds := range sets {
		dims := make([]int, ds.D())
		for j := range dims {
			dims[j] = j
		}
		for _, kind := range []neighbors.Kind{neighbors.KindBrute, neighbors.KindKDTree} {
			want := fitKNNReference(t, ds, dims, 10, kind)
			for _, workers := range []int{1, 2, 4} {
				_, got, err := FitKNNContext(context.Background(), ds, dims, 10, kind, workers)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s %v workers=%d: score[%d] = %v, reference %v", name, kind, workers, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestFitKNNAllocs: a kNN fit keeps no neighborhoods, so its allocation
// count does not grow with n, and its bytes are the tree's id permutation
// and the scores (16 per object), not k neighbors per object. One worker,
// as AllocsPerRun measures at GOMAXPROCS 1 (see TestKNNAllContextAllocs
// in internal/neighbors).
func TestFitKNNAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race; the pin runs in non-race builds")
	}
	fit := func(ds *dataset.Dataset) {
		if _, _, err := FitKNNContext(context.Background(), ds, []int{0, 1}, 10, neighbors.KindKDTree, 1); err != nil {
			t.Fatal(err)
		}
	}
	allocs := func(n int) float64 {
		ds := gridDataset(17, n, 2, 0)
		return testing.AllocsPerRun(2, func() { fit(ds) })
	}
	if small, large := allocs(5000), allocs(40000); large > small+2 {
		t.Errorf("FitKNNContext allocates %.0f times at n=40000, %.0f at n=5000", large, small)
	}
	const n = 40000
	ds := gridDataset(17, n, 2, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fit(ds)
	runtime.ReadMemStats(&after)
	if perObject := float64(after.TotalAlloc-before.TotalAlloc) / n; perObject > 32 {
		t.Errorf("FitKNNContext allocates %.1f bytes per object, want at most 32", perObject)
	}
}

// TestFitReusesNeighborhoods: a LOF fit takes its n·k neighborhood slab
// from a pool, so a second fit of the same shape allocates less than the
// slab's size, and its scores are bit-identical to the first. The
// collector is off during the pin: a collection empties the pool. So is
// every processor but one: a pool keeps its last Put in a per-processor
// slot that no other processor's Get can take, so a goroutine moved to
// another processor between the fits would miss the slab.
func TestFitReusesNeighborhoods(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops items under -race; the pin runs in non-race builds")
	}
	const n, k = 20000, 10
	ds := gridDataset(23, n, 2, 0)
	fit := func() []float64 {
		_, scores, err := FitContext(context.Background(), ds, []int{0, 1}, k, neighbors.KindKDTree, 1)
		if err != nil {
			t.Fatal(err)
		}
		return scores
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	first := fit()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	second := fit()
	runtime.ReadMemStats(&after)
	slab := uint64(n * k * int(unsafe.Sizeof(neighbors.Neighbor{})))
	if got := after.TotalAlloc - before.TotalAlloc; got >= slab {
		t.Errorf("second fit allocated %d bytes, not less than the %d-byte slab", got, slab)
	}
	for i := range first {
		if math.Float64bits(first[i]) != math.Float64bits(second[i]) {
			t.Fatalf("score %d: %v, then %v", i, first[i], second[i])
		}
	}
}

// TestFitRejectsTinyDatasetFirst: both fits reject n < 2 before they
// build anything, so the error is the size error even for a bad subspace.
func TestFitRejectsTinyDatasetFirst(t *testing.T) {
	ds := dataset.MustNew(nil, [][]float64{{1}})
	if _, _, err := FitContext(context.Background(), ds, []int{5}, 3, neighbors.KindKDTree, 0); err == nil || !strings.Contains(err.Error(), "at least 2 objects") {
		t.Errorf("FitContext on one object = %v, want the size error", err)
	}
	if _, _, err := FitKNNContext(context.Background(), ds, []int{5}, 3, neighbors.KindKDTree, 0); err == nil || !strings.Contains(err.Error(), "at least 2 objects") {
		t.Errorf("FitKNNContext on one object = %v, want the size error", err)
	}
}

// TestFitIntoBuffer: the buffer-filling fits reject a buffer of the wrong
// length, and overwrite every value of a reused one: scores written over
// NaNs equal a fresh fit's bit for bit.
func TestFitIntoBuffer(t *testing.T) {
	ctx := context.Background()
	ds := clusterWithOutlier(12, 300)
	if _, err := FitInto(ctx, ds, []int{0, 1}, 10, neighbors.KindKDTree, 0, make([]float64, ds.N()-1)); err == nil || !strings.Contains(err.Error(), "score buffer") {
		t.Errorf("FitInto with a short buffer = %v, want the buffer error", err)
	}
	if _, err := FitKNNInto(ctx, ds, []int{0, 1}, 10, neighbors.KindKDTree, 0, make([]float64, ds.N()+1)); err == nil || !strings.Contains(err.Error(), "score buffer") {
		t.Errorf("FitKNNInto with a long buffer = %v, want the buffer error", err)
	}
	dirty := func() []float64 {
		buf := make([]float64, ds.N())
		for i := range buf {
			buf[i] = math.NaN()
		}
		return buf
	}
	_, want, err := FitContext(ctx, ds, []int{0, 1}, 10, neighbors.KindKDTree, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := dirty()
	if _, err := FitInto(ctx, ds, []int{0, 1}, 10, neighbors.KindKDTree, 0, got); err != nil {
		t.Fatal(err)
	}
	_, wantKNN, err := FitKNNContext(ctx, ds, []int{0, 1}, 10, neighbors.KindKDTree, 0)
	if err != nil {
		t.Fatal(err)
	}
	gotKNN := dirty()
	if _, err := FitKNNInto(ctx, ds, []int{0, 1}, 10, neighbors.KindKDTree, 0, gotKNN); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) || math.Float64bits(gotKNN[i]) != math.Float64bits(wantKNN[i]) {
			t.Fatalf("object %d: FitInto %v, FitKNNInto %v; fresh fits %v, %v", i, got[i], gotKNN[i], want[i], wantKNN[i])
		}
	}
}

func TestNewFittedValidation(t *testing.T) {
	ds := clusterWithOutlier(12, 20)
	idx, err := neighbors.New(ds, []int{0, 1}, neighbors.KindBrute)
	if err != nil {
		t.Fatal(err)
	}
	n := idx.N()
	if _, err := NewFitted(idx, 0, make([]float64, n), make([]float64, n)); err == nil {
		t.Error("minPts<1 should fail")
	}
	if _, err := NewFitted(idx, 5, make([]float64, n-1), make([]float64, n)); err == nil {
		t.Error("short kdist should fail")
	}
	if _, err := NewFittedKNN(idx, 0); err == nil {
		t.Error("k<1 should fail")
	}
	// A correctly reassembled state answers queries like the original fit.
	orig, _, err := FitContext(context.Background(), ds, []int{0, 1}, 5, neighbors.KindBrute, 0)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := NewFitted(idx, 5, orig.KDist(), orig.LRD())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range [][]float64{{0, 0}, {3, -2}, {7, 7}} {
		if a, b := orig.ScoreQuery(q), rebuilt.ScoreQuery(q); a != b {
			t.Fatalf("rebuilt ScoreQuery(%v) = %v, original = %v", q, b, a)
		}
	}
}

func BenchmarkLOF1000x3(b *testing.B) {
	r := rng.New(1)
	const n = 1000
	cols := make([][]float64, 3)
	for j := range cols {
		cols[j] = make([]float64, n)
		for i := range cols[j] {
			cols[j][i] = r.Float64()
		}
	}
	ds := dataset.MustNew(nil, cols)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := FitContext(context.Background(), ds, []int{0, 1, 2}, 10, neighbors.KindAuto, 0); err != nil {
			b.Fatal(err)
		}
	}
}
