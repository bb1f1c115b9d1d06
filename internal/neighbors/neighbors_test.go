package neighbors

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"hics/internal/dataset"
	"hics/internal/race"
	"hics/internal/rng"
)

// randomDataset builds an n×d dataset. quant > 0 floors values onto a
// coarse grid so exact duplicates and distance ties are common.
func randomDataset(seed uint64, n, d int, quant float64) *dataset.Dataset {
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

func allDims(d int) []int {
	dims := make([]int, d)
	for i := range dims {
		dims[i] = i
	}
	return dims
}

func TestParseKind(t *testing.T) {
	cases := map[string]Kind{
		"": KindAuto, "auto": KindAuto,
		"brute": KindBrute, "bruteforce": KindBrute, "linear": KindBrute,
		"kdtree": KindKDTree, "kd-tree": KindKDTree, "kd": KindKDTree,
	}
	for s, want := range cases {
		got, err := ParseKind(s)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"octree", "lsh"} {
		if _, err := ParseKind(s); err == nil {
			t.Errorf("ParseKind(%q) should fail", s)
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{KindAuto: "auto", KindBrute: "brute", KindKDTree: "kdtree"} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestNewValidation(t *testing.T) {
	ds := randomDataset(1, 10, 2, 0)
	for _, kind := range []Kind{KindAuto, KindBrute, KindKDTree} {
		if _, err := New(ds, nil, kind); err == nil {
			t.Errorf("%v: empty subspace should fail", kind)
		}
		if _, err := New(ds, []int{9}, kind); err == nil {
			t.Errorf("%v: out-of-range dim should fail", kind)
		}
	}
}

func TestAutoSelection(t *testing.T) {
	small := randomDataset(2, AutoMinN-1, 2, 0)
	big := randomDataset(3, AutoMinN, 2, 0)
	ix, err := New(small, []int{0, 1}, KindAuto)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Kind() != KindBrute {
		t.Errorf("auto on n=%d resolved to %v, want brute", small.N(), ix.Kind())
	}
	ix, err = New(big, []int{0, 1}, KindAuto)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Kind() != KindKDTree {
		t.Errorf("auto on n=%d resolved to %v, want kdtree", big.N(), ix.Kind())
	}
	wide := randomDataset(4, AutoMinN, AutoMaxDim+1, 0)
	ix, err = New(wide, allDims(AutoMaxDim+1), KindAuto)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Kind() != KindBrute {
		t.Errorf("auto on %d dims resolved to %v, want brute", AutoMaxDim+1, ix.Kind())
	}
}

// TestKDTreeMatchesBruteBitForBit is the subsystem's core contract: for
// every query and every k, the tree and the scan return the identical
// neighbor set, identical float64 distances, and identical k-distance.
func TestKDTreeMatchesBruteBitForBit(t *testing.T) {
	configs := []struct {
		seed    uint64
		n, d    int
		quant   float64 // 0 = continuous, >0 = heavy ties/duplicates
		queries int
	}{
		{1, 50, 1, 0, 50},
		{2, 200, 2, 0, 200},
		{3, 500, 3, 0, 100},
		{4, 300, 2, 4, 300}, // quantized: many exact duplicates
		{5, 120, 5, 0, 120},
		{6, 64, 2, 1, 64}, // near-constant columns
		// Segment lengths around the leaf bucket: a lone leaf, a root
		// with two leaves, and a two-level split.
		{10, leafSize - 1, 2, 0, leafSize - 1},
		{11, leafSize, 2, 3, leafSize},
		{12, leafSize + 1, 2, 3, leafSize + 1},
		{13, 2*leafSize + 1, 3, 2, 2*leafSize + 1},
		{14, 5000, 3, 0, 300},
		{15, 2000, 5, 3, 300}, // quantized: ties straddle leaf boundaries
	}
	for _, cfg := range configs {
		ds := randomDataset(cfg.seed, cfg.n, cfg.d, cfg.quant)
		checkKNNBitForBit(t, ds, allDims(cfg.d), cfg.queries)
	}
	// A constant column inside the subspace: every split on it is a tie.
	ds := constantColumnDataset(16, 300)
	checkKNNBitForBit(t, ds, []int{0, 1, 2}, 300)
	checkKNNBitForBit(t, ds, []int{1}, 300)
}

// constantColumnDataset is n×3 with a quantized column 0, a constant
// column 1 and a continuous column 2.
func constantColumnDataset(seed uint64, n int) *dataset.Dataset {
	constant := make([]float64, n)
	for i := range constant {
		constant[i] = 0.5
	}
	return dataset.MustNew(nil, [][]float64{
		randomDataset(seed, n, 1, 4).Col(0),
		constant,
		randomDataset(seed+1, n, 1, 0).Col(0),
	})
}

func checkKNNBitForBit(t *testing.T, ds *dataset.Dataset, dims []int, queries int) {
	t.Helper()
	n, d := ds.N(), len(dims)
	brute, err := New(ds, dims, KindBrute)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := New(ds, dims, KindKDTree)
	if err != nil {
		t.Fatal(err)
	}
	scB, scT := brute.NewScratch(), tree.NewScratch()
	for _, k := range []int{1, 3, 10, 20, n - 1, n + 5} {
		for q := 0; q < queries; q++ {
			nbB, kdB := brute.KNN(q, k, scB, nil)
			nbT, kdT := tree.KNN(q, k, scT, nil)
			if kdB != kdT {
				t.Fatalf("n=%d d=%d q=%d k=%d: kdist brute %v != kdtree %v",
					n, d, q, k, kdB, kdT)
			}
			if len(nbB) != len(nbT) {
				t.Fatalf("n=%d d=%d q=%d k=%d: %d neighbors brute vs %d kdtree",
					n, d, q, k, len(nbB), len(nbT))
			}
			for i := range nbB {
				if nbB[i] != nbT[i] {
					t.Fatalf("n=%d d=%d q=%d k=%d: neighbor %d brute %v != kdtree %v",
						n, d, q, k, i, nbB[i], nbT[i])
				}
			}
		}
	}
}

// TestKNNPointMatchesBruteBitForBit extends the backend contract to
// out-of-sample queries: for random query points (and for training points
// replayed as point queries), both backends must return the identical
// neighbor set, distances and k-distance.
func TestKNNPointMatchesBruteBitForBit(t *testing.T) {
	configs := []struct {
		seed  uint64
		n, d  int
		quant float64
	}{
		{21, 50, 1, 0},
		{22, 200, 2, 0},
		{23, 500, 3, 0},
		{24, 300, 2, 4}, // quantized: many exact duplicates and ties
		{25, 120, 5, 0},
		{26, leafSize - 1, 2, 0},
		{27, leafSize, 2, 3},
		{28, leafSize + 1, 2, 3},
		{29, 2*leafSize + 1, 3, 2},
		{30, 5000, 3, 0},
		{31, 2000, 5, 3}, // quantized: ties straddle leaf boundaries
	}
	for _, cfg := range configs {
		ds := randomDataset(cfg.seed, cfg.n, cfg.d, cfg.quant)
		checkKNNPointBitForBit(t, ds, allDims(cfg.d), cfg.seed+1000, cfg.quant)
	}
	ds := constantColumnDataset(32, 300)
	checkKNNPointBitForBit(t, ds, []int{0, 1, 2}, 1032, 4)
	checkKNNPointBitForBit(t, ds, []int{1}, 1033, 4)
}

func checkKNNPointBitForBit(t *testing.T, ds *dataset.Dataset, dims []int, seed uint64, quant float64) {
	t.Helper()
	n, d := ds.N(), len(dims)
	brute, err := New(ds, dims, KindBrute)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := New(ds, dims, KindKDTree)
	if err != nil {
		t.Fatal(err)
	}
	scB, scT := brute.NewScratch(), tree.NewScratch()
	r := rng.New(seed)
	check := func(q []float64, k int) {
		t.Helper()
		nbB, kdB := brute.KNNPoint(q, k, scB, nil)
		nbT, kdT := tree.KNNPoint(q, k, scT, nil)
		if kdB != kdT {
			t.Fatalf("n=%d d=%d k=%d q=%v: kdist brute %v != kdtree %v",
				n, d, k, q, kdB, kdT)
		}
		if len(nbB) != len(nbT) {
			t.Fatalf("n=%d d=%d k=%d q=%v: %d neighbors brute vs %d kdtree",
				n, d, k, q, len(nbB), len(nbT))
		}
		for i := range nbB {
			if nbB[i] != nbT[i] {
				t.Fatalf("n=%d d=%d k=%d q=%v: neighbor %d brute %v != kdtree %v",
					n, d, k, q, i, nbB[i], nbT[i])
			}
		}
	}
	for _, k := range []int{1, 3, 10, 20, n, n + 5} {
		// Random out-of-sample points.
		for trial := 0; trial < 60; trial++ {
			q := make([]float64, d)
			for j := range q {
				q[j] = r.Float64()*1.4 - 0.2
				if quant > 0 && r.Float64() < 0.5 {
					q[j] = math.Floor(q[j]*quant) / quant
				}
			}
			check(q, k)
		}
		// Training rows as point queries (self at distance zero).
		for trial := 0; trial < 30; trial++ {
			i := r.Intn(n)
			q := make([]float64, d)
			for j, dim := range dims {
				q[j] = ds.Value(i, dim)
			}
			check(q, k)
		}
	}
}

// TestKNNPointSelfMatch pins the no-exclusion semantics: querying with a
// training row's coordinates reports that row at distance zero.
func TestKNNPointSelfMatch(t *testing.T) {
	ds := randomDataset(31, 100, 2, 0)
	for _, kind := range []Kind{KindBrute, KindKDTree} {
		ix, err := New(ds, []int{0, 1}, kind)
		if err != nil {
			t.Fatal(err)
		}
		sc := ix.NewScratch()
		for q := 0; q < ds.N(); q += 7 {
			nb, _ := ix.KNNPoint(ds.Row(q, nil), 3, sc, nil)
			found := false
			for _, x := range nb {
				if x.ID == q && x.Dist == 0 {
					found = true
				}
			}
			if !found {
				t.Fatalf("%v: point query at row %d did not report the row itself at distance 0: %v", kind, q, nb)
			}
		}
	}
}

func TestKNNPointEdgeCases(t *testing.T) {
	ds := randomDataset(32, 5, 2, 0)
	q := []float64{0.5, 0.5}
	for _, kind := range []Kind{KindBrute, KindKDTree} {
		ix, err := New(ds, []int{0, 1}, kind)
		if err != nil {
			t.Fatal(err)
		}
		sc := ix.NewScratch()
		if nb, kd := ix.KNNPoint(q, 0, sc, nil); len(nb) != 0 || kd != 0 {
			t.Errorf("%v: k=0 gave %v, %v", kind, nb, kd)
		}
		if nb, kd := ix.KNNPoint(q, -3, sc, nil); len(nb) != 0 || kd != 0 {
			t.Errorf("%v: k<0 gave %v, %v", kind, nb, kd)
		}
		// k beyond N clamps to N — all 5 objects, not N−1 as for KNN.
		if nb, _ := ix.KNNPoint(q, 100, sc, nil); len(nb) != 5 {
			t.Errorf("%v: k clamp gave %d neighbors, want 5", kind, len(nb))
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v: dimension mismatch should panic", kind)
				}
			}()
			ix.KNNPoint([]float64{1}, 1, sc, nil)
		}()
	}
	// A singleton index answers point queries with its one object.
	one := dataset.MustNew(nil, [][]float64{{1}, {2}})
	for _, kind := range []Kind{KindBrute, KindKDTree} {
		ix, err := New(one, []int{0, 1}, kind)
		if err != nil {
			t.Fatal(err)
		}
		nb, kd := ix.KNNPoint([]float64{1, 2}, 1, ix.NewScratch(), nil)
		if len(nb) != 1 || nb[0].ID != 0 || nb[0].Dist != 0 || kd != 0 {
			t.Errorf("%v: singleton point query gave %v, %v", kind, nb, kd)
		}
	}
}

func TestKNNAllMatchesKNN(t *testing.T) {
	ds := randomDataset(7, 150, 3, 0)
	dims := allDims(3)
	for _, kind := range []Kind{KindBrute, KindKDTree} {
		ix, err := New(ds, dims, kind)
		if err != nil {
			t.Fatal(err)
		}
		nbs, kdists := ix.KNNAll(7)
		sc := ix.NewScratch()
		for q := 0; q < ds.N(); q++ {
			nb, kd := ix.KNN(q, 7, sc, nil)
			if kd != kdists[q] {
				t.Fatalf("%v: KNNAll kdist[%d] = %v, KNN = %v", kind, q, kdists[q], kd)
			}
			if len(nb) != len(nbs[q]) {
				t.Fatalf("%v: KNNAll nbs[%d] len %d, KNN %d", kind, q, len(nbs[q]), len(nb))
			}
			for i := range nb {
				if nb[i] != nbs[q][i] {
					t.Fatalf("%v: KNNAll nbs[%d][%d] = %v, KNN = %v", kind, q, i, nbs[q][i], nb[i])
				}
			}
		}
	}
}

func TestKNNEdgeCases(t *testing.T) {
	ds := randomDataset(8, 5, 2, 0)
	for _, kind := range []Kind{KindBrute, KindKDTree} {
		ix, err := New(ds, []int{0, 1}, kind)
		if err != nil {
			t.Fatal(err)
		}
		sc := ix.NewScratch()
		if nb, kd := ix.KNN(0, 0, sc, nil); len(nb) != 0 || kd != 0 {
			t.Errorf("%v: k=0 gave %v, %v", kind, nb, kd)
		}
		if nb, kd := ix.KNN(0, -3, sc, nil); len(nb) != 0 || kd != 0 {
			t.Errorf("%v: k<0 gave %v, %v", kind, nb, kd)
		}
		if nb, _ := ix.KNN(0, 100, sc, nil); len(nb) != 4 {
			t.Errorf("%v: k clamp gave %d neighbors, want 4", kind, len(nb))
		}
	}
	// A dataset of one object has no neighbors at any k.
	one := dataset.MustNew(nil, [][]float64{{1}, {2}})
	for _, kind := range []Kind{KindBrute, KindKDTree} {
		ix, err := New(one, []int{0, 1}, kind)
		if err != nil {
			t.Fatal(err)
		}
		if nb, kd := ix.KNN(0, 1, ix.NewScratch(), nil); len(nb) != 0 || kd != 0 {
			t.Errorf("%v: singleton gave %v, %v", kind, nb, kd)
		}
	}
}

func TestDistMatchesAcrossBackends(t *testing.T) {
	ds := randomDataset(9, 40, 4, 0)
	dims := []int{2, 0, 3} // subspace order matters for FP accumulation
	brute, _ := New(ds, dims, KindBrute)
	tree, _ := New(ds, dims, KindKDTree)
	for i := 0; i < ds.N(); i++ {
		for j := 0; j < ds.N(); j++ {
			if brute.Dist(i, j) != tree.Dist(i, j) {
				t.Fatalf("Dist(%d,%d) differs across backends", i, j)
			}
		}
	}
	if d := brute.Dist(0, 0); d != 0 {
		t.Errorf("self distance = %v", d)
	}
}

// quickTieData builds the n×d tie-heavy dataset (values in {0,…,4}) the
// quick properties draw from; n reaches past a dozen leaf buckets.
func quickTieData(r *rng.RNG, nRaw uint16, dRaw uint8) *dataset.Dataset {
	n := int(nRaw%200) + 3
	d := int(dRaw%3) + 1
	cols := make([][]float64, d)
	for j := range cols {
		cols[j] = make([]float64, n)
		for i := range cols[j] {
			cols[j][i] = math.Floor(r.Float64() * 5) // heavy ties
		}
	}
	return dataset.MustNew(nil, cols)
}

// sqDist is the squared distance from object i to point q over every
// attribute of ds, accumulated in column order like the backends.
func sqDist(ds *dataset.Dataset, i int, q []float64) float64 {
	sum := 0.0
	for j, v := range q {
		d := ds.Value(i, j) - v
		sum += d * d
	}
	return sum
}

// isExactNeighborhood reports whether nb and kd are the neighborhood
// given every candidate's squared distance to the query: kd is the root
// of the k-th smallest, and nb lists, in ascending id order, exactly the
// ids whose squared distance is within it. The cut is on squared
// distances because two of them can share a rounded square root.
func isExactNeighborhood(d2s map[int]float64, k int, nb []Neighbor, kd float64) bool {
	sorted := make([]float64, 0, len(d2s))
	for _, d2 := range d2s {
		sorted = append(sorted, d2)
	}
	sort.Float64s(sorted)
	tau := sorted[k-1]
	if kd != math.Sqrt(tau) {
		return false
	}
	within := 0
	for _, d2 := range d2s {
		if d2 <= tau {
			within++
		}
	}
	if len(nb) != within {
		return false
	}
	for i, x := range nb {
		d2, ok := d2s[x.ID]
		if !ok || d2 > tau || x.Dist != math.Sqrt(d2) || (i > 0 && nb[i-1].ID >= x.ID) {
			return false
		}
	}
	return true
}

// Property: the tree neighborhood is exactly the set of points within the
// k-th smallest distance, on adversarially tie-heavy data.
func TestQuickKDTreeDefinition(t *testing.T) {
	f := func(seed uint64, nRaw uint16, kRaw, dRaw uint8) bool {
		r := rng.New(seed)
		ds := quickTieData(r, nRaw, dRaw)
		n := ds.N()
		k := int(kRaw)%(n-1) + 1
		tree, err := New(ds, allDims(ds.D()), KindKDTree)
		if err != nil {
			return false
		}
		q := r.Intn(n)
		nb, kd := tree.KNN(q, k, tree.NewScratch(), nil)
		qv := ds.Row(q, nil)
		d2s := map[int]float64{}
		for i := 0; i < n; i++ {
			if i != q {
				d2s[i] = sqDist(ds, i, qv)
			}
		}
		return isExactNeighborhood(d2s, k, nb, kd)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the same definition holds for out-of-sample point queries,
// with no object excluded and the query snapped onto the tie grid half
// of the time.
func TestQuickKDTreeKNNPointDefinition(t *testing.T) {
	f := func(seed uint64, nRaw uint16, kRaw, dRaw uint8) bool {
		r := rng.New(seed)
		ds := quickTieData(r, nRaw, dRaw)
		n, d := ds.N(), ds.D()
		k := int(kRaw)%n + 1
		tree, err := New(ds, allDims(d), KindKDTree)
		if err != nil {
			return false
		}
		q := make([]float64, d)
		for j := range q {
			q[j] = r.Float64() * 5
			if r.Float64() < 0.5 {
				q[j] = math.Floor(q[j])
			}
		}
		nb, kd := tree.KNNPoint(q, k, tree.NewScratch(), nil)
		d2s := map[int]float64{}
		for i := 0; i < n; i++ {
			d2s[i] = sqDist(ds, i, q)
		}
		return isExactNeighborhood(d2s, k, nb, kd)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestExactBackendsZeroAllocs pins the exact query paths at 0 allocs/op
// once the scratch and the output buffer are warm.
func TestExactBackendsZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race; the pin runs in non-race builds")
	}
	ds := randomDataset(41, 2000, 3, 0)
	point := []float64{0.4, 0.6, 0.5}
	for _, kind := range []Kind{KindBrute, KindKDTree} {
		ix, err := New(ds, allDims(3), kind)
		if err != nil {
			t.Fatal(err)
		}
		sc := ix.NewScratch()
		var nb []Neighbor
		q := 0
		if a := testing.AllocsPerRun(200, func() {
			nb, _ = ix.KNN(q, 10, sc, nb)
			q = (q + 7) % ds.N()
		}); a != 0 {
			t.Errorf("%v: KNN allocates %.1f times per query, want 0", kind, a)
		}
		if a := testing.AllocsPerRun(200, func() {
			nb, _ = ix.KNNPoint(point, 10, sc, nb)
		}); a != 0 {
			t.Errorf("%v: KNNPoint allocates %.1f times per query, want 0", kind, a)
		}
	}
}

func TestQuickselect(t *testing.T) {
	r := rng.New(3)
	for trial := 0; trial < 50; trial++ {
		n := r.IntRange(1, 200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Floor(r.Float64() * 20) // ties likely
		}
		k := r.Intn(n)
		want := append([]float64(nil), xs...)
		sort.Float64s(want)
		got := quickselect(append([]float64(nil), xs...), k)
		if got != want[k] {
			t.Fatalf("quickselect(%v, %d) = %v, want %v", xs, k, got, want[k])
		}
	}
}

func TestQuickselectSortedInput(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if got := quickselect(xs, 500); got != 500 {
		t.Errorf("quickselect sorted = %v", got)
	}
}

func TestNthElement(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 50; trial++ {
		n := r.IntRange(2, 100)
		col := make([]float64, n)
		for i := range col {
			col[i] = math.Floor(r.Float64() * 3) // constant-ish columns
		}
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		k := r.Intn(n)
		want := append([]int(nil), ids...)
		sort.Slice(want, func(a, b int) bool { return idLess(col, want[a], want[b]) })
		nthElement(ids, 0, n, k, col)
		if ids[k] != want[k] {
			t.Fatalf("nthElement k=%d got id %d, want %d", k, ids[k], want[k])
		}
	}
}

// BenchmarkKNN times single in-sample (KNN) and out-of-sample (KNNPoint)
// queries per backend at k=10; allocs/op must stay 0.
func BenchmarkKNN(b *testing.B) {
	for _, shape := range []struct{ n, d int }{{2000, 2}, {2000, 3}, {2000, 5}, {100000, 3}} {
		ds := randomDataset(1, shape.n, shape.d, 0)
		dims := allDims(shape.d)
		r := rng.New(2)
		points := make([][]float64, 256)
		for i := range points {
			points[i] = make([]float64, shape.d)
			for j := range points[i] {
				points[i][j] = r.Float64()
			}
		}
		for _, kind := range []Kind{KindBrute, KindKDTree} {
			ix, err := New(ds, dims, kind)
			if err != nil {
				b.Fatal(err)
			}
			name := fmt.Sprintf("%dx%d/%v", shape.n, shape.d, kind)
			b.Run(name+"/KNN", func(b *testing.B) {
				sc := ix.NewScratch()
				var nb []Neighbor
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					nb, _ = ix.KNN(i%ds.N(), 10, sc, nb)
				}
			})
			b.Run(name+"/KNNPoint", func(b *testing.B) {
				sc := ix.NewScratch()
				var nb []Neighbor
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					nb, _ = ix.KNNPoint(points[i%len(points)], 10, sc, nb)
				}
			})
		}
	}
}
