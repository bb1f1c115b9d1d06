package neighbors

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
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

// TestCheckSize: New refuses a dataset whose object ids overflow the
// k-d tree's int32 permutation. The check runs before any column is read,
// so it is tested on the count alone.
func TestCheckSize(t *testing.T) {
	n := math.MaxInt32
	if err := checkSize(n); err != nil {
		t.Errorf("checkSize(MaxInt32) = %v, want nil", err)
	}
	if strconv.IntSize == 32 {
		t.Skip("an int cannot count past MaxInt32")
	}
	if err := checkSize(n + 1); !errors.Is(err, ErrTooManyObjects) {
		t.Errorf("checkSize(MaxInt32+1) = %v, want ErrTooManyObjects", err)
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

// duplicateRowsDataset is n×2 where every row appears three times, so
// most neighborhoods are tie-extended past k at distance zero.
func duplicateRowsDataset(seed uint64, n int) *dataset.Dataset {
	base := randomDataset(seed, (n+2)/3, 2, 0)
	cols := [][]float64{make([]float64, n), make([]float64, n)}
	for i := 0; i < n; i++ {
		cols[0][i], cols[1][i] = base.Col(0)[i/3], base.Col(1)[i/3]
	}
	return dataset.MustNew(nil, cols)
}

// knnAllDatasets are the shapes the batch pass must answer exactly: random,
// tie-heavy, constant-column and duplicate-row data of the given sizes.
func knnAllDatasets(sizes ...int) map[string]*dataset.Dataset {
	sets := map[string]*dataset.Dataset{}
	for _, n := range sizes {
		sets[fmt.Sprintf("random/n=%d", n)] = randomDataset(uint64(n), n, 3, 0)
		sets[fmt.Sprintf("ties/n=%d", n)] = randomDataset(uint64(n)+1, n, 2, 4)
		sets[fmt.Sprintf("constant/n=%d", n)] = constantColumnDataset(uint64(n)+2, n)
		sets[fmt.Sprintf("duplicates/n=%d", n)] = duplicateRowsDataset(uint64(n)+3, n)
	}
	return sets
}

// TestKNNAllMatchesKNN pins the batch pass to per-query KNN, bit for bit,
// on both backends and at several worker counts: same k-distance, same
// neighbor ids and distances, same neighborhood sizes. Sizes span leafSize
// and, for the tree (the only backend the size changes), the smallest tree
// whose build runs on two workers.
func TestKNNAllMatchesKNN(t *testing.T) {
	const k = 7
	sets := knnAllDatasets(leafSize, leafSize+1, 3*leafSize+2, 150)
	if !testing.Short() {
		for name, ds := range knnAllDatasets(2*parallelBuildMin + 1) {
			sets["tree-only/"+name] = ds
		}
	}
	for name, ds := range sets {
		for _, kind := range []Kind{KindBrute, KindKDTree} {
			if kind == KindBrute && strings.HasPrefix(name, "tree-only/") {
				continue
			}
			ix, err := New(ds, allDims(ds.D()), kind)
			if err != nil {
				t.Fatal(err)
			}
			sc := ix.NewScratch()
			wantNbs := make([][]Neighbor, ds.N())
			wantKd := make([]float64, ds.N())
			for q := range wantNbs {
				wantNbs[q], wantKd[q] = ix.KNN(q, k, sc, nil)
			}
			for _, workers := range []int{1, 2, 4} {
				nbs, kdists, err := ix.KNNAllContext(context.Background(), k, workers)
				if err != nil {
					t.Fatal(err)
				}
				if len(nbs) != ds.N() || len(kdists) != ds.N() {
					t.Fatalf("%s %v workers=%d: %d neighborhoods, %d k-distances for %d objects",
						name, kind, workers, len(nbs), len(kdists), ds.N())
				}
				for q, nb := range wantNbs {
					if math.Float64bits(wantKd[q]) != math.Float64bits(kdists[q]) {
						t.Fatalf("%s %v workers=%d: kdist[%d] = %v, KNN = %v", name, kind, workers, q, kdists[q], wantKd[q])
					}
					if len(nb) != len(nbs[q]) {
						t.Fatalf("%s %v workers=%d: nbs[%d] len %d, KNN %d", name, kind, workers, q, len(nbs[q]), len(nb))
					}
					for i := range nb {
						got := nbs[q][i]
						if got.ID != nb[i].ID || math.Float64bits(got.Dist) != math.Float64bits(nb[i].Dist) {
							t.Fatalf("%s %v workers=%d: nbs[%d][%d] = %v, KNN = %v", name, kind, workers, q, i, got, nb[i])
						}
					}
				}
			}
		}
	}
}

// TestKNNAllContextRowsAreCapLimited pins the slab layout: appending to a
// returned neighborhood must not overwrite the next object's.
func TestKNNAllContextRowsAreCapLimited(t *testing.T) {
	for _, ds := range []*dataset.Dataset{randomDataset(51, 300, 2, 0), duplicateRowsDataset(52, 300)} {
		for _, kind := range []Kind{KindBrute, KindKDTree} {
			ix, err := New(ds, allDims(2), kind)
			if err != nil {
				t.Fatal(err)
			}
			nbs, _, err := ix.KNNAllContext(context.Background(), 5, 2)
			if err != nil {
				t.Fatal(err)
			}
			want := make([][]Neighbor, len(nbs))
			for q, nb := range nbs {
				want[q] = append([]Neighbor(nil), nb...)
			}
			for q := range nbs {
				_ = append(nbs[q], Neighbor{ID: -1, Dist: -1})
			}
			for q, nb := range nbs {
				if len(nb) != len(want[q]) {
					t.Fatalf("%v: row %d changed length", kind, q)
				}
				for i := range nb {
					if nb[i] != want[q][i] {
						t.Fatalf("%v: appending to row %d overwrote row %d: %v, want %v", kind, q-1, q, nb[i], want[q][i])
					}
				}
			}
		}
	}
}

// TestKNNAllContextCancel: a cancelled context stops the batch pass and
// returns ctx.Err() on both backends.
func TestKNNAllContextCancel(t *testing.T) {
	ds := randomDataset(53, 500, 2, 0)
	for _, kind := range []Kind{KindBrute, KindKDTree} {
		ix, err := New(ds, allDims(2), kind)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		for _, workers := range []int{1, 2} {
			if _, _, err := ix.KNNAllContext(ctx, 5, workers); !errors.Is(err, context.Canceled) {
				t.Errorf("%v workers=%d: KNNAllContext on a cancelled ctx = %v, want %v", kind, workers, err, context.Canceled)
			}
			calls := 0
			err := ForEachKNN(ctx, ix, 5, workers, func(int, []Neighbor, float64) { calls++ })
			if !errors.Is(err, context.Canceled) || calls != 0 {
				t.Errorf("%v workers=%d: ForEachKNN on a cancelled ctx = %v after %d calls", kind, workers, err, calls)
			}
		}
	}
}

// TestForEachKNNLeafOrder: on a k-d tree the driver visits the objects in
// the order of the tree's id permutation, each exactly once.
func TestForEachKNNLeafOrder(t *testing.T) {
	ds := randomDataset(54, 1000, 2, 0)
	ix, err := New(ds, allDims(2), KindKDTree)
	if err != nil {
		t.Fatal(err)
	}
	var order []int32
	if err := ForEachKNN(context.Background(), ix, 5, 1, func(q int, _ []Neighbor, _ float64) {
		order = append(order, int32(q))
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(order, ix.(*KDTree).ids) {
		t.Fatal("single-worker ForEachKNN does not visit the k-d tree's objects in leaf order")
	}
}

// TestParallelBuildMatchesSerial: building the disjoint subtrees
// concurrently yields the serial build's id permutation.
func TestParallelBuildMatchesSerial(t *testing.T) {
	n := 4*2*parallelBuildMin + 5
	for name, ds := range map[string]*dataset.Dataset{
		"random":   randomDataset(55, n, 3, 0),
		"ties":     randomDataset(56, n, 2, 4),
		"constant": constantColumnDataset(57, n),
	} {
		cols, err := selectCols(ds, allDims(ds.D()))
		if err != nil {
			t.Fatal(err)
		}
		serial := newKDTree(cols, n, 1)
		for workers := 1; workers <= 4; workers++ {
			if got := newKDTree(cols, n, workers); !slices.Equal(got.ids, serial.ids) {
				t.Errorf("%s: build with %d workers differs from the serial build", name, workers)
			}
		}
	}
}

// TestKNNAllContextAllocs: the batch pass allocates a fixed number of
// slices, not one per object. Tie-free data keeps every row in the slab.
// One worker: AllocsPerRun measures at GOMAXPROCS 1, where a second
// worker may or may not be scheduled (and warm a scratch) before the
// first one finishes a small pass.
func TestKNNAllContextAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race; the pin runs in non-race builds")
	}
	for _, c := range []struct {
		kind         Kind
		small, large int // brute is quadratic, so it gets smaller sizes
	}{{KindKDTree, 5000, 40000}, {KindBrute, 2000, 8000}} {
		allocs := func(n int) float64 {
			ix, err := New(randomDataset(58, n, 2, 0), allDims(2), c.kind)
			if err != nil {
				t.Fatal(err)
			}
			return testing.AllocsPerRun(2, func() {
				if _, _, err := ix.KNNAllContext(context.Background(), 10, 1); err != nil {
					t.Fatal(err)
				}
			})
		}
		if small, large := allocs(c.small), allocs(c.large); large > small+2 {
			t.Errorf("%v: KNNAllContext allocates %.0f times at n=%d, %.0f at n=%d",
				c.kind, large, c.large, small, c.small)
		}
	}
}

func TestKNNEdgeCases(t *testing.T) {
	// Five points on a line plus one far away: from point 2, points 1 and
	// 3 lie at distance 1 and points 0 and 4 at distance 2.
	line := dataset.MustNew(nil, [][]float64{{0, 1, 2, 3, 4, 100}})
	cases := []struct {
		name   string
		ds     *dataset.Dataset
		q, k   int
		want   []int
		wantKd float64
	}{
		{"k=0", line, 0, 0, nil, 0},
		{"k<0", line, 0, -3, nil, 0},
		{"nearest two", line, 0, 2, []int{1, 2}, 2},
		{"k clamped to N-1", line, 0, 100, []int{1, 2, 3, 4, 5}, 100},
		// The 3rd nearest lies at distance 2, shared by points 0 and 4:
		// the LOF neighborhood keeps every object tied at the k-distance.
		{"ties at the k-distance expand", line, 2, 3, []int{0, 1, 3, 4}, 2},
		// A duplicate of q is its nearest neighbor at distance 0; q itself
		// is never its own neighbor.
		{"duplicate excludes self", dataset.MustNew(nil, [][]float64{{1, 1, 5}}), 0, 1, []int{1}, 0},
		{"singleton has no neighbors", dataset.MustNew(nil, [][]float64{{1}, {2}}), 0, 1, nil, 0},
	}
	for _, tc := range cases {
		for _, kind := range []Kind{KindBrute, KindKDTree} {
			ix, err := New(tc.ds, allDims(tc.ds.D()), kind)
			if err != nil {
				t.Fatal(err)
			}
			nb, kd := ix.KNN(tc.q, tc.k, ix.NewScratch(), nil)
			ids := make([]int, len(nb))
			for i, x := range nb {
				ids[i] = x.ID
			}
			if !slices.Equal(ids, tc.want) || kd != tc.wantKd {
				t.Errorf("%s/%v: got ids %v kdist %v, want %v kdist %v", tc.name, kind, ids, kd, tc.want, tc.wantKd)
			}
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
	// (0,0)–(3,4) is 5 apart in the plane and 3 apart on the first axis.
	pts := dataset.MustNew(nil, [][]float64{{0, 3}, {0, 4}})
	for _, kind := range []Kind{KindBrute, KindKDTree} {
		for _, c := range []struct {
			dims []int
			want float64
		}{{[]int{0, 1}, 5}, {[]int{0}, 3}} {
			ix, err := New(pts, c.dims, kind)
			if err != nil {
				t.Fatal(err)
			}
			if d := ix.Dist(0, 1); d != c.want {
				t.Errorf("%v: Dist over %v = %v, want %v", kind, c.dims, d, c.want)
			}
		}
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

// exactBackends are the index kinds the definition properties check.
// Both share the k-best buffer, so each is checked against the sort-based
// isExactNeighborhood, not against the other.
var exactBackends = []Kind{KindBrute, KindKDTree}

// Property: each backend's neighborhood is exactly the set of points
// within the k-th smallest distance, on adversarially tie-heavy data.
func TestQuickKDTreeDefinition(t *testing.T) {
	f := func(seed uint64, nRaw uint16, kRaw, dRaw uint8) bool {
		r := rng.New(seed)
		ds := quickTieData(r, nRaw, dRaw)
		n := ds.N()
		k := int(kRaw)%(n-1) + 1
		q := r.Intn(n)
		qv := ds.Row(q, nil)
		d2s := map[int]float64{}
		for i := 0; i < n; i++ {
			if i != q {
				d2s[i] = sqDist(ds, i, qv)
			}
		}
		for _, kind := range exactBackends {
			ix, err := New(ds, allDims(ds.D()), kind)
			if err != nil {
				return false
			}
			nb, kd := ix.KNN(q, k, ix.NewScratch(), nil)
			if !isExactNeighborhood(d2s, k, nb, kd) {
				t.Logf("%v: KNN(%d, %d) on n=%d d=%d is not the exact neighborhood", kind, q, k, n, ds.D())
				return false
			}
		}
		return true
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
		q := make([]float64, d)
		for j := range q {
			q[j] = r.Float64() * 5
			if r.Float64() < 0.5 {
				q[j] = math.Floor(q[j])
			}
		}
		d2s := map[int]float64{}
		for i := 0; i < n; i++ {
			d2s[i] = sqDist(ds, i, q)
		}
		for _, kind := range exactBackends {
			ix, err := New(ds, allDims(d), kind)
			if err != nil {
				return false
			}
			nb, kd := ix.KNNPoint(q, k, ix.NewScratch(), nil)
			if !isExactNeighborhood(d2s, k, nb, kd) {
				t.Logf("%v: KNNPoint(%v, %d) on n=%d d=%d is not the exact neighborhood", kind, q, k, n, d)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the batch driver hands every object, exactly once, its exact
// neighborhood on each backend, with scratch buffers reused across
// queries of mixed neighborhood sizes. Each input checks n queries per
// backend, so it draws fewer inputs than the single-query properties.
func TestQuickForEachKNNDefinition(t *testing.T) {
	f := func(seed uint64, nRaw uint16, kRaw, dRaw uint8) bool {
		r := rng.New(seed)
		ds := quickTieData(r, nRaw, dRaw)
		n := ds.N()
		k := int(kRaw)%(n-1) + 1
		d2s := make([]map[int]float64, n) // d2s[q][i]: squared distance of i from q
		for q := range d2s {
			qv := ds.Row(q, nil)
			d2s[q] = map[int]float64{}
			for i := 0; i < n; i++ {
				if i != q {
					d2s[q][i] = sqDist(ds, i, qv)
				}
			}
		}
		for _, kind := range exactBackends {
			ix, err := New(ds, allDims(ds.D()), kind)
			if err != nil {
				return false
			}
			seen := make([]bool, n)
			ok := true
			err = ForEachKNN(context.Background(), ix, k, 1, func(q int, nb []Neighbor, kd float64) {
				if seen[q] || !isExactNeighborhood(d2s[q], k, nb, kd) {
					t.Logf("%v: ForEachKNN answer for object %d (k=%d, n=%d) is repeated or not exact", kind, q, k, n)
					ok = false
				}
				seen[q] = true
			})
			if err != nil || !ok || slices.Contains(seen, false) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
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

func TestNthElement(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 50; trial++ {
		n := r.IntRange(2, 100)
		col := make([]float64, n)
		for i := range col {
			col[i] = math.Floor(r.Float64() * 3) // constant-ish columns
		}
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = int32(i)
		}
		k := r.Intn(n)
		want := append([]int32(nil), ids...)
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

// BenchmarkKNNAll times the fit-time all-kNN pass on one worker at k=10:
// KNNAllContext materializes every neighborhood into its slab, ForEachKNN
// streams them (a no-op consumer, as a distance-sum scorer would use it).
func BenchmarkKNNAll(b *testing.B) {
	for _, d := range []int{2, 3} {
		ix, err := New(randomDataset(1, 100000, d, 0), allDims(d), KindKDTree)
		if err != nil {
			b.Fatal(err)
		}
		name := fmt.Sprintf("100000x%d/kdtree", d)
		b.Run(name+"/KNNAllContext", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := ix.KNNAllContext(context.Background(), 10, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/ForEachKNN", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := ForEachKNN(context.Background(), ix, 10, 1, func(int, []Neighbor, float64) {}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKDTreeBuild times a 100,000-object tree build on one and on two
// workers; both build the same tree.
func BenchmarkKDTreeBuild(b *testing.B) {
	ds := randomDataset(1, 100000, 3, 0)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("100000x3/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewWorkers(ds, allDims(3), KindKDTree, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKNNLargeK times single queries at k = 10, 100 and 1000 on
// 100000×2 uniform rows, and brute queries at k = 1000 on rows offered
// farthest first (ids in order of falling distance from the query), where
// every offered object evicts one from the k-best buffer.
func BenchmarkKNNLargeK(b *testing.B) {
	ds := randomDataset(1, 100000, 2, 0)
	for _, kind := range []Kind{KindKDTree, KindBrute} {
		ix, err := New(ds, allDims(2), kind)
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range []int{10, 100, 1000} {
			b.Run(fmt.Sprintf("uniform/%v/k%d", kind, k), func(b *testing.B) {
				sc := ix.NewScratch()
				var nb []Neighbor
				for i := 0; i < b.N; i++ {
					nb, _ = ix.KNN(i%ds.N(), k, sc, nb)
				}
			})
		}
	}
	n := 20000
	x, y := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = float64(n - i)
	}
	ix, err := New(dataset.MustNew(nil, [][]float64{x, y}), allDims(2), KindBrute)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("farthest-first/brute/k1000", func(b *testing.B) {
		sc := ix.NewScratch()
		var nb []Neighbor
		for i := 0; i < b.N; i++ {
			nb, _ = ix.KNNPoint([]float64{0, 0}, 1000, sc, nb)
		}
	})
}

// BenchmarkAutoCrossover times both backends at the sizes around
// AutoMinN, on one worker at k = 10: "fit" is a build plus the all-kNN
// pass a fit runs on each subspace, "point" one out-of-sample query, as
// a served row makes on each subspace. AutoMinN is the smallest of these
// N at which the tree wins both on 2 and 4 dimensions (docs/methods.md
// lists the medians).
func BenchmarkAutoCrossover(b *testing.B) {
	for _, n := range []int{32, 64, 128, 256} {
		for _, d := range []int{2, 4, 8} {
			ds := randomDataset(1, n, d, 0)
			dims := allDims(d)
			r := rng.New(2)
			points := make([][]float64, 64)
			for i := range points {
				points[i] = make([]float64, d)
				for j := range points[i] {
					points[i][j] = r.Float64()
				}
			}
			for _, kind := range []Kind{KindBrute, KindKDTree} {
				name := fmt.Sprintf("n=%d/d=%d/%v", n, d, kind)
				b.Run(name+"/fit", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						ix, err := NewWorkers(ds, dims, kind, 1)
						if err != nil {
							b.Fatal(err)
						}
						if err := ForEachKNN(context.Background(), ix, 10, 1, func(int, []Neighbor, float64) {}); err != nil {
							b.Fatal(err)
						}
					}
				})
				ix, err := New(ds, dims, kind)
				if err != nil {
					b.Fatal(err)
				}
				b.Run(name+"/point", func(b *testing.B) {
					sc := ix.NewScratch()
					var nb []Neighbor
					for i := 0; i < b.N; i++ {
						nb, _ = ix.KNNPoint(points[i%len(points)], 10, sc, nb)
					}
				})
			}
		}
	}
}
