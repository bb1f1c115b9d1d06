package core

import (
	"context"
	"math"
	"slices"
	"testing"

	"hics/internal/dataset"
	"hics/internal/rng"
	"hics/internal/subspace"
)

// TestSubsampleWithinTolerance: the bounded-subsample contrast must stay
// close to the full-data contrast — it estimates the same quantity on a
// uniform row sample — on both high- and low-contrast subspaces.
func TestSubsampleWithinTolerance(t *testing.T) {
	pFull := Params{M: 100, Seed: 19}
	pSub := pFull
	pSub.MaxSampleRows = 1000
	for name, ds := range map[string]*dataset.Dataset{
		"correlated":   correlatedPair(18, 5000, 2),
		"uncorrelated": uncorrelated(20, 5000, 2),
	} {
		full, err := ContrastOf(ds, subspace.New(0, 1), pFull)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := ContrastOf(ds, subspace.New(0, 1), pSub)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(full-sub) > 0.1 {
			t.Errorf("%s: subsampled contrast %v vs full %v, |Δ| > 0.1", name, sub, full)
		}
	}
}

// TestSubsampleDeterministicAndGated: the subsample is drawn from a
// derived stream keyed to the subspace, so repeated calls agree exactly;
// and a bound at or above N changes nothing — bit-for-bit the full-data
// contrast.
func TestSubsampleDeterministicAndGated(t *testing.T) {
	ds := correlatedPair(21, 2000, 3)
	p := Params{M: 50, Seed: 22, MaxSampleRows: 500}
	a, err := ContrastOf(ds, subspace.New(0, 1, 2), p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ContrastOf(ds, subspace.New(0, 1, 2), p)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("subsampled contrast not deterministic: %v vs %v", a, b)
	}
	pOff := p
	pOff.MaxSampleRows = 0
	pHigh := p
	pHigh.MaxSampleRows = ds.N() // bound == N: no subsample engaged
	full, err := ContrastOf(ds, subspace.New(0, 1, 2), pOff)
	if err != nil {
		t.Fatal(err)
	}
	gated, err := ContrastOf(ds, subspace.New(0, 1, 2), pHigh)
	if err != nil {
		t.Fatal(err)
	}
	if gated != full {
		t.Errorf("MaxSampleRows = N changed the contrast: %v vs %v", gated, full)
	}
}

// TestSubsampleParentStreamUntouched: engaging the subsample derives its
// randomness from a side stream, so the Monte Carlo iteration stream is
// unperturbed — the same seed draws the same slices whether or not the
// run is subsampled. Observable consequence: two different bounds on the
// same data still produce highly similar estimates (same slice pattern on
// different row samples), and the full run is exactly reproducible after
// a subsampled one.
func TestSubsampleParentStreamUntouched(t *testing.T) {
	ds := correlatedPair(23, 3000, 2)
	full1, err := ContrastOf(ds, subspace.New(0, 1), Params{M: 50, Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ContrastOf(ds, subspace.New(0, 1), Params{M: 50, Seed: 24, MaxSampleRows: 800}); err != nil {
		t.Fatal(err)
	}
	full2, err := ContrastOf(ds, subspace.New(0, 1), Params{M: 50, Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	if full1 != full2 {
		t.Errorf("full contrast not reproducible around a subsampled run: %v vs %v", full1, full2)
	}
}

// TestAdaptiveWithSubsampleSearch: a subsampled search still finds the
// planted subspace, and the ignored AdaptiveM field leaves every
// candidate spending exactly M iterations.
func TestAdaptiveWithSubsampleSearch(t *testing.T) {
	ds := correlatedPair(25, 2000, 8)
	p := Params{M: 60, Seed: 26, Cutoff: 6, TopK: 5, MaxDim: 2, AdaptiveM: true, MaxSampleRows: 500}
	res, err := SearchContext(context.Background(), ds, p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Subspaces[0].S.SupersetOf(subspace.New(0, 1)) {
		t.Errorf("top subspace %v does not contain the planted pair", res.Subspaces[0].S)
	}
	if res.MCIterations != res.Evaluated*60 {
		t.Errorf("spent %d Monte Carlo iterations, want %d", res.MCIterations, res.Evaluated*60)
	}
}

// referenceSampleView is the earlier subsample view, kept as the oracle
// for sampleView: Floyd's draw into a map, the ids sorted by comparison,
// and per subspace position the local ids sorted by value with a
// comparator that breaks ties (−0 and +0 among them) toward the lower id.
func referenceSampleView(ds *dataset.Dataset, s subspace.Subspace, r *rng.RNG, m int) (ids []int, cols []column) {
	n := ds.N()
	chosen := make(map[int]struct{}, m)
	for i := n - m; i < n; i++ {
		j := r.Intn(i + 1)
		if _, dup := chosen[j]; dup {
			j = i
		}
		chosen[j] = struct{}{}
		ids = append(ids, j)
	}
	slices.Sort(ids)
	for _, attr := range s {
		c := column{order: make([]int, m), rank: make([]int32, m), vals: make([]float64, m)}
		for k, id := range ids {
			c.order[k] = k
			c.vals[k] = ds.Col(attr)[id]
		}
		slices.SortFunc(c.order, func(a, b int) int {
			switch {
			case c.vals[a] < c.vals[b]:
				return -1
			case c.vals[a] > c.vals[b]:
				return 1
			default:
				return a - b
			}
		})
		setRanks(c.rank, c.order)
		cols = append(cols, c)
	}
	return ids, cols
}

// sampleViewDataset has n rows and six columns that stress the radix
// order: heavy duplicates, a mix of −0 and +0, negatives and positives of
// every magnitude, ±Inf, subnormals, and one constant column.
func sampleViewDataset(seed uint64, n int) *dataset.Dataset {
	r := rng.New(seed)
	cols := make([][]float64, 6)
	for j := range cols {
		cols[j] = make([]float64, n)
	}
	special := []float64{math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1050,
		math.MaxFloat64, -math.MaxFloat64, 1, -1}
	for i := 0; i < n; i++ {
		cols[0][i] = float64(r.Intn(4)) - 1.5
		if r.Intn(2) == 0 {
			cols[1][i] = math.Copysign(0, -1)
		} else {
			cols[1][i] = float64(r.Intn(3)) * 0.0
		}
		cols[2][i] = r.NormalScaled(0, 1) * math.Pow(10, float64(r.Intn(40)-20))
		cols[3][i] = special[r.Intn(len(special))]
		cols[4][i] = float64(r.Intn(1<<20)-1<<19) * math.SmallestNonzeroFloat64
		cols[5][i] = 2.5
	}
	return dataset.MustNew(nil, cols)
}

// TestSampleViewMatchesReference: the bit-set draw and the radix order
// give the same ids, local order, ranks and values as the map-based draw
// and comparison sort they replace, for sample sizes from 1 to n−1 and
// row counts on and off a multiple of 64. The same Scratch serves every
// draw, so a set left dirty by one draw would show in the next.
func TestSampleViewMatchesReference(t *testing.T) {
	for _, n := range []int{2, 63, 64, 65, 130, 1000} {
		ds := sampleViewDataset(uint64(n), n)
		for _, m := range []int{1, 2, n / 3, n / 2, n - 1} {
			if m < 1 || m >= n {
				continue
			}
			e := NewEvaluator(ds, Params{MaxSampleRows: m})
			sc := e.NewScratch()
			for _, s := range []subspace.Subspace{subspace.New(0, 1, 2, 3, 4, 5), subspace.New(3, 1)} {
				for seed := uint64(0); seed < 3; seed++ {
					got := e.sampleView(s, rng.New(seed), m, sc)
					wantIDs, want := referenceSampleView(ds, s, rng.New(seed), m)
					if !slices.Equal(sc.ids, wantIDs) {
						t.Fatalf("n=%d m=%d %v seed %d: ids %v, want %v", n, m, s, seed, sc.ids, wantIDs)
					}
					for i := range want {
						g, w := got[i], want[i]
						if !slices.Equal(g.order, w.order) || !slices.Equal(g.rank, w.rank) || !slices.EqualFunc(g.vals, w.vals, func(a, b float64) bool {
							return math.Float64bits(a) == math.Float64bits(b)
						}) {
							t.Fatalf("n=%d m=%d %v seed %d: attribute %d view differs:\norder %v\nwant  %v", n, m, s, seed, s[i], g.order, w.order)
						}
					}
				}
			}
		}
	}
}
