package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"hics/internal/dataset"
	"hics/internal/race"
	"hics/internal/rng"
	"hics/internal/subspace"
)

// refScratch holds the buffers of referenceContrast: N-sized conjunction
// counters with an iteration stamp for lazy reset.
type refScratch struct {
	perm  []int     // permutation of subspace attributes
	count []int32   // conjunction counter per object
	stamp []int32   // iteration stamp for lazy counter reset
	iter  int32     // current stamp value
	cond  []float64 // conditional sample values
}

func newRefScratch(n int) *refScratch {
	return &refScratch{
		count: make([]int32, n),
		stamp: make([]int32, n),
		cond:  make([]float64, 0, n),
	}
}

// referenceContrast is the earlier Monte Carlo kernel, kept verbatim as
// the bit-identity oracle for ContrastContext: each iteration scatters a
// stamp and a counter over every condition's index block, and the
// conditional sample is the rows of the first block counted in all d−1
// blocks.
func referenceContrast(e *Evaluator, s subspace.Subspace, r *rng.RNG, sc *refScratch) float64 {
	d := s.Dim()
	if d < 2 {
		return 0
	}
	p := e.params

	// sorted[i] is the slicing order of the estimate's rows by attribute
	// s[i]: the dataset's full sorted index, or the subsample's.
	rows := e.ds.N()
	var sorted [][]int
	if p.MaxSampleRows > 0 && rows > p.MaxSampleRows {
		rows = p.MaxSampleRows
		sorted = referenceSampleSortedIndex(e, s, r.Derive(sampleStream), rows)
	} else {
		sorted = make([][]int, d)
		for i, attr := range s {
			sorted[i] = e.ds.SortedIndex(attr)
		}
	}

	alpha1 := math.Pow(p.Alpha, 1/float64(d))
	blockSize := int(math.Round(alpha1 * float64(rows)))
	if blockSize < 1 {
		blockSize = 1
	}
	if blockSize > rows {
		blockSize = rows
	}

	if cap(sc.perm) < d {
		sc.perm = make([]int, d)
	}
	perm := sc.perm[:d]

	sum := 0.0
	for iter := 0; iter < p.M; iter++ {
		sc.iter++
		if sc.iter < 0 {
			for i := range sc.stamp {
				sc.stamp[i] = 0
			}
			sc.iter = 1
		}
		r.PermInto(perm)

		// Apply |S|−1 conditions; remember the first block to enumerate the
		// conjunction (the selected set is a subset of every block).
		var firstBlock []int
		need := int32(d - 1)
		for j := 0; j < d-1; j++ {
			idx := sorted[perm[j]]
			start := r.Intn(rows - blockSize + 1)
			block := idx[start : start+blockSize]
			if j == 0 {
				firstBlock = block
			}
			for _, id := range block {
				if sc.stamp[id] != sc.iter {
					sc.stamp[id] = sc.iter
					sc.count[id] = 1
				} else {
					sc.count[id]++
				}
			}
		}

		// Conditional sample of the remaining attribute.
		lastAttr := s[perm[d-1]]
		col := e.ds.Col(lastAttr)
		cond := sc.cond[:0]
		for _, id := range firstBlock {
			if sc.stamp[id] == sc.iter && sc.count[id] == need {
				cond = append(cond, col[id])
			}
		}
		sc.cond = cond

		sum += e.deviation(lastAttr, cond)
	}
	return sum / float64(p.M)
}

// referenceSampleSortedIndex is the earlier subsample draw: m distinct
// row ids by Floyd's sampling, then per subspace position the sample
// sorted by that attribute, ties toward the lower row id.
func referenceSampleSortedIndex(e *Evaluator, s subspace.Subspace, r *rng.RNG, m int) [][]int {
	n := e.ds.N()
	chosen := make(map[int]struct{}, m)
	ids := make([]int, 0, m)
	for i := n - m; i < n; i++ {
		j := r.Intn(i + 1)
		if _, dup := chosen[j]; dup {
			j = i
		}
		chosen[j] = struct{}{}
		ids = append(ids, j)
	}
	sort.Ints(ids)

	sorted := make([][]int, s.Dim())
	for i, attr := range s {
		col := e.ds.Col(attr)
		so := append([]int(nil), ids...)
		sort.Slice(so, func(a, b int) bool {
			if col[so[a]] != col[so[b]] {
				return col[so[a]] < col[so[b]]
			}
			return so[a] < so[b]
		})
		sorted[i] = so
	}
	return sorted
}

// kernelDataset mixes the column shapes the slicing must handle alike:
// a correlated pair, a tie-heavy column (four distinct values) that
// follows the pair, a constant column, a tie-heavy noise column and two
// continuous noise columns.
func kernelDataset(seed uint64, n int) *dataset.Dataset {
	r := rng.New(seed)
	cols := make([][]float64, 7)
	for j := range cols {
		cols[j] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		x := r.Float64()
		cols[0][i] = x
		cols[1][i] = x + r.NormalScaled(0, 0.05)
		cols[2][i] = math.Floor(x * 4)
		cols[3][i] = 1.5
		cols[4][i] = float64(r.Intn(3))
		cols[5][i] = r.Float64()
		cols[6][i] = r.NormalScaled(0, 1)
	}
	return dataset.MustNew(nil, cols)
}

// subspacesOf lists every third subspace of dims 0..d-1 with 2 to 6
// attributes, in bitmask order. For d = 7 that keeps 40 of 119, with every
// size from 2 to 6 among them.
func subspacesOf(d int) []subspace.Subspace {
	var out []subspace.Subspace
	n := 0
	for mask := 0; mask < 1<<d; mask++ {
		var dims []int
		for j := 0; j < d; j++ {
			if mask&(1<<j) != 0 {
				dims = append(dims, j)
			}
		}
		if len(dims) < 2 || len(dims) > 6 {
			continue
		}
		if n%3 == 0 {
			out = append(out, subspace.New(dims...))
		}
		n++
	}
	return out
}

// TestContrastMatchesReference pins the rank-filter kernel to the
// stamp/count kernel bit for bit: same random draws, same conditional
// samples in the same order, so every contrast has identical bits. It
// covers d = 2..6, every test, several M and α, full-data and subsampled
// estimates, and one Scratch reused across all candidates of an
// evaluator.
func TestContrastMatchesReference(t *testing.T) {
	ds := kernelDataset(3, 400)
	ds.EnsureIndexes()
	subs := subspacesOf(ds.D())
	for _, test := range []Test{WelchT, KolmogorovSmirnov, MannWhitney, CramerVonMises} {
		for _, m := range []int{1, 13} {
			for _, alpha := range []float64{0.002, 0.1, 0.45} {
				for _, rows := range []int{0, 150, 399} {
					p := Params{M: m, Alpha: alpha, Test: test, Seed: 11, MaxSampleRows: rows}
					name := fmt.Sprintf("%v/M=%d/alpha=%v/rows=%d", test, m, alpha, rows)
					e := NewEvaluator(ds, p)
					sc, ref := e.NewScratch(), newRefScratch(ds.N())
					for _, s := range subs {
						stream := func() *rng.RNG { return rng.New(p.Seed).Derive(hashSubspace(s)) }
						got, err := e.ContrastContext(context.Background(), s, stream(), sc)
						if err != nil {
							t.Fatal(err)
						}
						want := referenceContrast(e, s, stream(), ref)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s %v: contrast %v, reference %v", name, s, got, want)
						}
					}
				}
			}
		}
	}
}

// TestContrastGroupTails pins the grouped Welch loop to the serial
// reference bit for bit for every shape of the last group: M below one
// group, a full group, one group plus a partial one, and the default
// M = 50, whose last group holds two iterations and two padded lanes.
// Full-data and subsampled estimates share one Scratch per evaluator.
func TestContrastGroupTails(t *testing.T) {
	ds := kernelDataset(5, 300)
	ds.EnsureIndexes()
	subs := subspacesOf(ds.D())
	for _, m := range []int{2, 3, 4, 5, 7, 8, 50} {
		for _, rows := range []int{0, 120} {
			p := Params{M: m, Seed: 7, MaxSampleRows: rows}
			e := NewEvaluator(ds, p)
			sc, ref := e.NewScratch(), newRefScratch(ds.N())
			for _, s := range subs {
				stream := func() *rng.RNG { return rng.New(p.Seed).Derive(hashSubspace(s)) }
				got, err := e.ContrastContext(context.Background(), s, stream(), sc)
				if err != nil {
					t.Fatal(err)
				}
				want := referenceContrast(e, s, stream(), ref)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("M=%d rows=%d %v: contrast %v, reference %v", m, rows, s, got, want)
				}
			}
		}
	}
}

// TestContrastContextCancelled: an already cancelled context stops the
// Monte Carlo loop at its first group check, for the grouped Welch loop
// and the one-iteration groups of KS alike.
func TestContrastContextCancelled(t *testing.T) {
	ds := correlatedPair(2, 500, 5)
	ds.EnsureIndexes()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, test := range []Test{WelchT, KolmogorovSmirnov} {
		e := NewEvaluator(ds, Params{Test: test, Seed: 3})
		sc := e.NewScratch()
		for d := 2; d <= 5; d++ {
			got, err := e.ContrastContext(ctx, subspace.Full(d), rng.New(1), sc)
			if !errors.Is(err, context.Canceled) || got != 0 {
				t.Errorf("%v d=%d: got (%v, %v), want (0, %v)", test, d, got, err, context.Canceled)
			}
		}
	}
}

// TestContrastZeroAllocs pins the Monte Carlo loop allocation-free once
// its Scratch is warm, on full-data and subsampled estimates. The
// Mann–Whitney test is left out: stats.MannWhitneyTest allocates its
// pooled ranking.
func TestContrastZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race; the pin runs in non-race builds")
	}
	ds := correlatedPair(5, 3000, 5)
	ds.EnsureIndexes()
	for _, rows := range []int{0, 500} {
		for _, test := range []Test{WelchT, KolmogorovSmirnov, CramerVonMises} {
			e := NewEvaluator(ds, Params{M: 10, Test: test, MaxSampleRows: rows})
			sc := e.NewScratch()
			r := rng.New(1)
			ctx := context.Background()
			for d := 5; d >= 2; d-- {
				s := subspace.Full(d)
				if _, err := e.ContrastContext(ctx, s, r, sc); err != nil {
					t.Fatal(err)
				}
				allocs := testing.AllocsPerRun(20, func() {
					if _, err := e.ContrastContext(ctx, s, r, sc); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Errorf("rows=%d %v d=%d: %v allocs per contrast on a warm scratch, want 0", rows, test, d, allocs)
				}
			}
		}
	}
}

// BenchmarkContrast times one contrast estimate (M = 50, α = 0.1, Welch)
// per subspace dimensionality, on all 2000 rows of a 2000×20 dataset
// (d = 2..8, the levels the paper-default search reaches) and on a
// 2000-row subsample of a 100000×5 one (d = 2..5).
func BenchmarkContrast(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		n, d    int
		maxRows int
	}{
		{"full/2000x20", 2000, 20, 0},
		{"subsample/100000x5", 100000, 5, 2000},
	} {
		ds := correlatedPair(1, cfg.n, cfg.d)
		ds.EnsureIndexes()
		e := NewEvaluator(ds, Params{M: 50, Seed: 1, MaxSampleRows: cfg.maxRows})
		for d := 2; d <= min(8, cfg.d); d++ {
			s := subspace.Full(d)
			b.Run(fmt.Sprintf("%s/d=%d", cfg.name, d), func(b *testing.B) {
				b.ReportAllocs()
				sc := e.NewScratch()
				r := rng.New(1)
				for b.Loop() {
					e.ContrastContext(context.Background(), s, r, sc)
				}
			})
		}
	}
}
