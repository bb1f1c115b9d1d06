package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"hics/internal/race"
	"hics/internal/subspace"
)

// TestSearchLazyIndexBitIdentical: the search builds the dataset's sorted
// indexes only where it reads them, so a search on a fresh dataset and one
// on a dataset whose indexes were built beforehand agree bit for bit, for
// every test, on all rows and on a subsample.
func TestSearchLazyIndexBitIdentical(t *testing.T) {
	for _, test := range []Test{WelchT, KolmogorovSmirnov, MannWhitney, CramerVonMises} {
		for _, rows := range []int{0, 300} {
			t.Run(fmt.Sprintf("%v/rows=%d", test, rows), func(t *testing.T) {
				p := Params{M: 10, Test: test, Seed: 4, Cutoff: 20, Workers: 2, MaxSampleRows: rows}
				lazy, err := SearchContext(context.Background(), correlatedPair(9, 800, 5), p)
				if err != nil {
					t.Fatal(err)
				}
				built := correlatedPair(9, 800, 5)
				built.EnsureIndexes()
				eager, err := SearchContext(context.Background(), built, p)
				if err != nil {
					t.Fatal(err)
				}
				if len(lazy.Levels) != len(eager.Levels) {
					t.Fatalf("%d levels without a prior index build, %d with", len(lazy.Levels), len(eager.Levels))
				}
				for l := range lazy.Levels {
					sameScored(t, fmt.Sprintf("level %d", l), lazy.Levels[l], eager.Levels[l])
				}
				sameScored(t, "subspaces", lazy.Subspaces, eager.Subspaces)
			})
		}
	}
}

// sameScored fails unless a and b list the same subspaces with contrasts
// of identical bits, in the same order.
func sameScored(t *testing.T, what string, a, b []subspace.Scored) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d entries without a prior index build, %d with", what, len(a), len(b))
	}
	for i := range a {
		if !a[i].S.Equal(b[i].S) || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			t.Fatalf("%s[%d]: %v %v without a prior index build, %v %v with",
				what, i, a[i].S, a[i].Score, b[i].S, b[i].Score)
		}
	}
}

// TestSearchSubsampledWelchAllocs: a subsampled Welch search reads neither
// the dataset's sorted indexes nor sorted marginals, so it builds neither.
// Either one alone is D·N·8 bytes; the whole search must allocate less.
func TestSearchSubsampledWelchAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race; the pin runs in non-race builds")
	}
	const n, d = 20000, 10
	ds := uncorrelated(6, n, d)
	p := Params{M: 10, Seed: 6, Cutoff: 20, Workers: 1, MaxSampleRows: 500}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := SearchContext(context.Background(), ds, p); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(d*n*8); got >= limit {
		t.Errorf("subsampled Welch search allocated %d bytes, want < D·N·8 = %d", got, limit)
	}
}
