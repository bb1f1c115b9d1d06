// Package ris implements RIS ("Ranking Interesting Subspaces", Kailing et
// al., PKDD 2003), the DBSCAN-based subspace search competitor of the
// paper's evaluation.
//
// RIS rates a subspace by its core objects: an object is a core object if
// its ε-neighborhood in the subspace holds at least MinPts objects. The
// quality of a subspace aggregates the neighborhood counts of all core
// objects, normalized by the count a uniform distribution would produce in
// the same volume, so that higher-dimensional subspaces are not penalized
// merely for being sparser. Candidates are grown level-wise: a subspace
// can only contain core objects if its projections do (density shrinks
// monotonically with added dimensions), giving an Apriori-style pruning.
//
// The cubic runtime the paper observes (Fig. 6) stems from the O(N²)
// neighborhood counting performed for the many candidates of each level;
// this implementation reproduces that behaviour faithfully (it measures
// each pair of objects once, which halves the constant, not the order).
package ris

import (
	"context"
	"fmt"
	"math"
	"slices"

	"hics/internal/dataset"
	"hics/internal/subspace"
)

// Eps is the neighborhood radius ε in the min-max normalized data space.
const Eps = 0.1

// Defaults of the Params fields, tuned for min-max normalized data.
const (
	DefaultMinPts = 10  // core-object density threshold
	DefaultTopK   = 100 // subspaces handed to the ranking step
	DefaultCutoff = 400 // candidates retained per level
	DefaultMaxDim = 6   // safety bound
)

// Params configures the RIS search. Zero values select defaults.
type Params struct {
	MinPts int // minimum neighbors for a core object
	TopK   int // returned subspaces (-1 = all)
	Cutoff int // candidates retained per level
	MaxDim int // candidate dimensionality bound
}

func (p Params) withDefaults() Params {
	if p.MinPts <= 0 {
		p.MinPts = DefaultMinPts
	}
	if p.TopK == 0 {
		p.TopK = DefaultTopK
	}
	if p.Cutoff <= 0 {
		p.Cutoff = DefaultCutoff
	}
	if p.MaxDim <= 0 {
		p.MaxDim = DefaultMaxDim
	}
	return p
}

// Quality measures subspace s: the mean ε-neighborhood count over core
// objects, normalized by the expected count N·v(d) of a uniform unit-cube
// distribution, where v(d) is the volume of the d-dimensional ε-ball
// clipped to the unit cube. It returns 0 when no core object exists.
func Quality(ds *dataset.Dataset, s subspace.Subspace, p Params) (quality float64, coreObjects int, err error) {
	p = p.withDefaults()
	if len(s) == 0 {
		return 0, 0, fmt.Errorf("ris: empty subspace")
	}
	cols := make([][]float64, len(s))
	for k, d := range s {
		if d < 0 || d >= ds.D() {
			return 0, 0, fmt.Errorf("ris: dimension %d out of range [0,%d)", d, ds.D())
		}
		cols[k] = ds.Col(d)
	}
	n := ds.N()
	counts := make([]int, n)
	countAll(cols, Eps, counts)
	total := 0
	for _, c := range counts {
		if c >= p.MinPts {
			coreObjects++
			total += c
		}
	}
	if coreObjects == 0 {
		return 0, 0, nil
	}
	expected := float64(n) * ballVolume(s.Dim(), Eps)
	if expected <= 0 {
		return 0, coreObjects, nil
	}
	mean := float64(total) / float64(coreObjects)
	return mean / expected, coreObjects, nil
}

// countTile is how many objects countAll measures against at a time: the
// tile's distance scratch and column values stay in the L1 cache.
const countTile = 512

// countAll sets counts[i] to the number of objects other than i within
// eps of i (boundary inclusive) in the space spanned by cols, one column
// per subspace attribute. Each pair i < j is measured once, as i's scan
// of j would measure it, and credits both ends: (a−b)² = (b−a)² holds
// exactly and the squares are summed in column order, so the counts are
// those of one full scan per object, at half the distance work.
func countAll(cols [][]float64, eps float64, counts []int) {
	clear(counts)
	n := len(counts)
	eps2 := eps * eps
	var scratch [countTile]float64
	for lo := 0; lo < n; lo += countTile {
		hi := min(lo+countTile, n)
		for q := 0; q < hi-1; q++ {
			from := max(q+1, lo)
			dists := scratch[:hi-from]
			clear(dists)
			for _, col := range cols {
				cq := col[q]
				for i, v := range col[from:hi] {
					d := v - cq
					dists[i] += d * d
				}
			}
			count := 0
			for i, d := range dists {
				if d <= eps2 {
					count++
					counts[from+i]++
				}
			}
			counts[q] += count
		}
	}
}

// ballVolume returns the volume of a d-dimensional Euclidean ε-ball,
// capped at 1 (the unit cube the normalized data lives in).
func ballVolume(d int, eps float64) float64 {
	// V_d(r) = π^{d/2} r^d / Γ(d/2 + 1)
	lg, _ := math.Lgamma(float64(d)/2 + 1)
	v := math.Exp(float64(d)/2*math.Log(math.Pi) + float64(d)*math.Log(eps) - lg)
	if v > 1 {
		return 1
	}
	return v
}

// Searcher runs the level-wise RIS search as the two-step pipeline's
// subspace search step.
type Searcher struct {
	Params Params
}

// Search runs the level-wise RIS procedure on min-max normalized data and
// returns the pooled subspaces ranked by descending quality. ctx is
// checked between candidate quality evaluations, so a cancelled context
// surfaces ctx.Err() within one candidate's O(N²) neighborhood-counting
// pass.
func (r *Searcher) Search(ctx context.Context, ds *dataset.Dataset) ([]subspace.Scored, error) {
	p := r.Params.withDefaults()
	if ds.D() < 2 {
		return nil, fmt.Errorf("ris: need at least 2 attributes, have %d", ds.D())
	}
	levels, err := subspace.LevelWise(ctx, ds.D(), p.Cutoff, p.MaxDim, func(ctx context.Context, candidates []subspace.Subspace) ([]subspace.Scored, error) {
		var kept []subspace.Scored
		for _, s := range candidates {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			q, cores, err := Quality(ds, s, p)
			if err != nil {
				return nil, err
			}
			// Apriori-style pruning: only subspaces that still contain core
			// objects seed the next level.
			if cores > 0 {
				kept = append(kept, subspace.Scored{S: s, Score: q})
			}
		}
		return kept, nil
	})
	if err != nil {
		return nil, err
	}
	return subspace.TopK(slices.Concat(levels...), p.TopK), nil
}

// Name identifies the method in experiment reports.
func (r *Searcher) Name() string { return "RIS" }
