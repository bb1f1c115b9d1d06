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
// this implementation reproduces that behaviour faithfully.
package ris

import (
	"context"
	"fmt"
	"math"

	"hics/internal/dataset"
	"hics/internal/subspace"
)

// Defaults tuned for min-max normalized data.
const (
	DefaultEps    = 0.1 // neighborhood radius
	DefaultMinPts = 10  // core-object density threshold
	DefaultTopK   = 100 // subspaces handed to the ranking step
	DefaultCutoff = 400 // candidates retained per level
	DefaultMaxDim = 6   // safety bound
)

// Params configures the RIS search. Zero values select defaults.
type Params struct {
	Eps    float64 // neighborhood radius in the normalized data space
	MinPts int     // minimum neighbors for a core object
	TopK   int     // returned subspaces (-1 = all)
	Cutoff int     // candidates retained per level
	MaxDim int     // candidate dimensionality bound
}

func (p Params) withDefaults() Params {
	if p.Eps <= 0 {
		p.Eps = DefaultEps
	}
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
	dists := make([]float64, n)
	total := 0
	for i := 0; i < n; i++ {
		c := countWithin(cols, i, p.Eps, dists)
		if c >= p.MinPts {
			coreObjects++
			total += c
		}
	}
	if coreObjects == 0 {
		return 0, 0, nil
	}
	expected := float64(n) * ballVolume(s.Dim(), p.Eps)
	if expected <= 0 {
		return 0, coreObjects, nil
	}
	mean := float64(total) / float64(coreObjects)
	return mean / expected, coreObjects, nil
}

// countWithin returns how many objects other than q lie within eps of q
// (boundary inclusive) in the space spanned by cols, one column per
// subspace attribute. dists is N-sized scratch, overwritten.
func countWithin(cols [][]float64, q int, eps float64, dists []float64) int {
	clear(dists)
	for _, col := range cols {
		cq := col[q]
		for i, v := range col {
			d := v - cq
			dists[i] += d * d
		}
	}
	eps2 := eps * eps
	count := 0
	for i, d := range dists {
		if i != q && d <= eps2 {
			count++
		}
	}
	return count
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

// Result carries the outcome of a RIS search.
type Result struct {
	Subspaces []subspace.Scored // ranked by descending quality
	Evaluated int               // quality computations performed
}

// SearchContext runs the level-wise RIS procedure on min-max normalized
// data. ctx is checked between candidate quality evaluations, so a
// cancelled context surfaces ctx.Err() within one candidate's O(N²)
// neighborhood-counting pass.
func SearchContext(ctx context.Context, ds *dataset.Dataset, p Params) (*Result, error) {
	p = p.withDefaults()
	if ds.D() < 2 {
		return nil, fmt.Errorf("ris: need at least 2 attributes, have %d", ds.D())
	}
	res := &Result{}
	var pool []subspace.Scored

	candidates := subspace.AllPairs(ds.D())
	for dim := 2; len(candidates) > 0 && dim <= p.MaxDim; dim++ {
		var kept []subspace.Scored
		for _, s := range candidates {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			q, cores, err := Quality(ds, s, p)
			res.Evaluated++
			if err != nil {
				return nil, err
			}
			// Apriori-style pruning: only subspaces that still contain core
			// objects seed the next level.
			if cores > 0 {
				kept = append(kept, subspace.Scored{S: s, Score: q})
			}
		}
		kept = subspace.TopK(kept, p.Cutoff)
		pool = append(pool, kept...)
		if dim == p.MaxDim {
			break
		}
		parents := make([]subspace.Subspace, len(kept))
		for i, sc := range kept {
			parents[i] = sc.S
		}
		candidates = subspace.GenerateCandidates(parents)
	}

	res.Subspaces = subspace.TopK(pool, p.TopK)
	return res, nil
}

// Searcher adapts SearchContext to the ranking pipeline.
type Searcher struct {
	Params Params
}

// Search implements the two-step pipeline's subspace search step.
func (r *Searcher) Search(ctx context.Context, ds *dataset.Dataset) ([]subspace.Scored, error) {
	res, err := SearchContext(ctx, ds, r.Params)
	if err != nil {
		return nil, err
	}
	return res.Subspaces, nil
}

// Name identifies the method in experiment reports.
func (r *Searcher) Name() string { return "RIS" }
