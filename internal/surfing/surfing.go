// Package surfing implements SURFING (Baumgartner et al.: "Subspace
// Selection for Clustering High-Dimensional Data", ICDM 2004), the fourth
// subspace search technique the paper's related work surveys. It is
// included as an extension competitor beyond the paper's evaluated set.
//
// SURFING rates a subspace by the non-uniformity of its k-nearest-neighbor
// distance distribution: in a uniformly scattered subspace all objects
// have similar k-NN distances, while a subspace with structure (clusters
// and sparse regions) produces widely varying ones. The quality measure is
// the mean deviation of the k-NN distances below the mean, normalized by
// the mean distance — scale-free and comparable across dimensionalities.
// The search proceeds level-wise, keeping the highest-quality candidates
// like the other bottom-up frameworks in this repository.
package surfing

import (
	"context"
	"fmt"

	"hics/internal/dataset"
	"hics/internal/neighbors"
	"hics/internal/subspace"
)

// Defaults chosen per the original publication's guidance (small k).
const (
	DefaultK      = 10
	DefaultTopK   = 100
	DefaultCutoff = 400
	DefaultMaxDim = 6
)

// Params configures the SURFING search. Zero values select defaults.
type Params struct {
	K      int // k-NN distance order
	TopK   int // returned subspaces (-1 = all)
	Cutoff int // candidates retained per level
	MaxDim int // candidate dimensionality bound
}

func (p Params) withDefaults() Params {
	if p.K <= 0 {
		p.K = DefaultK
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

// Quality returns the SURFING measure of subspace s: the mean below-mean
// deviation of k-NN distances divided by the mean k-NN distance. Zero for
// perfectly uniform distances, larger for structured subspaces.
func Quality(ds *dataset.Dataset, s subspace.Subspace, p Params) (float64, error) {
	p = p.withDefaults()
	idx, err := neighbors.New(ds, s, neighbors.KindAuto)
	if err != nil {
		return 0, fmt.Errorf("surfing: %w", err)
	}
	n := ds.N()
	if n < p.K+1 {
		return 0, fmt.Errorf("surfing: need more than k=%d objects, have %d", p.K, n)
	}
	sc := idx.NewScratch()
	kdists := make([]float64, n)
	var buf []neighbors.Neighbor
	mean := 0.0
	for i := 0; i < n; i++ {
		nb, kd := idx.KNN(i, p.K, sc, buf)
		buf = nb
		kdists[i] = kd
		mean += kd
	}
	mean /= float64(n)
	if mean == 0 {
		return 0, nil // all objects coincide
	}
	// Mean deviation below the mean ("objects in dense areas"), the
	// SURFING quality numerator.
	below := 0.0
	cnt := 0
	for _, kd := range kdists {
		if kd < mean {
			below += mean - kd
			cnt++
		}
	}
	if cnt == 0 {
		return 0, nil
	}
	return below / (float64(cnt) * mean), nil
}

// Result carries the outcome of a SURFING search.
type Result struct {
	Subspaces []subspace.Scored // ranked by descending quality
	Evaluated int
}

// SearchContext runs the level-wise SURFING procedure. ctx is checked
// between candidate quality evaluations, so a cancelled context surfaces
// ctx.Err() within one candidate's k-NN pass.
func SearchContext(ctx context.Context, ds *dataset.Dataset, p Params) (*Result, error) {
	p = p.withDefaults()
	if ds.D() < 2 {
		return nil, fmt.Errorf("surfing: need at least 2 attributes, have %d", ds.D())
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
			q, err := Quality(ds, s, p)
			res.Evaluated++
			if err != nil {
				return nil, err
			}
			if q > 0 {
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
func (s *Searcher) Search(ctx context.Context, ds *dataset.Dataset) ([]subspace.Scored, error) {
	res, err := SearchContext(ctx, ds, s.Params)
	if err != nil {
		return nil, err
	}
	return res.Subspaces, nil
}

// Name identifies the method in experiment reports.
func (s *Searcher) Name() string { return "SURFING" }
