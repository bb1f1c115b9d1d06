// Package randsub implements the feature-bagging baseline of Lazarevic &
// Kumar (KDD 2005): the decoupled predecessor of HiCS that selects
// subspace projections uniformly at random.
//
// Following the original formulation, each subspace has a dimensionality
// drawn uniformly from [⌊D/2⌋, D−1] — considerably larger on average than
// the subspaces HiCS or Enclus select, which is what makes RANDSUB's
// ranking step slower than the informed searchers in the paper's Fig. 5/6
// despite doing no search work at all.
package randsub

import (
	"context"
	"fmt"

	"hics/internal/dataset"
	"hics/internal/rng"
	"hics/internal/subspace"
)

// DefaultCount matches the "best 100 subspaces" budget every method gets
// in the paper's experiments.
const DefaultCount = 100

// Params configures the random selection. Zero values select defaults.
type Params struct {
	// Count is the number of subspaces to draw.
	Count int
	// MinDim/MaxDim bound the drawn dimensionality. Zero selects the
	// feature-bagging bounds ⌊D/2⌋ and D−1.
	MinDim, MaxDim int
	// Seed makes the selection reproducible.
	Seed uint64
}

func (p Params) withDefaults(d int) Params {
	if p.Count <= 0 {
		p.Count = DefaultCount
	}
	if p.MinDim <= 0 {
		p.MinDim = d / 2
		if p.MinDim < 2 {
			p.MinDim = 2
		}
	}
	if p.MaxDim <= 0 {
		p.MaxDim = d - 1
	}
	if p.MaxDim < 2 {
		p.MaxDim = 2 // subspaces below two dimensions carry no correlation
	}
	if p.MaxDim > d {
		p.MaxDim = d
	}
	if p.MinDim > p.MaxDim {
		p.MinDim = p.MaxDim
	}
	return p
}

// SelectContext draws Count random subspaces of a D-dimensional space.
// Duplicates are avoided up to the number of available distinct
// subspaces; all scores are zero (the method expresses no preference).
// ctx is checked between draws; the checks never touch the random
// stream, so an uncancelled selection depends on the seed alone.
func SelectContext(ctx context.Context, d int, p Params) ([]subspace.Scored, error) {
	if d < 2 {
		return nil, fmt.Errorf("randsub: need at least 2 attributes, have %d", d)
	}
	p = p.withDefaults(d)
	r := rng.New(p.Seed)
	seen := make(map[string]bool, p.Count)
	out := make([]subspace.Scored, 0, p.Count)
	dims := make([]int, d)

	const maxAttemptsPerPick = 64
	for len(out) < p.Count {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		picked := false
		for attempt := 0; attempt < maxAttemptsPerPick; attempt++ {
			k := r.IntRange(p.MinDim, p.MaxDim)
			r.PermInto(dims)
			s := subspace.New(dims[:k]...)
			if key := s.Key(); !seen[key] {
				seen[key] = true
				out = append(out, subspace.Scored{S: s})
				picked = true
				break
			}
		}
		if !picked {
			// Space of distinct subspaces is (close to) exhausted.
			break
		}
	}
	return out, nil
}

// Searcher adapts SelectContext to the ranking pipeline.
type Searcher struct {
	Params Params
}

// Search implements the two-step pipeline's subspace search step; the
// dataset is consulted only for its dimensionality.
func (s *Searcher) Search(ctx context.Context, ds *dataset.Dataset) ([]subspace.Scored, error) {
	return SelectContext(ctx, ds.D(), s.Params)
}

// Name identifies the method in experiment reports.
func (s *Searcher) Name() string { return "RANDSUB" }
