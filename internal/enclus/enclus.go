// Package enclus implements the Enclus subspace search of Cheng, Fu & Zhang
// (KDD 1999), the grid-entropy competitor of the paper's evaluation.
//
// Enclus partitions every attribute into ξ equal-width intervals and
// computes the Shannon entropy of the resulting grid-cell histogram of a
// subspace. Subspaces with entropy below a threshold ω exhibit strong
// density variation ("good clustering"); among those, the *interest* —
// the mutual-information-style gap between the sum of the per-attribute
// entropies and the joint entropy — separates correlated subspaces from
// merely skewed ones. Candidates are grown level-wise with the Apriori
// join, exploiting that entropy is monotonically non-decreasing with
// dimensionality (H(S) ≤ H(S ∪ {a})), the downward-closure Enclus is
// built on.
//
// As in the paper's experimental setup, the search is run as a
// pre-processing step and the best subspaces (highest interest) are
// handed to the outlier ranking.
package enclus

import (
	"context"
	"fmt"
	"math"
	"slices"

	"hics/internal/dataset"
	"hics/internal/subspace"
)

// Xi is the number of equal-width grid intervals per attribute, the
// original publication's suggestion for unit-normalized data.
const Xi = 10

// Defaults of the Params fields.
const (
	DefaultMaxDim = 6   // safety bound on candidate dimensionality
	DefaultTopK   = 100 // subspaces handed to the ranking step
	DefaultCutoff = 400 // candidates retained per level (runtime bound)
)

// Params configures the Enclus search. Zero values select defaults.
type Params struct {
	// MaxDim caps candidate dimensionality.
	MaxDim int
	// TopK bounds the returned list (-1 = all).
	TopK int
	// Cutoff bounds the candidates retained per level, mirroring the HiCS
	// framework so runtimes stay comparable.
	Cutoff int
}

func (p Params) withDefaults() Params {
	if p.MaxDim <= 0 {
		p.MaxDim = DefaultMaxDim
	}
	if p.TopK == 0 {
		p.TopK = DefaultTopK
	}
	if p.Cutoff <= 0 {
		p.Cutoff = DefaultCutoff
	}
	return p
}

// Entropy returns the Shannon entropy (in bits) of the ξ-grid histogram of
// ds projected to subspace s, with ξ = Xi. Data is assumed min-max
// normalized to [0,1]; values outside are clamped into the boundary cells.
func Entropy(ds *dataset.Dataset, s subspace.Subspace) float64 {
	n := ds.N()
	keys := make([]uint64, n)
	for i := range keys {
		var key uint64
		for _, d := range s {
			key = key*Xi + uint64(cellOf(ds.Value(i, d)))
		}
		keys[i] = key
	}
	// The cells are summed in key order, so every call rounds alike; a
	// map's random iteration order would change the result's last bits
	// from call to call.
	slices.Sort(keys)
	h := 0.0
	invN := 1 / float64(n)
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && keys[hi] == keys[lo] {
			hi++
		}
		p := float64(hi-lo) * invN
		h -= p * math.Log2(p)
		lo = hi
	}
	return h
}

func cellOf(v float64) int {
	c := int(v * Xi)
	if c < 0 {
		return 0
	}
	if c >= Xi {
		return Xi - 1
	}
	return c
}

// Interest returns interest(S) = Σ H({s}) − H(S), the total correlation of
// the subspace under the grid approximation. It is zero for independent
// attributes and grows with dependence.
func Interest(ds *dataset.Dataset, s subspace.Subspace) float64 {
	marginals := make([]float64, ds.D())
	for _, d := range s {
		marginals[d] = Entropy(ds, subspace.New(d))
	}
	return interest(marginals, s, Entropy(ds, s))
}

// interest is Interest from known entropies: marginals[d] = H({d}) for
// every attribute d of s, and h = H(S).
func interest(marginals []float64, s subspace.Subspace, h float64) float64 {
	sum := 0.0
	for _, d := range s {
		sum += marginals[d]
	}
	return sum - h
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := slices.Clone(xs)
	slices.Sort(cp)
	return cp[len(cp)/2]
}

// Searcher runs the level-wise Enclus search as the two-step pipeline's
// subspace search step.
type Searcher struct {
	Params Params
}

// Search runs the level-wise Enclus procedure on ds (which must be min-max
// normalized) and returns the pooled subspaces ranked by descending
// interest. A level keeps the candidates with entropy at most ω, up to
// Cutoff of them with the lowest entropy, the Enclus "good clustering"
// ordering; by downward closure a superspace can only raise entropy, so
// the join never revives a dropped candidate. ω is adaptive: the median
// two-dimensional entropy, which keeps the low-entropy half of the pair
// candidates — this reproduces the "large number of configurations"
// tuning the paper describes without per-dataset knobs. ctx is checked
// between entropy evaluations, so a cancelled context surfaces ctx.Err()
// within one candidate's worth of work.
func (e *Searcher) Search(ctx context.Context, ds *dataset.Dataset) ([]subspace.Scored, error) {
	p := e.Params.withDefaults()
	if ds.D() < 2 {
		return nil, fmt.Errorf("enclus: need at least 2 attributes, have %d", ds.D())
	}
	// The attributes' entropies are computed once: every pooled
	// candidate's interest sums them.
	marginals := make([]float64, ds.D())
	for d := range marginals {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		marginals[d] = Entropy(ds, subspace.New(d))
	}
	var omega float64
	var pool []subspace.Scored
	_, err := subspace.LevelWise(ctx, ds.D(), p.Cutoff, p.MaxDim, func(ctx context.Context, candidates []subspace.Subspace) ([]subspace.Scored, error) {
		entropies := make([]float64, len(candidates))
		for i, s := range candidates {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			entropies[i] = Entropy(ds, s)
		}
		if candidates[0].Dim() == 2 {
			omega = median(entropies)
		}
		var kept []subspace.Scored
		for i, s := range candidates {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if h := entropies[i]; h <= omega {
				pool = append(pool, subspace.Scored{S: s, Score: interest(marginals, s, h)})
				// −H as the cutoff key keeps the lowest-entropy candidates.
				kept = append(kept, subspace.Scored{S: s, Score: -h})
			}
		}
		return kept, nil
	})
	if err != nil {
		return nil, err
	}
	return subspace.TopK(pool, p.TopK), nil
}

// Name identifies the method in experiment reports.
func (e *Searcher) Name() string { return "Enclus" }
