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

	"hics/internal/dataset"
	"hics/internal/subspace"
)

// Defaults follow the original publication's suggestions scaled to the
// unit-normalized data used throughout this repository.
const (
	DefaultXi     = 10  // grid resolution per attribute
	DefaultMaxDim = 6   // safety bound on candidate dimensionality
	DefaultTopK   = 100 // subspaces handed to the ranking step
	DefaultCutoff = 400 // candidates retained per level (runtime bound)
)

// Params configures the Enclus search. Zero values select defaults.
type Params struct {
	// Xi is the number of equal-width grid intervals per attribute.
	Xi int
	// Omega is the entropy threshold: subspaces with H(S) > Omega are
	// discarded. Zero selects an adaptive threshold (see SearchContext).
	Omega float64
	// MaxDim caps candidate dimensionality.
	MaxDim int
	// TopK bounds the returned list (-1 = all).
	TopK int
	// Cutoff bounds the candidates retained per level, mirroring the HiCS
	// framework so runtimes stay comparable.
	Cutoff int
}

func (p Params) withDefaults() Params {
	if p.Xi <= 1 {
		p.Xi = DefaultXi
	}
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
// ds projected to subspace s. Data is assumed min-max normalized to [0,1];
// values outside are clamped into the boundary cells.
func Entropy(ds *dataset.Dataset, s subspace.Subspace, xi int) float64 {
	n := ds.N()
	cells := make(map[uint64]int, n)
	for i := 0; i < n; i++ {
		var key uint64
		for _, d := range s {
			key = key*uint64(xi) + uint64(cellOf(ds.Value(i, d), xi))
		}
		cells[key]++
	}
	h := 0.0
	invN := 1 / float64(n)
	for _, c := range cells {
		p := float64(c) * invN
		h -= p * math.Log2(p)
	}
	return h
}

func cellOf(v float64, xi int) int {
	c := int(v * float64(xi))
	if c < 0 {
		return 0
	}
	if c >= xi {
		return xi - 1
	}
	return c
}

// Interest returns interest(S) = Σ H({s}) − H(S), the total correlation of
// the subspace under the grid approximation. It is zero for independent
// attributes and grows with dependence.
func Interest(ds *dataset.Dataset, s subspace.Subspace, xi int) float64 {
	sum := 0.0
	for _, d := range s {
		sum += Entropy(ds, subspace.New(d), xi)
	}
	return sum - Entropy(ds, s, xi)
}

// Result carries the outcome of an Enclus search.
type Result struct {
	// Subspaces holds the retained subspaces ranked by descending interest.
	Subspaces []subspace.Scored
	// Evaluated counts entropy evaluations of multi-dimensional candidates.
	Evaluated int
}

// SearchContext runs the level-wise Enclus procedure on ds (which must be
// min-max normalized). When Params.Omega is zero an adaptive threshold is
// used: the median two-dimensional entropy, which keeps the low-entropy
// half of the pair candidates — this reproduces the "large number of
// configurations" tuning the paper describes without per-dataset knobs.
// ctx is checked between entropy evaluations, so a cancelled context
// surfaces ctx.Err() within one candidate's worth of work.
func SearchContext(ctx context.Context, ds *dataset.Dataset, p Params) (*Result, error) {
	p = p.withDefaults()
	if ds.D() < 2 {
		return nil, fmt.Errorf("enclus: need at least 2 attributes, have %d", ds.D())
	}

	res := &Result{}
	var pool []subspace.Scored

	// Level 2: all pairs.
	pairs := subspace.AllPairs(ds.D())
	level := make([]entScored, 0, len(pairs))
	entropies := make([]float64, 0, len(pairs))
	for _, s := range pairs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		h := Entropy(ds, s, p.Xi)
		res.Evaluated++
		level = append(level, entScored{s, h})
		entropies = append(entropies, h)
	}
	omega := p.Omega
	if omega <= 0 {
		omega = median(entropies)
	}

	for dim := 2; len(level) > 0 && dim <= p.MaxDim; dim++ {
		// Keep candidates passing the entropy threshold; rank by interest.
		var kept []entScored
		for _, c := range level {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if c.h <= omega {
				kept = append(kept, c)
				pool = append(pool, subspace.Scored{S: c.s, Score: Interest(ds, c.s, p.Xi)})
			}
		}
		if len(kept) > p.Cutoff {
			// Lowest entropy first — the Enclus "good clustering" ordering.
			sortByEntropy(kept)
			kept = kept[:p.Cutoff]
		}
		if dim == p.MaxDim {
			break
		}
		parents := make([]subspace.Subspace, len(kept))
		for i, c := range kept {
			parents[i] = c.s
		}
		next := subspace.GenerateCandidates(parents)
		level = level[:0]
		for _, s := range next {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			h := Entropy(ds, s, p.Xi)
			res.Evaluated++
			// Downward closure: a superspace can only raise entropy, so
			// candidates above ω are dropped before the next level.
			if h <= omega {
				level = append(level, entScored{s, h})
			}
		}
	}

	res.Subspaces = subspace.TopK(pool, p.TopK)
	return res, nil
}

func sortByEntropy(cs []entScored) {
	// insertion sort is fine: cutoff-bounded lists are small
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].h < cs[j-1].h; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

// entScored pairs a candidate with its grid entropy during the level-wise
// search.
type entScored struct {
	s subspace.Subspace
	h float64
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	// selection by partial sort
	for i := 0; i <= len(cp)/2; i++ {
		min := i
		for j := i + 1; j < len(cp); j++ {
			if cp[j] < cp[min] {
				min = j
			}
		}
		cp[i], cp[min] = cp[min], cp[i]
	}
	return cp[len(cp)/2]
}

// Searcher adapts SearchContext to the ranking pipeline.
type Searcher struct {
	Params Params
}

// Search implements the two-step pipeline's subspace search step.
func (e *Searcher) Search(ctx context.Context, ds *dataset.Dataset) ([]subspace.Scored, error) {
	res, err := SearchContext(ctx, ds, e.Params)
	if err != nil {
		return nil, err
	}
	return res.Subspaces, nil
}

// Name identifies the method in experiment reports.
func (e *Searcher) Name() string { return "Enclus" }
