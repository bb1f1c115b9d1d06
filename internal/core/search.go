package core

import (
	"context"
	"fmt"
	"math"

	"hics/internal/dataset"
	"hics/internal/parallel"
	"hics/internal/rng"
	"hics/internal/subspace"
	"hics/internal/trace"
)

// SearchResult carries the outcome of a HiCS subspace search.
type SearchResult struct {
	// Subspaces is the final ranking: redundancy-pruned, sorted by
	// descending contrast, truncated to Params.TopK.
	Subspaces []subspace.Scored
	// Levels records the retained candidates per Apriori level (index 0 =
	// two-dimensional), before pruning. Useful for diagnostics and tests.
	Levels [][]subspace.Scored
	// Evaluated counts contrast computations performed.
	Evaluated int
	// MCIterations counts the Monte Carlo iterations executed: Evaluated·M.
	MCIterations int
}

// SearchContext runs the full HiCS subspace framework (Sec. IV-B) on ds:
//
//  1. score every 2-dimensional subspace,
//  2. keep the top Cutoff candidates of the current level,
//  3. Apriori-join them into (d+1)-dimensional candidates and repeat until
//     the join yields nothing (or MaxDim is reached),
//  4. pool the retained candidates of all levels, remove each subspace
//     dominated by a higher-contrast superset one dimension larger, sort by
//     contrast and cut to TopK.
//
// Contrast evaluations are spread over Params.Workers goroutines; results
// are nevertheless deterministic because every subspace draws from a
// stream keyed by (Seed, subspace).
//
// Cancellation is cooperative: the Monte Carlo workers check ctx once per
// group of iterations (four for Welch's test, one for the others; see
// Evaluator.ContrastContext) and the level loop checks it between Apriori
// levels, so a cancelled context surfaces ctx.Err() within one group of
// Monte Carlo work per worker. Cancellation checks never touch the
// per-subspace random streams, so an uncancelled run is bit-for-bit
// identical under any context.
func SearchContext(ctx context.Context, ds *dataset.Dataset, p Params) (*SearchResult, error) {
	p = p.withDefaults()
	if ds.D() < 2 {
		return nil, fmt.Errorf("core: search needs at least 2 attributes, have %d", ds.D())
	}
	eval := NewEvaluator(ds, p)
	base := rng.New(p.Seed)

	// The search span covers the whole Apriori loop; each level's Monte
	// Carlo contrast pass gets a child span carrying its candidate and
	// pruning counts. Both are free (nil spans) outside a traced
	// request, and never consume randomness — the determinism contract
	// (ctx checks do not perturb the RNG stream) extends to tracing.
	ctx, span := trace.StartSpan(ctx, "search.subspaces")
	defer span.End()

	result := &SearchResult{}
	var pool []subspace.Scored
	// One Scratch per worker serves every level; a worker makes its own
	// on its first candidate.
	scratches := make([]*Scratch, parallel.WorkerCount(p.Workers, math.MaxInt))

	candidates := subspace.AllPairs(ds.D())
	for len(candidates) > 0 {
		lctx, lspan := trace.StartSpan(ctx, "search.contrast_level")
		lspan.SetAttr("dim", candidates[0].Dim())
		lspan.SetAttr("candidates", len(candidates))
		scored, err := scoreAll(lctx, eval, base, candidates, scratches)
		if err != nil {
			lspan.SetError(err)
			lspan.End()
			span.SetError(err)
			return nil, err
		}
		lspan.SetAttr("mc_iterations", len(scored)*p.M)
		lspan.End()
		result.Evaluated += len(scored)
		result.MCIterations += len(scored) * p.M
		mCandidates.Add(int64(len(scored)))

		retained := subspace.TopK(scored, p.Cutoff)
		result.Levels = append(result.Levels, retained)
		pool = append(pool, retained...)

		dim := retained[0].S.Dim()
		if p.MaxDim > 0 && dim >= p.MaxDim {
			break
		}
		parents := make([]subspace.Subspace, len(retained))
		for i, sc := range retained {
			parents[i] = sc.S
		}
		candidates = subspace.GenerateCandidates(parents)
	}

	if !p.DisablePruning {
		pool = subspace.PruneRedundant(pool)
	}
	result.Subspaces = subspace.TopK(pool, p.TopK)
	mMCIterations.Add(int64(result.MCIterations))
	span.SetAttr("evaluated", result.Evaluated)
	span.SetAttr("mc_iterations", result.MCIterations)
	span.SetAttr("levels", len(result.Levels))
	span.SetAttr("subspaces", len(result.Subspaces))
	return result, nil
}

// scoreAll evaluates the contrast of every candidate on the shared
// parallel fan-out, one candidate per work item (contrast costs vary
// widely with subspace dimensionality, so fine-grained claiming keeps the
// workers balanced), on at most len(scratches) workers. Worker w uses
// scratches[w], allocating it if it is nil, and leaves it there for the
// next level.
func scoreAll(ctx context.Context, eval *Evaluator, base *rng.RNG, candidates []subspace.Subspace, scratches []*Scratch) ([]subspace.Scored, error) {
	scored := make([]subspace.Scored, len(candidates))
	err := parallel.ForEach(ctx, len(candidates), len(scratches), 1, func(w, i int) error {
		sc := scratches[w]
		if sc == nil {
			sc = eval.NewScratch()
			scratches[w] = sc
		}
		s := candidates[i]
		c, err := eval.ContrastContext(ctx, s, base.Derive(hashSubspace(s)), sc)
		if err != nil {
			return err
		}
		scored[i] = subspace.Scored{S: s, Score: c}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return scored, nil
}

// Searcher adapts SearchContext to the ranking pipeline's SubspaceSearcher
// interface: a reusable configuration whose Search method returns the
// ranked subspace list.
type Searcher struct {
	Params Params
}

// Search implements the two-step pipeline's subspace search step.
func (h *Searcher) Search(ctx context.Context, ds *dataset.Dataset) ([]subspace.Scored, error) {
	res, err := SearchContext(ctx, ds, h.Params)
	if err != nil {
		return nil, err
	}
	return res.Subspaces, nil
}

// Name identifies the method in experiment reports: the paper's "HiCS"
// for the default Welch instantiation, suffixed variants otherwise.
func (h *Searcher) Name() string {
	switch h.Params.Test {
	case KolmogorovSmirnov:
		return "HiCS_KS"
	case MannWhitney:
		return "HiCS_MW"
	case CramerVonMises:
		return "HiCS_CVM"
	default:
		return "HiCS"
	}
}
