// Package ranking implements the decoupled two-step processing the paper
// proposes: a SubspaceSearcher (step 1) produces a ranked list of
// projections, a Scorer (step 2) computes density-based outlier scores in
// each projection, and an Aggregation combines the per-subspace scores
// into the final outlier ranking (Definition 1).
//
// The decoupling is the point: every searcher in this repository (HiCS,
// Enclus, RIS, RANDSUB, SURFING, full space) plugs into every scorer
// (LOF, kNN, ORCA, OUTRES) without either knowing about the other, which
// is exactly the modularity argument of the paper's introduction. The
// internal/registry package names each implementation, so any
// (searcher, scorer) pair is constructible from a pair of strings at
// every entry point.
package ranking

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"hics/internal/dataset"
	"hics/internal/lof"
	"hics/internal/neighbors"
	"hics/internal/pca"
	"hics/internal/subspace"
	"hics/internal/trace"
)

// SubspaceSearcher is step 1: select projections worth ranking in.
type SubspaceSearcher interface {
	// Search returns subspaces ordered by descending quality. The search
	// observes ctx cooperatively: a cancelled context makes it return
	// ctx.Err() promptly, and an uncancelled search is deterministic —
	// the ctx checks never consume randomness.
	Search(ctx context.Context, ds *dataset.Dataset) ([]subspace.Scored, error)
	// Name identifies the method in reports.
	Name() string
}

// Scorer is step 2: compute per-object outlier scores within one
// projection. Higher scores mean more outlying.
type Scorer interface {
	// Score scores every object of ds in the projection dims. A scorer
	// with a parallel batch pass bounds it by workers (<= 0 means one per
	// CPU) and observes ctx cooperatively; its scores must be bit-for-bit
	// identical whatever the worker count. Sequential scorers may ignore
	// both arguments.
	Score(ctx context.Context, ds *dataset.Dataset, dims []int, workers int) ([]float64, error)
	// Name identifies the method in reports.
	Name() string
}

// LOFScorer scores with the Local Outlier Factor, the paper's reference
// instantiation.
type LOFScorer struct {
	// MinPts is the LOF neighborhood size; 0 selects lof.DefaultMinPts.
	MinPts int
	// Index selects the neighbor-index backend (default automatic).
	// Backends are bit-for-bit equivalent, so the choice only affects
	// speed.
	Index neighbors.Kind
}

// Score implements Scorer.
func (s LOFScorer) Score(ctx context.Context, ds *dataset.Dataset, dims []int, workers int) ([]float64, error) {
	return lof.ScoresContext(ctx, ds, dims, s.MinPts, s.Index, workers)
}

// Name implements Scorer.
func (s LOFScorer) Name() string { return "LOF" }

// KNNScorer scores with the average k-nearest-neighbor distance, the
// cheaper alternative named in the paper's future work.
type KNNScorer struct {
	// K is the neighborhood size; 0 selects lof.DefaultMinPts.
	K int
	// Index selects the neighbor-index backend (default automatic).
	Index neighbors.Kind
}

// Score implements Scorer.
func (s KNNScorer) Score(ctx context.Context, ds *dataset.Dataset, dims []int, workers int) ([]float64, error) {
	return lof.KNNScoresContext(ctx, ds, dims, s.K, s.Index, workers)
}

// Name implements Scorer.
func (s KNNScorer) Name() string { return "kNN" }

// FittedScorer is the frozen step-2 state for one subspace: it scores
// out-of-sample points without refitting. Implementations are safe for
// concurrent ScorePoint calls.
type FittedScorer interface {
	// Dims returns the subspace the scorer was fitted on.
	Dims() []int
	// ScorePoint scores a full-space point, projecting it onto the fitted
	// subspace internally.
	ScorePoint(full []float64) float64
}

// FitScorer is implemented by scorers that support the fit/score split.
type FitScorer interface {
	Scorer
	// Fit freezes the scorer's state on one subspace and writes the
	// training objects' batch scores (bit-for-bit what Score returns) into
	// scores, which holds one value per object. ctx and workers act as in
	// Score. The fitted state does not retain scores: Pipeline.Fit folds
	// them into its aggregate and refills the same buffer for the next
	// subspace.
	Fit(ctx context.Context, ds *dataset.Dataset, dims []int, workers int, scores []float64) (FittedScorer, error)
}

// FittedLOFScorer is the fitted form of LOFScorer. The exported fields
// allow model persistence layers to disassemble and reassemble the state.
type FittedLOFScorer struct {
	// Subspace is the fitted projection (ascending attribute indices).
	Subspace []int
	// State is the frozen LOF state on that projection.
	State *lof.Fitted
}

// Dims implements FittedScorer.
func (f *FittedLOFScorer) Dims() []int { return f.Subspace }

// ScorePoint implements FittedScorer.
func (f *FittedLOFScorer) ScorePoint(full []float64) float64 {
	return f.State.ScoreQueryAt(full, f.Subspace)
}

// Fit implements FitScorer.
func (s LOFScorer) Fit(ctx context.Context, ds *dataset.Dataset, dims []int, workers int, scores []float64) (FittedScorer, error) {
	st, err := lof.FitInto(ctx, ds, dims, s.MinPts, s.Index, workers, scores)
	if err != nil {
		return nil, err
	}
	return &FittedLOFScorer{Subspace: append([]int(nil), dims...), State: st}, nil
}

// FittedKNNScorer is the fitted form of KNNScorer.
type FittedKNNScorer struct {
	// Subspace is the fitted projection (ascending attribute indices).
	Subspace []int
	// State is the frozen kNN-distance state on that projection.
	State *lof.FittedKNN
}

// Dims implements FittedScorer.
func (f *FittedKNNScorer) Dims() []int { return f.Subspace }

// ScorePoint implements FittedScorer.
func (f *FittedKNNScorer) ScorePoint(full []float64) float64 {
	return f.State.ScoreQueryAt(full, f.Subspace)
}

// Fit implements FitScorer.
func (s KNNScorer) Fit(ctx context.Context, ds *dataset.Dataset, dims []int, workers int, scores []float64) (FittedScorer, error) {
	st, err := lof.FitKNNInto(ctx, ds, dims, s.K, s.Index, workers, scores)
	if err != nil {
		return nil, err
	}
	return &FittedKNNScorer{Subspace: append([]int(nil), dims...), State: st}, nil
}

var (
	_ FitScorer = LOFScorer{}
	_ FitScorer = KNNScorer{}
)

// Aggregation selects how per-subspace scores combine (Sec. IV-C).
type Aggregation int

const (
	// Average is the paper's choice: cumulative outlierness, robust to
	// fluctuations in individual subspaces.
	Average Aggregation = iota
	// Max is the sensitive alternative the paper evaluates and rejects.
	Max
	// Product multiplies per-subspace scores (shifted by one so a zero
	// score is neutral) — the OUTRES-style aggregation, emphasizing
	// objects that deviate in several subspaces at once.
	Product
)

func (a Aggregation) String() string {
	switch a {
	case Max:
		return "max"
	case Product:
		return "product"
	default:
		return "average"
	}
}

// ParseAggregation parses a user-facing aggregation name. The empty string
// means the paper's default, average.
func ParseAggregation(s string) (Aggregation, error) {
	switch s {
	case "", "average", "avg", "mean":
		return Average, nil
	case "max":
		return Max, nil
	case "product", "prod":
		return Product, nil
	}
	return Average, fmt.Errorf("ranking: unknown aggregation %q (want average, max or product)", s)
}

// accumulator folds per-subspace score slices into the final per-object
// scores one slice at a time (O(N) memory however many subspaces
// contribute). The element-wise operation sequence is fixed by the fold
// order alone, so batch scoring (Rank) and fitted scoring (Fit) produce
// bit-for-bit identical aggregates.
type accumulator struct {
	a      Aggregation
	vals   []float64
	folded int
}

func newAccumulator(a Aggregation, n int) *accumulator {
	vals := make([]float64, n)
	switch a {
	case Max:
		for i := range vals {
			vals[i] = -1
		}
	case Product:
		for i := range vals {
			vals[i] = 1
		}
	}
	return &accumulator{a: a, vals: vals}
}

// fold absorbs one subspace's scores.
func (ac *accumulator) fold(scores []float64) {
	ac.folded++
	switch ac.a {
	case Max:
		for i, v := range scores {
			if v > ac.vals[i] {
				ac.vals[i] = v
			}
		}
	case Product:
		for i, v := range scores {
			ac.vals[i] *= 1 + v
		}
	default:
		for i, v := range scores {
			ac.vals[i] += v
		}
	}
}

// finish finalizes and returns the aggregate; the accumulator must not be
// used afterwards.
func (ac *accumulator) finish() []float64 {
	if ac.a == Average {
		inv := 1 / float64(ac.folded)
		for i := range ac.vals {
			ac.vals[i] *= inv
		}
	}
	return ac.vals
}

// aggregatePoint is the accumulator fold for a single object's
// per-subspace scores, with the same operation sequence.
func aggregatePoint(a Aggregation, vals []float64) float64 {
	switch a {
	case Max:
		agg := -1.0
		for _, v := range vals {
			if v > agg {
				agg = v
			}
		}
		return agg
	case Product:
		agg := 1.0
		for _, v := range vals {
			agg *= 1 + v
		}
		return agg
	default:
		agg := 0.0
		for _, v := range vals {
			agg += v
		}
		return agg * (1 / float64(len(vals)))
	}
}

// FullSpace is the trivial searcher returning only the full data space;
// combining it with LOFScorer yields the classical full-space LOF
// baseline.
type FullSpace struct{}

// Search implements SubspaceSearcher.
func (FullSpace) Search(_ context.Context, ds *dataset.Dataset) ([]subspace.Scored, error) {
	return []subspace.Scored{{S: subspace.Full(ds.D())}}, nil
}

// Name implements SubspaceSearcher.
func (FullSpace) Name() string { return "LOF" }

// Pipeline wires a searcher, a scorer and an aggregation into the complete
// two-step outlier ranking.
type Pipeline struct {
	Searcher SubspaceSearcher
	Scorer   Scorer
	Agg      Aggregation
	// MaxSubspaces caps how many of the searcher's subspaces are scored
	// ("we use only the best 100 subspaces", Sec. V). 0 means 100, -1 all.
	MaxSubspaces int
	// Workers bounds the batch-pass parallelism of the Scorer
	// (0 = one worker per CPU); the search step's own worker bound lives
	// in the searcher's parameters. Scores are bit-for-bit independent of
	// the setting.
	Workers int
}

// DefaultMaxSubspaces is the paper's budget of ranked projections.
const DefaultMaxSubspaces = 100

// Result carries the final ranking and provenance.
type Result struct {
	// Scores is the aggregated outlier score per object.
	Scores []float64
	// Subspaces lists the projections that contributed.
	Subspaces []subspace.Scored
}

// resolve validates the pipeline wiring, applies the subspace budget, and
// runs the search step — the shared preamble of Rank and Fit.
func (p Pipeline) resolve(ctx context.Context, ds *dataset.Dataset) ([]subspace.Scored, error) {
	if p.Searcher == nil || p.Scorer == nil {
		return nil, errors.New("ranking: pipeline needs a Searcher and a Scorer")
	}
	subspaces, err := p.Searcher.Search(ctx, ds)
	if err != nil {
		// ctx.Err() passes through unwrapped so callers can match it with
		// errors.Is across every layer.
		if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
			return nil, err
		}
		return nil, fmt.Errorf("ranking: subspace search (%s): %w", p.Searcher.Name(), err)
	}
	limit := p.MaxSubspaces
	if limit == 0 {
		limit = DefaultMaxSubspaces
	}
	if limit > 0 && len(subspaces) > limit {
		subspaces = subspaces[:limit]
	}
	if len(subspaces) == 0 {
		return nil, fmt.Errorf("ranking: searcher %s selected no subspaces", p.Searcher.Name())
	}
	return subspaces, nil
}

// Rank runs the two-step pipeline on ds. Per-subspace scores are folded
// into the aggregate as they are produced, so only one score slice is
// alive at a time. The subspace search observes ctx throughout its Monte
// Carlo loops, and the scoring step checks ctx between subspaces.
func (p Pipeline) Rank(ctx context.Context, ds *dataset.Dataset) (*Result, error) {
	subspaces, err := p.resolve(ctx, ds)
	if err != nil {
		return nil, err
	}
	acc := newAccumulator(p.Agg, ds.N())
	// One span covers the whole per-subspace scoring pass; individual
	// neighbor-index builds inside the scorer open their own children.
	sctx, span := trace.StartSpan(ctx, "ranking.score")
	span.SetAttr("scorer", p.Scorer.Name())
	span.SetAttr("subspaces", len(subspaces))
	defer span.End()
	for _, sc := range subspaces {
		if err := ctx.Err(); err != nil {
			span.SetError(err)
			return nil, err
		}
		scores, err := p.Scorer.Score(sctx, ds, sc.S, p.Workers)
		if err != nil {
			span.SetError(err)
			if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
				return nil, err
			}
			return nil, fmt.Errorf("ranking: scoring %v with %s: %w", sc.S, p.Scorer.Name(), err)
		}
		acc.fold(scores)
	}
	return &Result{Scores: acc.finish(), Subspaces: subspaces}, nil
}

// FittedPipeline is the frozen outcome of Pipeline.Fit: the selected
// subspaces, one fitted scorer per subspace, and the aggregated training
// scores. It scores out-of-sample points without re-running the subspace
// search or the batch scoring passes, and is safe for concurrent
// ScorePoint calls.
type FittedPipeline struct {
	// Subspaces are the projections the fit selected, in the order they
	// aggregate.
	Subspaces []subspace.Scored
	// Scorers holds the frozen step-2 state, parallel to Subspaces.
	Scorers []FittedScorer
	// Agg is the aggregation the fit used.
	Agg Aggregation
	// Train is the aggregated training score per object — bit-for-bit the
	// Rank result on the same data and configuration.
	Train []float64
	// D is the full-space dimensionality scored points must have.
	D int

	// scratch pools the per-query aggregation buffer; the zero value
	// works, so FittedPipeline may be built as a composite literal.
	scratch sync.Pool // *[]float64
}

// Fit runs the subspace search once and freezes the per-subspace scorer
// state. The pipeline's scorer must implement FitScorer. The returned
// training scores equal Rank's scores exactly: the per-subspace batch
// scores come from the same fitting passes and the aggregation applies the
// identical operation sequence. Each subspace's scores are written into
// one buffer, folded, and overwritten by the next subspace's, so a fit
// allocates beyond the kept model state only that buffer and the
// aggregate. Like Rank, ctx is observed throughout the subspace search and
// between per-subspace fitting passes.
func (p Pipeline) Fit(ctx context.Context, ds *dataset.Dataset) (*FittedPipeline, error) {
	subspaces, err := p.resolve(ctx, ds)
	if err != nil {
		return nil, err
	}
	fs, ok := p.Scorer.(FitScorer)
	if !ok {
		return nil, fmt.Errorf("ranking: scorer %s does not support the fit/score split", p.Scorer.Name())
	}
	fitted := make([]FittedScorer, len(subspaces))
	acc := newAccumulator(p.Agg, ds.N())
	scores := make([]float64, ds.N())
	// The fitting pass mirrors Rank's scoring span; per-subspace
	// neighbor-index builds nest underneath.
	fctx, span := trace.StartSpan(ctx, "ranking.fit")
	span.SetAttr("scorer", fs.Name())
	span.SetAttr("subspaces", len(subspaces))
	defer span.End()
	for j, sc := range subspaces {
		if err := ctx.Err(); err != nil {
			span.SetError(err)
			return nil, err
		}
		f, err := fs.Fit(fctx, ds, sc.S, p.Workers, scores)
		if err != nil {
			span.SetError(err)
			if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
				return nil, err
			}
			return nil, fmt.Errorf("ranking: fitting %v with %s: %w", sc.S, fs.Name(), err)
		}
		fitted[j] = f
		acc.fold(scores)
	}
	return &FittedPipeline{
		Subspaces: subspaces,
		Scorers:   fitted,
		Agg:       p.Agg,
		Train:     acc.finish(),
		D:         ds.D(),
	}, nil
}

// ScorePoint scores one out-of-sample full-space point: every fitted
// subspace scorer evaluates the point's projection, and the per-subspace
// scores aggregate exactly like the batch ranking. The aggregation buffer
// is pooled, keeping the serving hot path allocation-free.
func (fp *FittedPipeline) ScorePoint(point []float64) (float64, error) {
	if len(point) != fp.D {
		return 0, fmt.Errorf("ranking: point has %d attributes, model expects %d", len(point), fp.D)
	}
	buf, _ := fp.scratch.Get().(*[]float64)
	if buf == nil {
		buf = new([]float64)
	}
	vals := (*buf)[:0]
	for _, f := range fp.Scorers {
		vals = append(vals, f.ScorePoint(point))
	}
	res := aggregatePoint(fp.Agg, vals)
	*buf = vals
	fp.scratch.Put(buf)
	return res, nil
}

// Name identifies the pipeline in reports, e.g. "HiCS+LOF".
func (p Pipeline) Name() string {
	if _, ok := p.Searcher.(FullSpace); ok {
		return p.Scorer.Name()
	}
	return p.Searcher.Name() + "+" + p.Scorer.Name()
}

// PCAPipeline is the dimensionality-reduction competitor: project the data
// onto the first k principal components, then run a full-space scorer on
// the projection. It does not fit the two-step interface because PCA
// transforms objects instead of selecting attribute subsets — the paper's
// argument for why it is not a subspace search method.
type PCAPipeline struct {
	// Components determines k from the data dimensionality. The paper's
	// variants: PCALOF1 uses d/2, PCALOF2 uses the constant 10.
	Components func(d int) int
	Scorer     Scorer
	// Label is the report name, e.g. "PCALOF1".
	Label string
}

// Rank projects and scores. The PCA projection is one unit of work, so
// ctx is only checked around it and then handed to the scoring pass —
// cancellation latency is coarser than the subspace pipelines'.
func (p PCAPipeline) Rank(ctx context.Context, ds *dataset.Dataset) (*Result, error) {
	if p.Components == nil || p.Scorer == nil {
		return nil, errors.New("ranking: PCA pipeline needs Components and Scorer")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	k := p.Components(ds.D())
	if k < 1 {
		k = 1
	}
	if k > ds.D() {
		k = ds.D()
	}
	proj, err := pca.FitTransform(ds.Standardized(), k)
	if err != nil {
		return nil, fmt.Errorf("ranking: PCA: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	scores, err := p.Scorer.Score(ctx, proj, subspace.Full(k), 0)
	if err != nil {
		return nil, fmt.Errorf("ranking: PCA scoring: %w", err)
	}
	return &Result{Scores: scores, Subspaces: []subspace.Scored{{S: subspace.Full(k)}}}, nil
}

// Name identifies the pipeline in reports.
func (p PCAPipeline) Name() string {
	if p.Label != "" {
		return p.Label
	}
	return "PCA+" + p.Scorer.Name()
}

// Ranker is the common interface of Pipeline and PCAPipeline, letting the
// experiment harness treat all competitors uniformly.
type Ranker interface {
	Rank(ctx context.Context, ds *dataset.Dataset) (*Result, error)
	Name() string
}

var (
	_ Ranker = Pipeline{}
	_ Ranker = PCAPipeline{}
)
