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
	// Score writes the score of every object of ds in the projection dims
	// into scores, which holds one value per object and may hold a
	// previous subspace's scores: every entry is overwritten. A scorer
	// with a parallel batch pass bounds it by workers (<= 0 means one per
	// CPU) and observes ctx cooperatively; its scores must be bit-for-bit
	// identical whatever the worker count. Sequential scorers may ignore
	// both arguments.
	Score(ctx context.Context, ds *dataset.Dataset, dims []int, workers int, scores []float64) error
	// Name identifies the method in reports.
	Name() string
}

// FitScorer is implemented by scorers that support the fit/score split.
type FitScorer interface {
	Scorer
	// Fit is Score that also freezes the scorer's state on the subspace.
	// The state does not retain scores.
	Fit(ctx context.Context, ds *dataset.Dataset, dims []int, workers int, scores []float64) (FittedState, error)
}

// FittedState is the frozen per-subspace state of a FitScorer: it scores
// out-of-sample points without refitting and is safe for concurrent
// calls. LOFScorer freezes a *lof.Fitted, KNNScorer a *lof.FittedKNN.
type FittedState interface {
	// ScoreQueryAt scores a full-space point projected onto dims.
	ScoreQueryAt(full []float64, dims []int) float64
	// Kind reports the neighbor-index backend the state queries.
	Kind() neighbors.Kind
}

// FittedSubspace is the fitted form of one subspace. The exported fields
// allow model persistence layers to disassemble and reassemble the state.
type FittedSubspace struct {
	// Subspace is the fitted projection (ascending attribute indices).
	Subspace []int
	// State is the frozen scorer state on that projection.
	State FittedState
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
func (s LOFScorer) Score(ctx context.Context, ds *dataset.Dataset, dims []int, workers int, scores []float64) error {
	_, err := lof.FitInto(ctx, ds, dims, s.MinPts, s.Index, workers, scores)
	return err
}

// Fit implements FitScorer.
func (s LOFScorer) Fit(ctx context.Context, ds *dataset.Dataset, dims []int, workers int, scores []float64) (FittedState, error) {
	return lof.FitInto(ctx, ds, dims, s.MinPts, s.Index, workers, scores)
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
func (s KNNScorer) Score(ctx context.Context, ds *dataset.Dataset, dims []int, workers int, scores []float64) error {
	_, err := lof.FitKNNInto(ctx, ds, dims, s.K, s.Index, workers, scores)
	return err
}

// Fit implements FitScorer.
func (s KNNScorer) Fit(ctx context.Context, ds *dataset.Dataset, dims []int, workers int, scores []float64) (FittedState, error) {
	return lof.FitKNNInto(ctx, ds, dims, s.K, s.Index, workers, scores)
}

// Name implements Scorer.
func (s KNNScorer) Name() string { return "kNN" }

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

// Rank runs the two-step pipeline on ds. The subspace search observes
// ctx throughout its Monte Carlo loops, and the scoring step checks ctx
// between subspaces.
func (p Pipeline) Rank(ctx context.Context, ds *dataset.Dataset) (*Result, error) {
	subspaces, scores, _, err := p.run(ctx, ds, false)
	if err != nil {
		return nil, err
	}
	return &Result{Scores: scores, Subspaces: subspaces}, nil
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
	Scorers []FittedSubspace
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
// training scores equal Rank's scores exactly: both run the same
// per-subspace pass, and a fit only keeps each subspace's state as well.
// Like Rank, ctx is observed throughout the subspace search and between
// per-subspace fitting passes.
func (p Pipeline) Fit(ctx context.Context, ds *dataset.Dataset) (*FittedPipeline, error) {
	subspaces, train, fitted, err := p.run(ctx, ds, true)
	if err != nil {
		return nil, err
	}
	return &FittedPipeline{
		Subspaces: subspaces,
		Scorers:   fitted,
		Agg:       p.Agg,
		Train:     train,
		D:         ds.D(),
	}, nil
}

// run is the pass Rank and Fit share: the subspace search, then one
// N-sized buffer that each selected subspace's scores overwrite and the
// accumulator folds in subspace order, so a pass allocates beyond the
// scorers' own work only that buffer and the aggregate. With fit set,
// each subspace is fitted instead of scored and its frozen state kept.
func (p Pipeline) run(ctx context.Context, ds *dataset.Dataset, fit bool) ([]subspace.Scored, []float64, []FittedSubspace, error) {
	subspaces, err := p.resolve(ctx, ds)
	if err != nil {
		return nil, nil, nil, err
	}
	name, verb := "ranking.score", "scoring"
	var fs FitScorer
	var fitted []FittedSubspace
	if fit {
		var ok bool
		if fs, ok = p.Scorer.(FitScorer); !ok {
			return nil, nil, nil, fmt.Errorf("ranking: scorer %s does not support the fit/score split", p.Scorer.Name())
		}
		name, verb = "ranking.fit", "fitting"
		fitted = make([]FittedSubspace, len(subspaces))
	}
	acc := newAccumulator(p.Agg, ds.N())
	scores := make([]float64, ds.N())
	// One span covers the whole per-subspace pass; individual
	// neighbor-index builds inside the scorer open their own children.
	sctx, span := trace.StartSpan(ctx, name)
	span.SetAttr("scorer", p.Scorer.Name())
	span.SetAttr("subspaces", len(subspaces))
	defer span.End()
	for j, sc := range subspaces {
		err := ctx.Err()
		if err == nil {
			if fit {
				fitted[j].Subspace = append([]int(nil), sc.S...)
				fitted[j].State, err = fs.Fit(sctx, ds, sc.S, p.Workers, scores)
			} else {
				err = p.Scorer.Score(sctx, ds, sc.S, p.Workers, scores)
			}
		}
		if err != nil {
			span.SetError(err)
			// ctx.Err() passes through unwrapped, as in resolve.
			if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
				return nil, nil, nil, err
			}
			return nil, nil, nil, fmt.Errorf("ranking: %s %v with %s: %w", verb, sc.S, p.Scorer.Name(), err)
		}
		acc.fold(scores)
	}
	return subspaces, acc.finish(), fitted, nil
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
		vals = append(vals, f.State.ScoreQueryAt(point, f.Subspace))
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
	scores := make([]float64, proj.N())
	if err := p.Scorer.Score(ctx, proj, subspace.Full(k), 0, scores); err != nil {
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
