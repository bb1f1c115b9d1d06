// Package hics is a Go implementation of HiCS — "High Contrast Subspaces
// for Density-Based Outlier Ranking" (Keller, Müller, Böhm, ICDE 2012).
//
// HiCS decouples subspace outlier mining into two steps:
//
//  1. Subspace search: rank axis-parallel projections of the data by a
//     statistical contrast measure — the average deviation between the
//     marginal distribution of an attribute and its distribution inside
//     random "subspace slices" over the other attributes, estimated by a
//     Monte Carlo loop of Welch t-tests or Kolmogorov–Smirnov tests.
//  2. Outlier ranking: score every object with a density-based outlier
//     score (LOF by default) inside each high-contrast projection and
//     average the per-projection scores.
//
// The package exposes the complete pipeline (Rank), the subspace search
// alone (SearchSubspaces), and the contrast measure for a single subspace
// (Contrast). For production scoring, Fit runs the expensive subspace
// search once and returns a reusable Model that scores out-of-sample
// points (Score, ScoreBatch) and persists to disk (Save, LoadModel); the
// cmd/hicsd server exposes a trained model over HTTP. For continuous
// feeds, NewStream and Model.NewStream wrap a model in a sliding-window
// online detector (Stream) that scores each arriving row and periodically
// re-fits itself over its window — served as NDJSON by hicsd's /stream
// endpoint and driven from the command line by hics -stream.
//
// Both pipeline steps are pluggable through a method registry: the
// searchers and scorers of the paper's evaluation matrix (HiCS, Enclus,
// RIS, random subspaces, SURFING, the full space; LOF, kNN-distance,
// ORCA, OUTRES) are selected by name via Options.Search and
// Options.Scorer — SearcherNames and ScorerNames list the valid values.
// The same names drive the cmd/hics flags and the cmd/hicsbench
// experiment harness.
//
// All entry points accept row-major [][]float64 data; every row is one
// object, every column one attribute.
//
// Every long-running entry point has a context-aware variant —
// RankContext, FitContext, SearchSubspacesContext, Model.ScoreBatchContext
// — whose Monte Carlo and scoring loops check the context cooperatively:
// a cancelled or deadlined context makes the call return ctx.Err()
// promptly without leaking goroutines, and an uncancelled call is
// bit-for-bit identical to its plain counterpart (cancellation checks
// never consume randomness). The context-free forms are thin
// context.Background() wrappers.
package hics

import (
	"context"
	"errors"
	"fmt"
	"math"

	"hics/internal/core"
	"hics/internal/dataset"
	"hics/internal/lof"
	"hics/internal/neighbors"
	"hics/internal/ranking"
	"hics/internal/registry"
	"hics/internal/subspace"
)

// Options configures HiCS. The zero value selects the defaults of the
// paper's experiments (M=50, α=0.1, cutoff=400, 100 subspaces, Welch test,
// LOF with MinPts=10, average aggregation).
type Options struct {
	// M is the number of Monte Carlo statistical tests per subspace.
	M int
	// Alpha is the expected fraction of objects in a subspace slice,
	// 0 < Alpha < 1.
	Alpha float64
	// CandidateCutoff bounds the candidates retained per Apriori level.
	CandidateCutoff int
	// TopK is the number of subspaces kept for the ranking step: 0
	// keeps 100, and -1 keeps every subspace the hics, enclus, ris and
	// surfing searches pool. The randsub search draws TopK subspaces, or
	// 100 when TopK is 0 or -1.
	TopK int
	// Test selects the deviation function: "welch" (default), "ks",
	// "mw" (Mann–Whitney U) or "cvm" (Cramér–von Mises).
	Test string
	// Seed fixes all Monte Carlo randomness, making results reproducible.
	Seed uint64
	// MinPts is the LOF neighborhood size of the ranking step. Each
	// neighbor query keeps its MinPts best objects in a sorted buffer, so
	// a query's cost can grow with MinPts·N on data offered in an
	// unlucky order; the default 10 keeps that small.
	MinPts int
	// UseKNNScore replaces LOF with the average-kNN-distance score, the
	// cheaper alternative the paper names as future work.
	UseKNNScore bool
	// Aggregation selects how per-subspace scores combine: "average"
	// (default, the paper's choice), "max", or "product" (the
	// OUTRES-style aggregation). The empty string means "average".
	Aggregation string
	// Workers bounds the goroutines of both pipeline steps — the subspace
	// contrast evaluations and the batch neighborhood passes of the
	// LOF/kNN scorers; 0 means one per CPU. Negative values are rejected.
	// Results are bit-for-bit independent of the setting.
	Workers int
	// MaxDim caps the dimensionality of the selected subspaces. What 0
	// means depends on the search: the hics search is unbounded (its
	// Apriori loop stops by itself), enclus, ris and surfing stop at 6
	// attributes, and randsub draws up to D−1 of the D attributes.
	MaxDim int
	// AdaptiveM is ignored: every candidate subspace spends the full M
	// Monte Carlo iterations, and setting it changes no result.
	AdaptiveM bool
	// MaxSampleRows bounds the rows used per contrast estimate: when the
	// dataset has more rows, each candidate subspace draws a fixed,
	// seed-deterministic subsample of this size and estimates its
	// contrast there. 0 (default) disables subsampling. The estimate is
	// unbiased but no longer bit-identical to the full-data contrast;
	// see docs/performance.md for the tradeoff.
	MaxSampleRows int
	// NeighborIndex selects the neighbor-search backend of the ranking
	// step: "auto" (default; k-d tree for large, low-dimensional
	// projections, brute force otherwise), "kdtree", or "brute". The
	// backends produce bit-for-bit identical scores and the choice only
	// affects speed.
	NeighborIndex string
	// Search selects the subspace-search method by registry name:
	// "hics" (default), "enclus", "ris", "randsub", "surfing", or
	// "fullspace". The empty string keeps the paper's HiCS search.
	// Method-specific parameters map from the shared fields: TopK and
	// MaxDim configure every searcher but fullspace, CandidateCutoff the
	// level-wise ones (hics, enclus, ris, surfing), and Seed the hics and
	// randsub searches; M, Alpha, Test and MaxSampleRows apply to the
	// HiCS search only; MinPts doubles as the density parameter of the
	// RIS and SURFING searches.
	Search string
	// Scorer selects the density scorer of the ranking step by registry
	// name: "lof" (default), "knn", "orca", or "outres". The empty
	// string keeps LOF — or the kNN-distance score when the legacy
	// UseKNNScore flag is set; it is an error to combine UseKNNScore
	// with a conflicting Scorer value.
	Scorer string
}

// validate rejects out-of-range option values at the API boundary. Zero
// values remain "use the default"; values that cannot mean anything are
// errors instead of being silently replaced.
func (o Options) validate() error {
	if o.M < 0 {
		return fmt.Errorf("hics: M must be positive, got %d (0 selects the default %d)", o.M, core.DefaultM)
	}
	// The condition is phrased positively so NaN (for which every
	// comparison is false) is rejected too.
	if o.Alpha != 0 && !(o.Alpha > 0 && o.Alpha < 1) {
		return fmt.Errorf("hics: Alpha must be in (0,1), got %g (0 selects the default %g)", o.Alpha, core.DefaultAlpha)
	}
	if o.MinPts < 0 {
		return fmt.Errorf("hics: MinPts must be positive, got %d (0 selects the default %d)", o.MinPts, lof.DefaultMinPts)
	}
	if o.CandidateCutoff < 0 {
		return fmt.Errorf("hics: CandidateCutoff must be positive, got %d (0 selects the default %d)", o.CandidateCutoff, core.DefaultCutoff)
	}
	if o.TopK < -1 {
		return fmt.Errorf("hics: TopK must be positive, got %d (0 selects the default %d, -1 keeps all subspaces)", o.TopK, core.DefaultTopK)
	}
	if o.Workers < 0 {
		return fmt.Errorf("hics: Workers must be non-negative, got %d (0 selects one worker per CPU)", o.Workers)
	}
	if o.MaxDim < 0 {
		return fmt.Errorf("hics: MaxDim must be non-negative, got %d (0 selects the search's default bound)", o.MaxDim)
	}
	if o.MaxSampleRows < 0 {
		return fmt.Errorf("hics: MaxSampleRows must be non-negative, got %d (0 disables contrast subsampling)", o.MaxSampleRows)
	}
	// Method names are validated here too, so every entry point — even
	// SearchSubspaces, which never constructs the scorer — rejects an
	// unknown name with the full list of valid values.
	search, scorer, err := o.methodNames()
	if err != nil {
		return err
	}
	if !registry.KnownSearcher(search) {
		_, err := registry.NewSearcher(search, registry.Options{})
		return err
	}
	if !registry.KnownScorer(scorer) {
		_, err := registry.NewScorer(scorer, registry.Options{})
		return err
	}
	return nil
}

// methodNames resolves the Search/Scorer registry names, applying the
// defaults and the legacy UseKNNScore flag.
func (o Options) methodNames() (search, scorer string, err error) {
	search = o.Search
	if search == "" {
		search = registry.DefaultSearcher
	}
	scorer = o.Scorer
	if scorer == "" {
		if o.UseKNNScore {
			scorer = "knn"
		} else {
			scorer = registry.DefaultScorer
		}
	} else if o.UseKNNScore && scorer != "knn" {
		return "", "", fmt.Errorf("hics: Scorer %q conflicts with UseKNNScore", o.Scorer)
	}
	return search, scorer, nil
}

func (o Options) coreParams() (core.Params, error) {
	if err := o.validate(); err != nil {
		return core.Params{}, err
	}
	p := core.Params{
		M:             o.M,
		Alpha:         o.Alpha,
		Cutoff:        o.CandidateCutoff,
		TopK:          o.TopK,
		Seed:          o.Seed,
		Workers:       o.Workers,
		MaxDim:        o.MaxDim,
		MaxSampleRows: o.MaxSampleRows,
	}
	if o.Test != "" {
		t, err := core.ParseTest(o.Test)
		if err != nil {
			return p, err
		}
		p.Test = t
	}
	return p, nil
}

// pipeline assembles the two-step ranking pipeline Rank and Fit share,
// resolving the Search/Scorer registry names.
func (o Options) pipeline() (ranking.Pipeline, error) {
	p, err := o.coreParams()
	if err != nil {
		return ranking.Pipeline{}, err
	}
	kind, err := neighbors.ParseKind(o.NeighborIndex)
	if err != nil {
		return ranking.Pipeline{}, err
	}
	agg, err := ranking.ParseAggregation(o.Aggregation)
	if err != nil {
		return ranking.Pipeline{}, err
	}
	search, scorer, err := o.methodNames()
	if err != nil {
		return ranking.Pipeline{}, err
	}
	// Workers bounds both the search fan-out (via p) and the scoring
	// batch passes. kind is the one place the neighbor backend is pinned.
	return registry.NewPipeline(search, scorer, registry.Options{
		Search:  p,
		MinPts:  o.MinPts,
		Index:   kind,
		Agg:     agg,
		Workers: o.Workers,
	})
}

// Subspace is one scored projection of the attribute space.
type Subspace struct {
	// Dims are the attribute indices of the projection, ascending.
	Dims []int
	// Contrast is the HiCS contrast in [0, 1]; higher means stronger
	// conditional dependence between the dimensions.
	Contrast float64
}

// Result is the outcome of a full HiCS outlier ranking.
type Result struct {
	// Scores holds one aggregated outlier score per object (row); higher
	// means more outlying.
	Scores []float64
	// Subspaces lists the high-contrast projections the scores were
	// computed in, in descending contrast order.
	Subspaces []Subspace
}

// TopOutliers returns the indices of the k highest-scoring objects in
// descending score order; tied scores break toward the lower index.
// k ≤ 0 yields an empty slice, k beyond the object count is clamped.
//
// The selection is a bounded min-heap over the scores, O(n log k) — k is
// user-facing and unbounded, so the quadratic selection scan this used to
// be would dominate for large k.
func (r *Result) TopOutliers(k int) []int {
	n := len(r.Scores)
	if k > n {
		k = n
	}
	if k <= 0 {
		return []int{}
	}
	// worse reports whether object a ranks below object b.
	worse := func(a, b int) bool {
		if r.Scores[a] != r.Scores[b] {
			return r.Scores[a] < r.Scores[b]
		}
		return a > b
	}
	// heap[0] is the weakest of the k best seen so far.
	heap := make([]int, 0, k)
	siftDown := func(i int) {
		for {
			l, r2 := 2*i+1, 2*i+2
			min := i
			if l < len(heap) && worse(heap[l], heap[min]) {
				min = l
			}
			if r2 < len(heap) && worse(heap[r2], heap[min]) {
				min = r2
			}
			if min == i {
				return
			}
			heap[i], heap[min] = heap[min], heap[i]
			i = min
		}
	}
	for i := 0; i < n; i++ {
		if len(heap) < k {
			heap = append(heap, i)
			for c := len(heap) - 1; c > 0; {
				p := (c - 1) / 2
				if !worse(heap[c], heap[p]) {
					break
				}
				heap[c], heap[p] = heap[p], heap[c]
				c = p
			}
		} else if worse(heap[0], i) {
			heap[0] = i
			siftDown(0)
		}
	}
	// Drain the heap weakest-first into descending rank order.
	out := make([]int, len(heap))
	for i := len(heap) - 1; i >= 0; i-- {
		out[i] = heap[0]
		heap[0] = heap[len(heap)-1]
		heap = heap[:len(heap)-1]
		siftDown(0)
	}
	return out
}

func toDataset(rows [][]float64) (*dataset.Dataset, error) {
	if len(rows) == 0 {
		return nil, errors.New("hics: empty data")
	}
	// Non-finite values are rejected at the API boundary: a NaN poisons
	// every statistic it touches and an Inf empties neighborhoods, so the
	// pipeline would silently hand back meaningless scores. Naming the
	// offending cell beats debugging a NaN ranking.
	for i, row := range rows {
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("hics: row %d column %d is %v, want a finite value", i, j, v)
			}
		}
	}
	return dataset.FromRows(nil, rows)
}

// SearchSubspaces runs the subspace search selected by opts.Search (the
// HiCS contrast search by default) on row-major data and returns the
// scored projections in descending quality order.
func SearchSubspaces(rows [][]float64, opts Options) ([]Subspace, error) {
	return SearchSubspacesContext(context.Background(), rows, opts)
}

// SearchSubspacesContext is SearchSubspaces with cooperative
// cancellation: the search observes ctx throughout its candidate loops
// and returns ctx.Err() promptly once it fires. An uncancelled search is
// bit-for-bit identical to SearchSubspaces — the cancellation checks
// never consume randomness.
func SearchSubspacesContext(ctx context.Context, rows [][]float64, opts Options) ([]Subspace, error) {
	ds, err := toDataset(rows)
	if err != nil {
		return nil, err
	}
	p, err := opts.coreParams()
	if err != nil {
		return nil, err
	}
	search, _, err := opts.methodNames()
	if err != nil {
		return nil, err
	}
	s, err := registry.NewSearcher(search, registry.Options{Search: p, MinPts: opts.MinPts})
	if err != nil {
		return nil, err
	}
	subs, err := s.Search(ctx, ds)
	if err != nil {
		return nil, err
	}
	out := make([]Subspace, len(subs))
	for i, sc := range subs {
		out[i] = Subspace{Dims: append([]int(nil), sc.S...), Contrast: sc.Score}
	}
	return out, nil
}

// Contrast computes the HiCS contrast of a single subspace (given as
// attribute indices) of the row-major data.
func Contrast(rows [][]float64, dims []int, opts Options) (float64, error) {
	ds, err := toDataset(rows)
	if err != nil {
		return 0, err
	}
	p, err := opts.coreParams()
	if err != nil {
		return 0, err
	}
	return core.ContrastOf(ds, subspace.New(dims...), p)
}

// Rank runs the complete two-step HiCS pipeline: subspace search followed
// by density-based outlier scoring in the selected projections.
func Rank(rows [][]float64, opts Options) (*Result, error) {
	return RankContext(context.Background(), rows, opts)
}

// RankContext is Rank with cooperative cancellation: the Monte Carlo
// subspace search checks ctx between groups of iterations and the
// scoring step checks it between subspaces, so a cancelled or deadlined
// context makes the call return ctx.Err() promptly without leaking
// goroutines. An uncancelled run is bit-for-bit identical to Rank.
func RankContext(ctx context.Context, rows [][]float64, opts Options) (*Result, error) {
	ds, err := toDataset(rows)
	if err != nil {
		return nil, err
	}
	pipe, err := opts.pipeline()
	if err != nil {
		return nil, err
	}
	res, err := pipe.Rank(ctx, ds)
	if err != nil {
		return nil, err
	}
	subs := make([]Subspace, len(res.Subspaces))
	for i, sc := range res.Subspaces {
		subs[i] = Subspace{Dims: append([]int(nil), sc.S...), Contrast: sc.Score}
	}
	return &Result{Scores: res.Scores, Subspaces: subs}, nil
}

// LOFScores computes plain full-space LOF scores on row-major data — the
// classical baseline, exposed for comparisons.
func LOFScores(rows [][]float64, minPts int) ([]float64, error) {
	ds, err := toDataset(rows)
	if err != nil {
		return nil, err
	}
	if minPts <= 0 {
		minPts = lof.DefaultMinPts
	}
	_, scores, err := lof.FitContext(context.Background(), ds, subspace.Full(ds.D()), minPts, neighbors.KindAuto, 0)
	return scores, err
}

// SearcherNames lists the subspace-search method names Options.Search
// accepts, sorted.
func SearcherNames() []string { return registry.SearcherNames() }

// ScorerNames lists the density-scorer names Options.Scorer accepts,
// sorted.
func ScorerNames() []string { return registry.ScorerNames() }

// FitScorerNames lists the scorer names that support the fit/score split,
// i.e. the values of Options.Scorer that Fit (and model persistence)
// accepts.
func FitScorerNames() []string { return registry.FitScorerNames() }

// Version identifies the library release. It is the single source of
// truth for version reporting: the hicsd /healthz and /info responses,
// the `hics -version` and `hicsd -version` flags, and the README all
// derive from this constant.
const Version = "1.9.0"
