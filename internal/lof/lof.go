// Package lof implements the density-based outlier scores used as the
// ranking step of the two-step pipeline: the Local Outlier Factor of
// Breunig et al. (SIGMOD 2000) — the paper's reference scorer — and the
// simpler average-kNN-distance score (the ORCA-style alternative named in
// the paper's future work).
//
// Both scorers accept an explicit subspace so that, as proposed by
// Lazarevic & Kumar and adopted by HiCS, object distances are measured
// only w.r.t. the given projection. Neighborhoods come from the
// internal/neighbors index subsystem; every entry point takes the backend
// kind (neighbors.KindAuto selects one automatically). Backends are
// bit-for-bit equivalent, so the choice only affects speed.
//
// Each score has one batch entry point, which also freezes the
// per-subspace state a query needs: FitInto (LOF) and FitKNNInto (average
// kNN distance) write the training scores into a caller's buffer, so a
// pass over many subspaces refills one, and return the neighbor index
// plus, for LOF, the training k-distances and local reachability
// densities. FitContext and FitKNNContext are the same fits returning a
// fresh score slice. ScoreQuery scores an out-of-sample point against the
// frozen state without refitting, following the standard generalization
// of LOF to query points (the query participates only in its own
// neighborhood, never in the training statistics).
package lof

import (
	"context"
	"fmt"
	"math"
	"sync"

	"hics/internal/dataset"
	"hics/internal/neighbors"
	"hics/internal/trace"
)

// DefaultMinPts is the LOF neighborhood size used throughout the paper's
// experiments when nothing else is specified.
const DefaultMinPts = 10

// buildIndex constructs the neighbor index on up to workers goroutines
// under a trace span, so a traced request shows each per-subspace index
// build as its own phase (the dominant cost for the tree backend). ctx
// carries only the span — index construction is not cancellable.
func buildIndex(ctx context.Context, ds *dataset.Dataset, dims []int, kind neighbors.Kind, workers int) (neighbors.Index, error) {
	_, span := trace.StartSpan(ctx, "neighbors.build")
	span.SetAttr("kind", kind.String())
	span.SetAttr("dims", len(dims))
	span.SetAttr("objects", ds.N())
	idx, err := neighbors.NewWorkers(ds, dims, kind, workers)
	span.SetError(err)
	span.End()
	return idx, err
}

// fittedIndex is the out-of-sample query plumbing Fitted and FittedKNN
// share: the neighbor index over the training objects, the neighborhood
// size, pooled per-query scratch, and the owning type's scoring kernel.
// Its methods are safe for concurrent queries.
type fittedIndex struct {
	idx     neighbors.Index
	k       int
	kern    kernel
	scratch sync.Pool // *queryScratch, per concurrent query
}

// kernel turns a query's neighborhood among the training objects into
// its score.
type kernel interface {
	scoreNeighbors(nb []neighbors.Neighbor) float64
}

type queryScratch struct {
	sc   *neighbors.Scratch
	buf  []neighbors.Neighbor
	proj []float64
}

func (f *fittedIndex) init(idx neighbors.Index, k int, kern kernel) {
	f.idx, f.k, f.kern = idx, k, kern
	f.scratch.New = func() any { return &queryScratch{sc: idx.NewScratch()} }
}

// Kind reports the resolved neighbor-index backend of the fit.
func (f *fittedIndex) Kind() neighbors.Kind { return f.idx.Kind() }

// N returns the number of training objects.
func (f *fittedIndex) N() int { return f.idx.N() }

// ScoreQuery scores an out-of-sample point q, given in subspace
// coordinates (one value per fitted dimension), against the training
// state. Safe for concurrent use.
func (f *fittedIndex) ScoreQuery(q []float64) float64 {
	s := f.scratch.Get().(*queryScratch)
	defer f.scratch.Put(s)
	return f.score(q, s)
}

// ScoreQueryAt is ScoreQuery for a full-space point, projected onto dims
// into pooled scratch — the allocation-free form for serving hot paths.
func (f *fittedIndex) ScoreQueryAt(full []float64, dims []int) float64 {
	s := f.scratch.Get().(*queryScratch)
	defer f.scratch.Put(s)
	proj := s.proj[:0]
	for _, d := range dims {
		proj = append(proj, full[d])
	}
	s.proj = proj
	return f.score(proj, s)
}

func (f *fittedIndex) score(q []float64, s *queryScratch) float64 {
	nb, _ := f.idx.KNNPoint(q, f.k, s.sc, s.buf[:0])
	s.buf = nb
	return f.kern.scoreNeighbors(nb)
}

// Fitted is the frozen state of a LOF fit on one subspace: the neighbor
// index over the training objects plus their k-distances and local
// reachability densities. Training scores are written by the fit but not
// retained — query scoring only needs kdist and lrd.
type Fitted struct {
	fittedIndex
	kdist []float64
	lrd   []float64
}

// hoods recycles the neighborhood storage of LOF fits: a fit of many
// subspaces of one dataset fills the same n·k slab over and over.
var hoods = sync.Pool{New: func() any { return new(neighbors.Neighborhoods) }}

// FitContext is FitInto returning the training LOF scores in a fresh
// slice.
func FitContext(ctx context.Context, ds *dataset.Dataset, dims []int, minPts int, kind neighbors.Kind, workers int) (*Fitted, []float64, error) {
	scores := make([]float64, ds.N())
	f, err := FitInto(ctx, ds, dims, minPts, kind, workers, scores)
	if err != nil {
		return nil, nil, err
	}
	return f, scores, nil
}

// FitInto runs the batch LOF passes on the subspace dims, writes every
// object's Local Outlier Factor into scores (one value per object), and
// freezes the state an out-of-sample query needs. minPts is the
// neighborhood size (MinPts in the original paper); values below 1 fall
// back to DefaultMinPts. kind selects the neighbor-index backend
// (neighbors.KindAuto selects one automatically). The fitted state does
// not keep the buffer, so a caller scoring subspace after subspace folds
// each subspace's scores and refills the same buffer with the next.
//
// Duplicate-heavy data is handled per the original definition: a point
// whose neighborhood has zero reachability distance gets an infinite local
// reachability density, and ratios ∞/∞ resolve to 1.
//
// workers bounds the parallelism of the index build and the batch pass
// (<= 0 means one per CPU, 1 runs both on the calling goroutine). The
// dominant neighborhood pass observes ctx between query chunks; the
// linear follow-up passes run to completion. Results are bit-for-bit
// independent of both.
func FitInto(ctx context.Context, ds *dataset.Dataset, dims []int, minPts int, kind neighbors.Kind, workers int, scores []float64) (*Fitted, error) {
	if minPts < 1 {
		minPts = DefaultMinPts
	}
	n, err := checkFit(ds, scores)
	if err != nil {
		return nil, err
	}
	idx, err := buildIndex(ctx, ds, dims, kind, workers)
	if err != nil {
		return nil, fmt.Errorf("lof: %w", err)
	}

	// Pass 1: materialize neighborhoods and k-distances (batched,
	// parallel, one slab for all neighborhoods). The slab outlives the fit
	// only in the pool; kdist is the model's.
	h := hoods.Get().(*neighbors.Neighborhoods)
	defer hoods.Put(h)
	kdist := make([]float64, n)
	if err := h.Fill(ctx, idx, minPts, workers, kdist); err != nil {
		return nil, err
	}
	neighborhoods := h.Rows

	// Pass 2: local reachability densities.
	lrd := make([]float64, n)
	for i, nb := range neighborhoods {
		lrd[i] = reachDensity(nb, kdist)
	}
	// Pass 3: LOF = mean ratio of neighbor lrd to own lrd.
	for i, nb := range neighborhoods {
		scores[i] = meanRatio(nb, lrd, lrd[i])
	}
	return newFitted(idx, minPts, kdist, lrd), nil
}

// checkFit validates the shared preconditions of FitInto and FitKNNInto
// and returns the object count.
func checkFit(ds *dataset.Dataset, scores []float64) (int, error) {
	n := ds.N()
	if n < 2 {
		return 0, fmt.Errorf("lof: need at least 2 objects, have %d", n)
	}
	if len(scores) != n {
		return 0, fmt.Errorf("lof: score buffer holds %d values for %d objects", len(scores), n)
	}
	return n, nil
}

// NewFitted reassembles a Fitted from persisted state: the (rebuilt)
// neighbor index plus the stored k-distances and local reachability
// densities.
func NewFitted(idx neighbors.Index, minPts int, kdist, lrd []float64) (*Fitted, error) {
	if minPts < 1 {
		return nil, fmt.Errorf("lof: fitted state needs minPts >= 1, got %d", minPts)
	}
	if len(kdist) != idx.N() || len(lrd) != idx.N() {
		return nil, fmt.Errorf("lof: fitted state for %d objects has %d k-distances and %d lrd values",
			idx.N(), len(kdist), len(lrd))
	}
	return newFitted(idx, minPts, kdist, lrd), nil
}

func newFitted(idx neighbors.Index, minPts int, kdist, lrd []float64) *Fitted {
	f := &Fitted{kdist: kdist, lrd: lrd}
	f.init(idx, minPts, f)
	return f
}

// MinPts returns the effective neighborhood size of the fit.
func (f *Fitted) MinPts() int { return f.k }

// KDist returns the training k-distances (shared slice, read-only).
func (f *Fitted) KDist() []float64 { return f.kdist }

// LRD returns the training local reachability densities (shared slice,
// read-only).
func (f *Fitted) LRD() []float64 { return f.lrd }

// scoreNeighbors is the LOF of a query with neighborhood nb: the batch
// formula with the query as an extra, non-indexed object, whose
// reachability distances use the frozen training k-distances.
func (f *Fitted) scoreNeighbors(nb []neighbors.Neighbor) float64 {
	return meanRatio(nb, f.lrd, reachDensity(nb, f.kdist))
}

// reachDensity is the local reachability density of an object with
// neighborhood nb: infinite when every reachability distance is zero, per
// the original definition for duplicate-heavy data.
func reachDensity(nb []neighbors.Neighbor, kdist []float64) float64 {
	sum := 0.0
	for _, x := range nb {
		reach := x.Dist
		if kdist[x.ID] > reach {
			reach = kdist[x.ID]
		}
		sum += reach
	}
	if sum == 0 || len(nb) == 0 {
		return math.Inf(1)
	}
	return float64(len(nb)) / sum
}

// meanRatio is the LOF of an object with neighborhood nb and density own:
// the mean ratio of its neighbors' densities to own, where ∞/∞ is 1. An
// empty neighborhood scores 1.
func meanRatio(nb []neighbors.Neighbor, lrd []float64, own float64) float64 {
	if len(nb) == 0 {
		return 1
	}
	sum := 0.0
	for _, x := range nb {
		r := lrd[x.ID] / own
		if math.IsInf(lrd[x.ID], 1) && math.IsInf(own, 1) {
			r = 1
		}
		sum += r
	}
	return sum / float64(len(nb))
}

// FittedKNN is the frozen state of an average-kNN-distance fit on one
// subspace. Unlike LOF the score needs no per-object training statistics —
// the neighbor index alone answers queries.
type FittedKNN struct {
	fittedIndex
}

// FitKNNContext is FitKNNInto returning the training scores in a fresh
// slice.
func FitKNNContext(ctx context.Context, ds *dataset.Dataset, dims []int, k int, kind neighbors.Kind, workers int) (*FittedKNN, []float64, error) {
	scores := make([]float64, ds.N())
	f, err := FitKNNInto(ctx, ds, dims, k, kind, workers, scores)
	if err != nil {
		return nil, nil, err
	}
	return f, scores, nil
}

// FitKNNInto writes the average distance of every object to its k
// nearest neighbors in the subspace dims into scores — a simple
// density-based score that is monotone in "outlierness" like LOF but
// cheaper and non-local — and freezes the neighbor index for
// out-of-sample queries. k below 1 falls back to DefaultMinPts; the
// buffer, backend, cancellation and worker bound act as in FitInto.
func FitKNNInto(ctx context.Context, ds *dataset.Dataset, dims []int, k int, kind neighbors.Kind, workers int, scores []float64) (*FittedKNN, error) {
	if k < 1 {
		k = DefaultMinPts
	}
	if _, err := checkFit(ds, scores); err != nil {
		return nil, err
	}
	idx, err := buildIndex(ctx, ds, dims, kind, workers)
	if err != nil {
		return nil, fmt.Errorf("lof: %w", err)
	}
	// The score needs one distance sum per object, so no neighborhood is
	// kept: each is summed as it streams past, in ascending id order.
	err = neighbors.ForEachKNN(ctx, idx, k, workers, func(q int, nb []neighbors.Neighbor, _ float64) {
		scores[q] = meanDist(nb)
	})
	if err != nil {
		return nil, err
	}
	return newFittedKNN(idx, k), nil
}

// NewFittedKNN reassembles a FittedKNN from persisted state.
func NewFittedKNN(idx neighbors.Index, k int) (*FittedKNN, error) {
	if k < 1 {
		return nil, fmt.Errorf("lof: fitted state needs k >= 1, got %d", k)
	}
	return newFittedKNN(idx, k), nil
}

func newFittedKNN(idx neighbors.Index, k int) *FittedKNN {
	f := &FittedKNN{}
	f.init(idx, k, f)
	return f
}

// scoreNeighbors is the average distance from a query to its
// neighborhood nb among the training objects.
func (f *FittedKNN) scoreNeighbors(nb []neighbors.Neighbor) float64 { return meanDist(nb) }

// meanDist is the average distance to the neighbors in nb; 0 when nb is
// empty.
func meanDist(nb []neighbors.Neighbor) float64 {
	if len(nb) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range nb {
		sum += x.Dist
	}
	return sum / float64(len(nb))
}
