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
// Beyond the batch scorers the package supports a fit/score split:
// FitContext (resp. FitKNNContext) freezes the per-subspace state a
// query needs — the neighbor index plus, for LOF, the training
// k-distances and local reachability densities — and ScoreQuery scores
// an out-of-sample point against that state without refitting,
// following the standard generalization of LOF to query points (the
// query participates only in its own neighborhood, never in the
// training statistics).
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

// ScoresContext computes the Local Outlier Factor of every object w.r.t.
// the given subspace dims, using the requested neighbor-index backend
// (neighbors.KindAuto selects one automatically). minPts is the
// neighborhood size (MinPts in the original paper); values below 1 fall
// back to DefaultMinPts.
//
// Duplicate-heavy data is handled per the original definition: a point
// whose neighborhood has zero reachability distance gets an infinite local
// reachability density, and ratios ∞/∞ resolve to 1.
//
// workers bounds the batch-pass parallelism (<= 0 means one per CPU),
// and a cancelled ctx stops the neighborhood pass within one chunk of
// queries per worker. Results are bit-for-bit independent of both.
func ScoresContext(ctx context.Context, ds *dataset.Dataset, dims []int, minPts int, kind neighbors.Kind, workers int) ([]float64, error) {
	_, scores, err := FitContext(ctx, ds, dims, minPts, kind, workers)
	return scores, err
}

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

// Fitted is the frozen state of a LOF fit on one subspace: the neighbor
// index over the training objects plus their k-distances and local
// reachability densities. It scores out-of-sample points via ScoreQuery
// and is safe for concurrent queries. Training scores are returned by
// FitContext but not retained — query scoring only needs kdist and lrd.
type Fitted struct {
	idx    neighbors.Index
	minPts int
	kdist  []float64
	lrd    []float64

	scratch sync.Pool // *queryScratch, per concurrent query
}

type queryScratch struct {
	sc   *neighbors.Scratch
	buf  []neighbors.Neighbor
	proj []float64
}

// hoods recycles the neighborhood storage of LOF fits: a fit of many
// subspaces of one dataset fills the same n·k slab over and over.
var hoods = sync.Pool{New: func() any { return new(neighbors.Neighborhoods) }}

// FitContext runs the batch LOF passes on the given subspace and freezes
// the state an out-of-sample query needs, returning it together with the
// training LOF scores — bit-for-bit the ScoresContext result
// (ScoresContext is implemented on top of FitContext). workers bounds the
// parallelism of the index build and the batch pass (<= 0 means one per
// CPU, 1 runs both on the calling goroutine). The dominant neighborhood
// pass observes ctx between query chunks; the linear follow-up passes
// run to completion.
func FitContext(ctx context.Context, ds *dataset.Dataset, dims []int, minPts int, kind neighbors.Kind, workers int) (*Fitted, []float64, error) {
	if minPts < 1 {
		minPts = DefaultMinPts
	}
	n := ds.N()
	if n < 2 {
		return nil, nil, fmt.Errorf("lof: need at least 2 objects, have %d", n)
	}
	idx, err := buildIndex(ctx, ds, dims, kind, workers)
	if err != nil {
		return nil, nil, fmt.Errorf("lof: %w", err)
	}

	// Pass 1: materialize neighborhoods and k-distances (batched,
	// parallel, one slab for all neighborhoods). The slab outlives the fit
	// only in the pool; kdist is the model's.
	h := hoods.Get().(*neighbors.Neighborhoods)
	defer hoods.Put(h)
	kdist := make([]float64, n)
	if err := h.Fill(ctx, idx, minPts, workers, kdist); err != nil {
		return nil, nil, err
	}
	neighborhoods := h.Rows

	// Pass 2: local reachability densities.
	lrd := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := 0.0
		for _, nb := range neighborhoods[i] {
			reach := nb.Dist
			if kdist[nb.ID] > reach {
				reach = kdist[nb.ID]
			}
			sum += reach
		}
		if sum == 0 || len(neighborhoods[i]) == 0 {
			lrd[i] = math.Inf(1)
		} else {
			lrd[i] = float64(len(neighborhoods[i])) / sum
		}
	}

	// Pass 3: LOF = mean ratio of neighbor lrd to own lrd.
	scores := make([]float64, n)
	for i := 0; i < n; i++ {
		if len(neighborhoods[i]) == 0 {
			scores[i] = 1
			continue
		}
		sum := 0.0
		for _, nb := range neighborhoods[i] {
			r := lrd[nb.ID] / lrd[i]
			if math.IsInf(lrd[nb.ID], 1) && math.IsInf(lrd[i], 1) {
				r = 1
			}
			sum += r
		}
		scores[i] = sum / float64(len(neighborhoods[i]))
	}
	return newFitted(idx, minPts, kdist, lrd), scores, nil
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
	f := &Fitted{idx: idx, minPts: minPts, kdist: kdist, lrd: lrd}
	f.scratch.New = func() any { return &queryScratch{sc: idx.NewScratch()} }
	return f
}

// MinPts returns the effective neighborhood size of the fit.
func (f *Fitted) MinPts() int { return f.minPts }

// Kind reports the resolved neighbor-index backend of the fit.
func (f *Fitted) Kind() neighbors.Kind { return f.idx.Kind() }

// N returns the number of training objects.
func (f *Fitted) N() int { return f.idx.N() }

// KDist returns the training k-distances (shared slice, read-only).
func (f *Fitted) KDist() []float64 { return f.kdist }

// LRD returns the training local reachability densities (shared slice,
// read-only).
func (f *Fitted) LRD() []float64 { return f.lrd }

// ScoreQuery computes the LOF of an out-of-sample point q (given in
// subspace coordinates, one value per fitted dimension) against the
// training state: the query's neighborhood is found among the training
// objects, its reachability distances use the frozen training k-distances,
// and the score is the mean ratio of neighbor lrd to the query's own lrd —
// exactly the batch formula with the query as an extra, non-indexed
// object. Safe for concurrent use.
func (f *Fitted) ScoreQuery(q []float64) float64 {
	s := f.scratch.Get().(*queryScratch)
	defer f.scratch.Put(s)
	return f.scoreQuery(q, s)
}

// ScoreQueryAt is ScoreQuery for a full-space point, projected onto dims
// into pooled scratch — the allocation-free form for serving hot paths.
func (f *Fitted) ScoreQueryAt(full []float64, dims []int) float64 {
	s := f.scratch.Get().(*queryScratch)
	defer f.scratch.Put(s)
	proj := s.proj[:0]
	for _, d := range dims {
		proj = append(proj, full[d])
	}
	s.proj = proj
	return f.scoreQuery(proj, s)
}

func (f *Fitted) scoreQuery(q []float64, s *queryScratch) float64 {
	nb, _ := f.idx.KNNPoint(q, f.minPts, s.sc, s.buf[:0])
	s.buf = nb
	if len(nb) == 0 {
		return 1
	}
	sum := 0.0
	for _, x := range nb {
		reach := x.Dist
		if f.kdist[x.ID] > reach {
			reach = f.kdist[x.ID]
		}
		sum += reach
	}
	lrdq := math.Inf(1)
	if sum != 0 {
		lrdq = float64(len(nb)) / sum
	}
	total := 0.0
	for _, x := range nb {
		r := f.lrd[x.ID] / lrdq
		if math.IsInf(f.lrd[x.ID], 1) && math.IsInf(lrdq, 1) {
			r = 1
		}
		total += r
	}
	return total / float64(len(nb))
}

// KNNScoresContext computes the average distance to the k nearest
// neighbors of every object in the given subspace — a simple
// density-based score that is monotone in "outlierness" like LOF but
// cheaper and non-local — using the requested neighbor-index backend
// (neighbors.KindAuto selects one automatically). Cancellation and the
// worker bound mirror ScoresContext.
func KNNScoresContext(ctx context.Context, ds *dataset.Dataset, dims []int, k int, kind neighbors.Kind, workers int) ([]float64, error) {
	_, scores, err := FitKNNContext(ctx, ds, dims, k, kind, workers)
	return scores, err
}

// FittedKNN is the frozen state of an average-kNN-distance fit on one
// subspace. Unlike LOF the score needs no per-object training statistics —
// the neighbor index alone answers queries. Safe for concurrent queries.
type FittedKNN struct {
	idx neighbors.Index
	k   int

	scratch sync.Pool // *queryScratch
}

// FitKNNContext freezes the neighbor index for out-of-sample queries and
// returns it together with the batch average-kNN-distance training
// scores — bit-for-bit the KNNScoresContext result — with cooperative
// cancellation and a bound on the batch-pass parallelism, mirroring
// FitContext.
func FitKNNContext(ctx context.Context, ds *dataset.Dataset, dims []int, k int, kind neighbors.Kind, workers int) (*FittedKNN, []float64, error) {
	if k < 1 {
		k = DefaultMinPts
	}
	n := ds.N()
	if n < 2 {
		return nil, nil, fmt.Errorf("lof: need at least 2 objects, have %d", n)
	}
	idx, err := buildIndex(ctx, ds, dims, kind, workers)
	if err != nil {
		return nil, nil, fmt.Errorf("lof: %w", err)
	}
	// The score needs one distance sum per object, so no neighborhood is
	// kept: each is summed as it streams past, in ascending id order.
	scores := make([]float64, n)
	err = neighbors.ForEachKNN(ctx, idx, k, workers, func(q int, nb []neighbors.Neighbor, _ float64) {
		if len(nb) == 0 {
			return
		}
		sum := 0.0
		for _, x := range nb {
			sum += x.Dist
		}
		scores[q] = sum / float64(len(nb))
	})
	if err != nil {
		return nil, nil, err
	}
	return newFittedKNN(idx, k), scores, nil
}

// NewFittedKNN reassembles a FittedKNN from persisted state.
func NewFittedKNN(idx neighbors.Index, k int) (*FittedKNN, error) {
	if k < 1 {
		return nil, fmt.Errorf("lof: fitted state needs k >= 1, got %d", k)
	}
	return newFittedKNN(idx, k), nil
}

func newFittedKNN(idx neighbors.Index, k int) *FittedKNN {
	f := &FittedKNN{idx: idx, k: k}
	f.scratch.New = func() any { return &queryScratch{sc: idx.NewScratch()} }
	return f
}

// K returns the effective neighborhood size of the fit.
func (f *FittedKNN) K() int { return f.k }

// Kind reports the resolved neighbor-index backend of the fit.
func (f *FittedKNN) Kind() neighbors.Kind { return f.idx.Kind() }

// N returns the number of training objects.
func (f *FittedKNN) N() int { return f.idx.N() }

// ScoreQuery computes the average distance from the out-of-sample point q
// (in subspace coordinates) to its k nearest training objects. Safe for
// concurrent use.
func (f *FittedKNN) ScoreQuery(q []float64) float64 {
	s := f.scratch.Get().(*queryScratch)
	defer f.scratch.Put(s)
	return f.scoreQuery(q, s)
}

// ScoreQueryAt is ScoreQuery for a full-space point, projected onto dims
// into pooled scratch.
func (f *FittedKNN) ScoreQueryAt(full []float64, dims []int) float64 {
	s := f.scratch.Get().(*queryScratch)
	defer f.scratch.Put(s)
	proj := s.proj[:0]
	for _, d := range dims {
		proj = append(proj, full[d])
	}
	s.proj = proj
	return f.scoreQuery(proj, s)
}

func (f *FittedKNN) scoreQuery(q []float64, s *queryScratch) float64 {
	nb, _ := f.idx.KNNPoint(q, f.k, s.sc, s.buf[:0])
	s.buf = nb
	if len(nb) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range nb {
		sum += x.Dist
	}
	return sum / float64(len(nb))
}
