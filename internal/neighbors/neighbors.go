// Package neighbors is the neighbor-index subsystem behind the ranking
// step's density scorers (LOF, average-kNN-distance, ORCA).
//
// It answers exact k-nearest-neighbor queries under the Euclidean metric
// restricted to an arbitrary subspace projection, through a unified Index
// interface with two interchangeable backends:
//
//   - Brute: the O(N·|S|) linear scan, streaming every distance through
//     the same k-best buffer as the tree — optimal below AutoMinN = 64
//     objects and on subspaces of more than AutoMaxDim = 10 dimensions,
//     where space partitioning degenerates to a linear scan anyway.
//   - KDTree: a median-split k-d tree with bucketed leaves — sub-linear
//     queries in the low-dimensional subspaces the HiCS search actually
//     selects, turning the O(N²) ranking hot path into O(N log N) in
//     practice. Each query is a single depth-first pass, nearer side
//     first, that allocates nothing once its Scratch is warm. Large trees
//     are built on several goroutines: the top levels are split serially,
//     then the disjoint subtrees below them concurrently, which yields
//     the same tree as a serial build.
//
// The two backends are bit-for-bit equivalent: they accumulate squared
// distances column by column in subspace order and collect them in the
// same k-best buffer, so every distance, k-distance and neighborhood they
// report is the identical float64. The k-d tree's plane pruning is safe
// under floating point because a computed full squared distance is a sum
// of non-negative rounded terms and therefore never less than its
// computed split-axis term; its single pass prunes against a bound that
// never drops below the final k-distance, so ties at the k-distance are
// never lost.
//
// The fit-time all-kNN pass (every object's own k-neighborhood) goes
// through one driver, ForEachKNN, which streams each answer to a callback
// instead of keeping it. On a KDTree it answers the queries in leaf order,
// so consecutive queries are spatial neighbors that walk the same, already
// cached tree path. Neighborhoods.Fill is the driver's materializing
// consumer: all neighborhoods in one n·k slab, reusable across fits, and
// KNNAllContext is Fill into fresh storage.
//
// KindAuto picks the backend per (N, |S|), with thresholds measured by
// BenchmarkAutoCrossover — callers that do not care get the fast path
// automatically, and callers that must preserve the paper's quadratic
// ranking-step complexity (the shape its runtime figures Fig. 5 and
// Fig. 6 are calibrated against) can pin KindBrute. Note that batch
// queries (ForEachKNN, KNNAllContext) are parallelized across CPUs on
// every backend, so absolute wall-clock scales with the core count either
// way.
package neighbors

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"hics/internal/dataset"
	"hics/internal/parallel"
)

// Neighbor is one query result: an object id and its distance to the query.
type Neighbor struct {
	ID   int
	Dist float64
}

// Kind selects the index backend.
type Kind int

const (
	// KindAuto selects KDTree for large, low-dimensional subspaces and
	// Brute otherwise.
	KindAuto Kind = iota
	// KindBrute pins the linear-scan backend.
	KindBrute
	// KindKDTree pins the k-d tree backend.
	KindKDTree
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindBrute:
		return "brute"
	case KindKDTree:
		return "kdtree"
	default:
		return "auto"
	}
}

// ParseKind parses a user-facing index name. The empty string means auto.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "", "auto":
		return KindAuto, nil
	case "brute", "bruteforce", "linear":
		return KindBrute, nil
	case "kdtree", "kd-tree", "kd":
		return KindKDTree, nil
	}
	return KindAuto, fmt.Errorf("neighbors: unknown index kind %q (want auto, kdtree or brute)", s)
}

// Auto-selection thresholds: below AutoMinN the scan costs no more than
// the tree, and above AutoMaxDim the tree visits nearly every node anyway
// (curse of dimensionality). BenchmarkAutoCrossover sets AutoMinN: from
// N = 64 the tree's build plus all-kNN pass and its point queries are
// faster than the scan's on 2 and 4 dimensions and within about 7% on 8,
// while at N = 32 the scan is as fast or faster.
const (
	AutoMinN   = 64
	AutoMaxDim = 10
)

// Index answers exact kNN queries on a fixed dataset and subspace.
// The index structure is immutable after construction; concurrent queries
// are safe as long as each goroutine uses its own Scratch.
type Index interface {
	// N returns the number of indexed objects.
	N() int
	// Kind reports the concrete backend (never KindAuto).
	Kind() Kind
	// NewScratch allocates per-goroutine query buffers.
	NewScratch() *Scratch
	// Dist returns the Euclidean distance between objects i and j in the
	// index's subspace.
	Dist(i, j int) float64
	// KNN returns the LOF-style k-neighborhood of object q: the k-distance
	// (distance to the k-th nearest distinct object, excluding q itself)
	// and every object within that distance. Because of ties the result may
	// contain more than k neighbors, matching the original LOF definition.
	// Neighbors are returned in ascending object-id order (deterministic).
	// k is clamped to N−1; k ≤ 0 yields an empty neighborhood.
	KNN(q, k int, sc *Scratch, out []Neighbor) (neighbors []Neighbor, kdist float64)
	// KNNPoint answers the same query for an out-of-sample point q, given
	// as one coordinate per subspace column (len(q) must equal the number
	// of indexed dimensions). No object is excluded — a query coinciding
	// with an indexed object reports that object at distance zero. As with
	// KNN, ties may yield more than k neighbors, results are in ascending
	// object-id order, and all backends are bit-for-bit equivalent.
	// k is clamped to N; k ≤ 0 yields an empty neighborhood.
	KNNPoint(q []float64, k int, sc *Scratch, out []Neighbor) (neighbors []Neighbor, kdist float64)
	// KNNAllContext answers KNN for every object through ForEachKNN:
	// nbs[q] and kdists[q] are what KNN(q, k, ...) would return. The
	// neighborhoods share one n·k slab; each row's capacity is its length,
	// so appending to a row never overwrites the next one. A cancelled ctx
	// stops the batch within one chunk of queries per worker and returns
	// ctx.Err(); workers <= 0 means one per CPU. Results are bit-for-bit
	// independent of the worker count.
	KNNAllContext(ctx context.Context, k, workers int) (nbs [][]Neighbor, kdists []float64, err error)
}

// Scratch holds per-goroutine query buffers, shared across backends so an
// adapter can pass one scratch to whichever Index it was configured with.
// Neither backend's scratch grows with N.
type Scratch struct {
	qv  []float64 // query point, one value per subspace column
	knn kBest     // the k nearest objects offered so far, and ties at the k-th
}

// scratchK is the neighborhood size a new Scratch holds without growing.
const scratchK = 32

func newScratch(dims int) *Scratch {
	return &Scratch{
		qv:  make([]float64, 0, dims),
		knn: kBest{best: make([]candidate, 0, scratchK), ties: make([]candidate, 0, scratchK)},
	}
}

// New builds an index over the given subspace dimensions of ds. KindAuto
// resolves to KindKDTree when the subspace has at most AutoMaxDim
// dimensions and the dataset at least AutoMinN objects, else KindBrute.
// A k-d tree is built with one worker per CPU. A dataset of more than
// math.MaxInt32 objects fails with ErrTooManyObjects.
func New(ds *dataset.Dataset, dims []int, kind Kind) (Index, error) {
	return NewWorkers(ds, dims, kind, 0)
}

// NewWorkers is New with a bound on the goroutines that build a k-d tree
// (workers <= 0 means one per CPU, 1 builds on the calling goroutine).
// The index is identical for every worker count.
func NewWorkers(ds *dataset.Dataset, dims []int, kind Kind, workers int) (Index, error) {
	n := ds.N()
	if err := checkSize(n); err != nil {
		return nil, err
	}
	cols, err := selectCols(ds, dims)
	if err != nil {
		return nil, err
	}
	if kind == KindAuto {
		if len(dims) <= AutoMaxDim && n >= AutoMinN {
			kind = KindKDTree
		} else {
			kind = KindBrute
		}
	}
	switch kind {
	case KindBrute:
		return &Brute{cols: cols, n: n}, nil
	case KindKDTree:
		return newKDTree(cols, n, workers), nil
	}
	return nil, fmt.Errorf("neighbors: invalid index kind %d", kind)
}

// ErrTooManyObjects is returned by New for a dataset with more objects
// than an int32 can number: the k-d tree stores its id permutation as
// []int32.
var ErrTooManyObjects = errors.New("neighbors: more objects than an int32 id can number")

// checkSize is New's object-count check.
func checkSize(n int) error {
	if int64(n) > math.MaxInt32 {
		return fmt.Errorf("%w: have %d, at most %d", ErrTooManyObjects, n, math.MaxInt32)
	}
	return nil
}

func selectCols(ds *dataset.Dataset, dims []int) ([][]float64, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("neighbors: empty subspace")
	}
	cols := make([][]float64, len(dims))
	for k, d := range dims {
		if d < 0 || d >= ds.D() {
			return nil, fmt.Errorf("neighbors: dimension %d out of range [0,%d)", d, ds.D())
		}
		cols[k] = ds.Col(d)
	}
	return cols, nil
}

// dist is the shared exact distance: squared differences accumulated in
// subspace column order, so both backends produce identical float64 values.
// Every such sum rounds each square before adding it (the float64
// conversion forbids a fused multiply-add), as the query kernels do.
func dist(cols [][]float64, i, j int) float64 {
	sum := 0.0
	for _, col := range cols {
		d := col[i] - col[j]
		sum += float64(d * d)
	}
	return math.Sqrt(sum)
}

// ForEachKNN answers KNN(q, k) for every object q of ix and hands the
// answer to fn(q, nb, kdist). The queries fan out over the shared parallel
// primitive, bounded by workers (<= 0 means one per CPU), so fn runs
// concurrently for distinct q and must not keep nb: the slice is the
// worker's reusable buffer. A cancelled ctx stops the pass within one
// chunk of queries per worker and returns ctx.Err().
//
// A KDTree's queries run in leaf order (the order of its id permutation),
// so consecutive queries are spatial neighbors that walk the same, already
// cached tree path and read nearby coordinates. Brute keeps id order. The
// order never changes an answer: each query is independent.
func ForEachKNN(ctx context.Context, ix Index, k, workers int, fn func(q int, nb []Neighbor, kdist float64)) error {
	n := ix.N()
	var order []int32
	if t, ok := ix.(*KDTree); ok {
		order = t.ids
	}
	workers = parallel.WorkerCount(workers, n)
	type state struct {
		sc  *Scratch
		buf []Neighbor
	}
	states := make([]*state, workers) // one allocation each: no false sharing
	// A single KNN query is already O(N) on the brute backend, so claim
	// work in small chunks: the atomic claim counter stays cold while a
	// cancellation is observed within a few queries instead of n/4.
	const chunk = 8
	return parallel.ForEach(ctx, n, workers, chunk, func(w, i int) error {
		st := states[w]
		if st == nil {
			st = &state{sc: ix.NewScratch()}
			states[w] = st
		}
		q := i
		if order != nil {
			q = int(order[i])
		}
		nb, kd := ix.KNN(q, k, st.sc, st.buf)
		fn(q, nb, kd)
		st.buf = nb[:0]
		return nil
	})
}

// knnAll is KNNAllContext: ForEachKNN materialized into fresh storage.
func knnAll(ctx context.Context, ix Index, k, workers int) ([][]Neighbor, []float64, error) {
	var h Neighborhoods
	kdists := make([]float64, ix.N())
	if err := h.Fill(ctx, ix, k, workers, kdists); err != nil {
		return nil, nil, err
	}
	return h.Rows, kdists, nil
}

// Neighborhoods holds the k-neighborhood of every object of an index in
// one n·k slab, which a later Fill of no larger a shape reuses, so a
// caller that keeps a Neighborhoods (in a sync.Pool, say) materializes
// fit after fit without allocating.
type Neighborhoods struct {
	// Rows[q] is object q's neighborhood, as KNN(q, k, ...) returns it.
	// Each row's capacity is its length, so appending to a row never
	// overwrites the next one. Rows is valid until the next Fill.
	Rows [][]Neighbor
	slab []Neighbor
}

// Fill answers KNN for every object of ix through ForEachKNN (same
// workers and cancellation), storing neighborhood q as h.Rows[q] and its
// k-distance as kdists[q]. Row q is slab[q*k : q*k+len(nb)]; only a row
// extended past k by ties at the k-distance gets its own slice.
func (h *Neighborhoods) Fill(ctx context.Context, ix Index, k, workers int, kdists []float64) error {
	n := ix.N()
	k = max(min(k, n-1), 0) // KNN's own clamp: a row exceeds k only by ties
	h.Rows = slices.Grow(h.Rows[:0], n)[:n]
	h.slab = slices.Grow(h.slab[:0], n*k)[:n*k]
	return ForEachKNN(ctx, ix, k, workers, func(q int, nb []Neighbor, kd float64) {
		kdists[q] = kd
		if len(nb) > k {
			h.Rows[q] = append([]Neighbor(nil), nb...)
			return
		}
		lo, hi := q*k, q*k+len(nb)
		h.Rows[q] = h.slab[lo:hi:hi]
		copy(h.Rows[q], nb)
	})
}
