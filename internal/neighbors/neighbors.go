// Package neighbors is the neighbor-index subsystem behind the ranking
// step's density scorers (LOF, average-kNN-distance, ORCA).
//
// It answers exact k-nearest-neighbor queries under the Euclidean metric
// restricted to an arbitrary subspace projection, through a unified Index
// interface with two interchangeable backends:
//
//   - Brute: the O(N·|S|) linear scan with a quickselect cutoff — optimal
//     for small N and for high-dimensional subspaces, where space
//     partitioning degenerates to a linear scan anyway.
//   - KDTree: a median-split k-d tree with bucketed leaves — sub-linear
//     queries in the low-dimensional subspaces the HiCS search actually
//     selects, turning the O(N²) ranking hot path into O(N log N) in
//     practice. Each query is a single best-first pass that allocates
//     nothing once its Scratch is warm.
//
// The two backends are bit-for-bit equivalent: they accumulate
// squared distances column by column in subspace order, so every distance,
// k-distance and neighborhood they report is the identical float64. The
// k-d tree's plane pruning is safe under floating point because a computed
// full squared distance is a sum of non-negative rounded terms and
// therefore never less than its computed split-axis term; its single pass
// prunes against a bound that never drops below the final k-distance, so
// ties at the k-distance are never lost.
//
// KindAuto picks the backend per (N, |S|) — callers that do not care get
// the fast path automatically, and callers that must preserve the paper's
// quadratic ranking-step complexity (the shape its runtime figures Fig. 5
// and Fig. 6 are calibrated against) can pin KindBrute. Note that batch
// queries (KNNAll) are parallelized across CPUs on every backend, so
// absolute wall-clock scales with the core count either way.
package neighbors

import (
	"context"
	"fmt"
	"math"

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

// Auto-selection thresholds: below AutoMinN the scan's cache behaviour wins
// outright, and above AutoMaxDim the tree visits nearly every node anyway
// (curse of dimensionality).
const (
	AutoMinN   = 256
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
	// KNNAll answers KNN for every object, parallelized over the CPUs.
	// nbs[q] and kdists[q] are what KNN(q, k, ...) would return.
	KNNAll(k int) (nbs [][]Neighbor, kdists []float64)
	// KNNAllContext is KNNAll with cooperative cancellation and a bound
	// on the fan-out (workers <= 0 means one per CPU): a cancelled ctx
	// stops the batch within one chunk of queries per worker and returns
	// ctx.Err(). Results are bit-for-bit independent of the worker count.
	KNNAllContext(ctx context.Context, k, workers int) (nbs [][]Neighbor, kdists []float64, err error)
}

// Scratch holds per-goroutine query buffers, shared across backends so an
// adapter can pass one scratch to whichever Index it was configured with.
type Scratch struct {
	dists []float64   // brute: all squared distances from the query
	sel   []float64   // brute: quickselect working copy
	qv    []float64   // query point, one value per subspace column
	bound []float64   // kdtree: max-heap of the k smallest squared distances
	cand  []candidate // kdtree: candidate objects and their squared distances
}

type candidate struct {
	id int
	d2 float64
}

// New builds an index over the given subspace dimensions of ds. KindAuto
// resolves to KindKDTree when the subspace has at most AutoMaxDim
// dimensions and the dataset at least AutoMinN objects, else KindBrute.
func New(ds *dataset.Dataset, dims []int, kind Kind) (Index, error) {
	cols, err := selectCols(ds, dims)
	if err != nil {
		return nil, err
	}
	n := ds.N()
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
		return newKDTree(cols, n), nil
	}
	return nil, fmt.Errorf("neighbors: invalid index kind %d", kind)
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
func dist(cols [][]float64, i, j int) float64 {
	sum := 0.0
	for _, col := range cols {
		d := col[i] - col[j]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// knnAll fans KNN queries for all objects out over the shared parallel
// primitive, bounded by the given worker count (<= 0 means one per CPU)
// and observing ctx between chunks. Each worker owns a scratch and a
// reusable neighbor buffer; results are written to disjoint slots, so no
// locking. Results are bit-for-bit independent of the worker count.
func knnAll(ctx context.Context, ix Index, k, workers int) ([][]Neighbor, []float64, error) {
	n := ix.N()
	nbs := make([][]Neighbor, n)
	kdists := make([]float64, n)
	workers = parallel.WorkerCount(workers, n)
	type state struct {
		sc  *Scratch
		buf []Neighbor
	}
	states := make([]*state, workers)
	// A single KNN query is already O(N) on the brute backend, so claim
	// work in small chunks: the atomic claim counter stays cold while a
	// cancellation is observed within a few queries instead of n/4.
	const chunk = 8
	err := parallel.ForEach(ctx, n, workers, chunk, func(w, q int) error {
		st := states[w]
		if st == nil {
			st = &state{sc: ix.NewScratch()}
			states[w] = st
		}
		nb, kd := ix.KNN(q, k, st.sc, st.buf)
		nbs[q] = append([]Neighbor(nil), nb...)
		kdists[q] = kd
		st.buf = nb[:0]
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return nbs, kdists, nil
}
