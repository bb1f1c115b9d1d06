package neighbors

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"hics/internal/parallel"
)

// KDTree is the space-partitioning backend: a median-split k-d tree stored
// implicitly in a permutation of the object ids (the node of segment
// [lo,hi) sits at its midpoint, children are the two half-segments), so
// the whole structure is one []int with zero per-node allocation.
// Segments of at most leafSize ids are leaves, scanned linearly.
// Coordinates are read from the shared dataset columns, never copied.
//
// A query is one best-first descent that keeps the k smallest squared
// distances seen in a max-heap (the bound) and lists every visited object
// within the current bound. The bound only shrinks, so it never drops
// below the final k-th smallest squared distance tau; the list filtered
// to d2 ≤ tau is the neighborhood, ties at tau included. A subtree is
// pruned only when the squared split-plane offset strictly exceeds the
// bound, which under floating point can never discard an object within
// it (a computed full squared distance is a sum of non-negative rounded
// terms, hence at least its split-axis term).
type KDTree struct {
	cols [][]float64
	n    int
	ids  []int
}

// leafSize is the segment length below which the build stops splitting.
// Scanning a few ids beats a plane test and recursion per object; sizes
// from 6 to 24 measure the same.
const leafSize = 12

// parallelBuildMin is the smallest subtree the build hands to a goroutine
// of its own; below it the goroutine costs more than it saves.
const parallelBuildMin = 4096

// segment is a subtree under construction: ids[lo:hi) at the given depth.
type segment struct{ lo, hi, depth int }

// newKDTree builds the tree on up to workers goroutines (<= 0 means one
// per CPU). It median-splits the top levels serially until there are at
// least as many disjoint subtrees as workers, each of at least about
// parallelBuildMin ids, then builds those subtrees concurrently. Each
// nthElement call reads and reorders only its own segment, so the
// resulting permutation, and hence the tree, is the serial build's.
func newKDTree(cols [][]float64, n, workers int) *KDTree {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	t := &KDTree{cols: cols, n: n, ids: ids}
	workers = parallel.WorkerCount(workers, n)
	segs := []segment{{0, n, 0}}
	for len(segs) < workers && n/len(segs) >= 2*parallelBuildMin {
		next := make([]segment, 0, 2*len(segs))
		for _, s := range segs {
			mid := t.split(s)
			next = append(next, segment{s.lo, mid, s.depth + 1}, segment{mid + 1, s.hi, s.depth + 1})
		}
		segs = next
	}
	if len(segs) == 1 {
		t.buildRange(0, n, 0)
		return t
	}
	_ = parallel.ForEach(context.Background(), len(segs), workers, 1, func(_, i int) error {
		t.buildRange(segs[i].lo, segs[i].hi, segs[i].depth)
		return nil
	})
	return t
}

// split places the median of segment s (by its depth's axis) at the
// segment's midpoint, with the lower half before it, and returns the
// midpoint.
func (t *KDTree) split(s segment) int {
	mid := (s.lo + s.hi) / 2
	nthElement(t.ids, s.lo, s.hi, mid, t.cols[s.depth%len(t.cols)])
	return mid
}

// buildRange recursively median-splits ids[lo:hi) on the depth-cycled axis.
func (t *KDTree) buildRange(lo, hi, depth int) {
	if hi-lo <= leafSize {
		return
	}
	mid := t.split(segment{lo, hi, depth})
	next := depth + 1
	t.buildRange(lo, mid, next)
	t.buildRange(mid+1, hi, next)
}

// N implements Index.
func (t *KDTree) N() int { return t.n }

// Kind implements Index.
func (t *KDTree) Kind() Kind { return KindKDTree }

// Dist implements Index.
func (t *KDTree) Dist(i, j int) float64 { return dist(t.cols, i, j) }

// NewScratch implements Index.
func (t *KDTree) NewScratch() *Scratch {
	return &Scratch{
		qv:    make([]float64, 0, len(t.cols)),
		bound: make([]float64, 0, 32),
	}
}

// KNN implements Index.
func (t *KDTree) KNN(q, k int, sc *Scratch, out []Neighbor) ([]Neighbor, float64) {
	if k >= t.n {
		k = t.n - 1
	}
	if k <= 0 {
		return out[:0], 0
	}
	qv := sc.qv[:0]
	for _, col := range t.cols {
		qv = append(qv, col[q])
	}
	sc.qv = qv
	return t.knnQuery(q, k, sc, out)
}

// KNNPoint implements Index.
func (t *KDTree) KNNPoint(q []float64, k int, sc *Scratch, out []Neighbor) ([]Neighbor, float64) {
	if len(q) != len(t.cols) {
		panic(fmt.Sprintf("neighbors: query point has %d coordinates, index has %d", len(q), len(t.cols)))
	}
	if k > t.n {
		k = t.n
	}
	if k <= 0 {
		return out[:0], 0
	}
	sc.qv = append(sc.qv[:0], q...)
	return t.knnQuery(-1, k, sc, out)
}

// knnQuery answers the query point held in sc.qv, skipping object exclude
// (-1 for out-of-sample point queries, where no indexed object is the
// query itself).
func (t *KDTree) knnQuery(exclude, k int, sc *Scratch, out []Neighbor) ([]Neighbor, float64) {
	sc.bound, sc.cand = sc.bound[:0], sc.cand[:0]
	t.search(0, t.n, 0, exclude, k, sc)
	tau := sc.bound[0] // k-th smallest squared distance
	cand := sc.cand[:0]
	for _, c := range sc.cand {
		if c.d2 <= tau {
			cand = append(cand, c)
		}
	}
	slices.SortFunc(cand, func(a, b candidate) int { return cmp.Compare(a.id, b.id) })
	neighbors := out[:0]
	for _, c := range cand {
		neighbors = append(neighbors, Neighbor{ID: c.id, Dist: math.Sqrt(c.d2)})
	}
	return neighbors, math.Sqrt(tau)
}

// KNNAllContext implements Index.
func (t *KDTree) KNNAllContext(ctx context.Context, k, workers int) ([][]Neighbor, []float64, error) {
	return knnAll(ctx, t, k, workers)
}

// search visits the objects of ids[lo:hi) other than exclude, nearer
// subtree first, pruning a far subtree once the bound is full and closer
// than its split plane.
func (t *KDTree) search(lo, hi, depth, exclude, k int, sc *Scratch) {
	if hi-lo <= leafSize {
		t.scan(t.ids[lo:hi], exclude, k, sc)
		return
	}
	mid := (lo + hi) / 2
	axis := depth % len(t.cols)
	diff := sc.qv[axis] - t.cols[axis][t.ids[mid]]
	nearLo, nearHi, farLo, farHi := mid+1, hi, lo, mid
	if diff < 0 {
		nearLo, nearHi, farLo, farHi = lo, mid, mid+1, hi
	}
	t.search(nearLo, nearHi, depth+1, exclude, k, sc)
	t.scan(t.ids[mid:mid+1], exclude, k, sc)
	if len(sc.bound) < k || diff*diff <= sc.bound[0] {
		t.search(farLo, farHi, depth+1, exclude, k, sc)
	}
}

// scan offers each object of ids (except exclude) to the bound heap and
// lists it when it is within the bound or the heap is not yet full. The
// squared distance is accumulated in subspace column order exactly like
// the brute backend.
func (t *KDTree) scan(ids []int, exclude, k int, sc *Scratch) {
	for _, id := range ids {
		if id == exclude {
			continue
		}
		d2 := 0.0
		for c, col := range t.cols {
			d := col[id] - sc.qv[c]
			d2 += d * d
		}
		if len(sc.bound) < k || d2 <= sc.bound[0] {
			sc.cand = append(sc.cand, candidate{id: id, d2: d2})
			sc.bound = boundPush(sc.bound, k, d2)
		}
	}
}

// boundPush maintains h as a max-heap of the k smallest values seen.
func boundPush(h []float64, k int, d2 float64) []float64 {
	if len(h) < k {
		h = append(h, d2)
		i := len(h) - 1
		for i > 0 {
			p := (i - 1) / 2
			if h[p] >= h[i] {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
		return h
	}
	if d2 >= h[0] {
		return h
	}
	h[0] = d2
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(h) && h[l] > h[big] {
			big = l
		}
		if r < len(h) && h[r] > h[big] {
			big = r
		}
		if big == i {
			break
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
	return h
}

// nthElement partially sorts ids[lo:hi) so that position k holds the
// element it would hold after a full sort by (col value, id). The id
// tie-break makes all keys distinct, keeping quickselect linear on
// constant columns (where ids arrive pre-sorted and median-of-three
// pivoting behaves).
func nthElement(ids []int, lo, hi, k int, col []float64) {
	hi--
	for lo < hi {
		p := partitionIDs(ids, lo, hi, col)
		switch {
		case k == p:
			return
		case k < p:
			hi = p - 1
		default:
			lo = p + 1
		}
	}
}

// idLess orders object ids by column value, ties by id.
func idLess(col []float64, a, b int) bool {
	if col[a] != col[b] {
		return col[a] < col[b]
	}
	return a < b
}

func partitionIDs(ids []int, lo, hi int, col []float64) int {
	mid := lo + (hi-lo)/2
	// Median-of-three: order ids[lo], ids[mid], ids[hi].
	if idLess(col, ids[mid], ids[lo]) {
		ids[mid], ids[lo] = ids[lo], ids[mid]
	}
	if idLess(col, ids[hi], ids[lo]) {
		ids[hi], ids[lo] = ids[lo], ids[hi]
	}
	if idLess(col, ids[hi], ids[mid]) {
		ids[hi], ids[mid] = ids[mid], ids[hi]
	}
	pivot := ids[mid]
	ids[mid], ids[hi-1] = ids[hi-1], ids[mid]
	i := lo
	for j := lo; j < hi-1; j++ {
		if idLess(col, ids[j], pivot) {
			ids[i], ids[j] = ids[j], ids[i]
			i++
		}
	}
	ids[i], ids[hi-1] = ids[hi-1], ids[i]
	return i
}
