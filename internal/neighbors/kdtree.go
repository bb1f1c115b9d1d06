package neighbors

import (
	"context"
	"fmt"
	"slices"

	"hics/internal/parallel"
)

// KDTree is the space-partitioning backend: a median-split k-d tree stored
// implicitly in a permutation of the object ids (the node of segment
// [lo,hi) sits at its midpoint, children are the two half-segments), so
// the tree's shape is one []int32 with zero per-node allocation: four
// bytes per object, which New's size check keeps sufficient. Segments of
// at most leafSize ids are leaves, scanned linearly in id order.
// Coordinates are read from the shared dataset columns, never copied;
// only each internal node's split value is kept a second time, in one
// heap-numbered array the descent reads instead of chasing the median's
// id into its column.
//
// A query is one depth-first descent, nearer side of each split first,
// that offers every visited object within the current bound to a k-best
// buffer (see kBest): the k smallest squared distances seen plus the
// objects tied at the k-th. The bound only shrinks, so it never drops
// below the final k-th smallest squared distance tau, and the buffer ends
// holding exactly the objects within tau. A far subtree is pruned only
// when the squared plane offset strictly exceeds the bound, which under
// floating point can never discard an object within it (a computed full
// squared distance is a sum of non-negative rounded terms, hence at least
// its split-axis term).
type KDTree struct {
	cols   [][]float64
	n      int
	ids    []int32
	splits []float64 // split value of internal node i (root 1, children 2i and 2i+1)
}

// leafSize is the segment length below which the build stops splitting.
// Scanning a few ids beats a plane test and a descent step per object;
// sizes from 8 to 24 measure the same.
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
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
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
	} else {
		_ = parallel.ForEach(context.Background(), len(segs), workers, 1, func(_, i int) error {
			t.buildRange(segs[i].lo, segs[i].hi, segs[i].depth)
			return nil
		})
	}
	t.splits = make([]float64, lastInternal(0, n, 1)+1)
	t.setSplits(0, n, 0, 1)
	return t
}

// lastInternal returns the largest heap number of an internal node in the
// subtree of segment [lo,hi) numbered node, or 0 if it is a leaf.
func lastInternal(lo, hi, node int) int {
	if hi-lo <= leafSize {
		return 0
	}
	mid := (lo + hi) / 2
	return max(node, lastInternal(lo, mid, 2*node), lastInternal(mid+1, hi, 2*node+1))
}

// setSplits records the split value of every internal node in the
// subtree of segment [lo,hi) numbered node.
func (t *KDTree) setSplits(lo, hi, depth, node int) {
	if hi-lo <= leafSize {
		return
	}
	mid := (lo + hi) / 2
	t.splits[node] = t.cols[depth%len(t.cols)][t.ids[mid]]
	t.setSplits(lo, mid, depth+1, 2*node)
	t.setSplits(mid+1, hi, depth+1, 2*node+1)
}

// split places the median of segment s (by its depth's axis) at the
// segment's midpoint, with the lower half before it, and returns the
// midpoint.
func (t *KDTree) split(s segment) int {
	mid := (s.lo + s.hi) / 2
	nthElement(t.ids, s.lo, s.hi, mid, t.cols[s.depth%len(t.cols)])
	return mid
}

// buildRange recursively median-splits ids[lo:hi) on the depth-cycled
// axis and sorts each leaf's ids ascending, so a leaf is scanned in id
// order whatever order the partition left it in.
func (t *KDTree) buildRange(lo, hi, depth int) {
	if hi-lo <= leafSize {
		slices.Sort(t.ids[lo:hi])
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
func (t *KDTree) NewScratch() *Scratch { return newScratch(len(t.cols)) }

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
	sc.knn.reset(k)
	t.search(0, t.n, 0, 1, exclude, sc)
	return sc.knn.neighbors(out)
}

// KNNAllContext implements Index.
func (t *KDTree) KNNAllContext(ctx context.Context, k, workers int) ([][]Neighbor, []float64, error) {
	return knnAll(ctx, t, k, workers)
}

// search visits every object of segment [lo,hi), numbered node, other
// than exclude that may lie within the bound: the nearer side of the split
// first, then the median, then the far side unless its plane lies beyond
// the bound (which is +Inf until k objects have been seen).
func (t *KDTree) search(lo, hi, depth, node, exclude int, sc *Scratch) {
	if hi-lo <= leafSize {
		t.scan(t.ids[lo:hi], exclude, sc)
		return
	}
	mid := (lo + hi) / 2
	diff := sc.qv[depth%len(t.cols)] - t.splits[node]
	nearLo, nearHi, nearNode, farLo, farHi, farNode := mid+1, hi, 2*node+1, lo, mid, 2*node
	if diff < 0 {
		nearLo, nearHi, nearNode, farLo, farHi, farNode = lo, mid, 2*node, mid+1, hi, 2*node+1
	}
	t.search(nearLo, nearHi, depth+1, nearNode, exclude, sc)
	t.scan(t.ids[mid:mid+1], exclude, sc)
	if diff*diff <= sc.knn.bound {
		t.search(farLo, farHi, depth+1, farNode, exclude, sc)
	}
}

// scan offers each object of ids (except exclude) within the bound to the
// k-best buffer. The squared distance is accumulated in subspace column
// order exactly like the brute backend and dist; the two- and
// three-column loops spell that sum out (0 + x is x for x >= 0).
func (t *KDTree) scan(ids []int32, exclude int, sc *Scratch) {
	kb, qv := &sc.knn, sc.qv
	bound := kb.bound
	switch len(t.cols) {
	case 2:
		c0, c1, q0, q1 := t.cols[0], t.cols[1], qv[0], qv[1]
		for _, id32 := range ids {
			id := int(id32)
			d0, d1 := c0[id]-q0, c1[id]-q1
			if d2 := float64(d0*d0) + float64(d1*d1); d2 <= bound && id != exclude {
				kb.push(id, d2)
				bound = kb.bound
			}
		}
	case 3:
		c0, c1, c2, q0, q1, q2 := t.cols[0], t.cols[1], t.cols[2], qv[0], qv[1], qv[2]
		for _, id32 := range ids {
			id := int(id32)
			d0, d1, e := c0[id]-q0, c1[id]-q1, c2[id]-q2
			if d2 := float64(d0*d0) + float64(d1*d1) + float64(e*e); d2 <= bound && id != exclude {
				kb.push(id, d2)
				bound = kb.bound
			}
		}
	default:
		for _, id32 := range ids {
			id := int(id32)
			if id == exclude {
				continue
			}
			d2 := 0.0
			for c, col := range t.cols {
				d := col[id] - qv[c]
				d2 += float64(d * d)
			}
			if d2 <= bound {
				kb.push(id, d2)
				bound = kb.bound
			}
		}
	}
}

// nthElement partially sorts ids[lo:hi) so that position k holds the
// element it would hold after a full sort by (col value, id). The id
// tie-break makes all keys distinct, keeping quickselect linear on
// constant columns (where ids arrive pre-sorted and median-of-three
// pivoting behaves).
func nthElement(ids []int32, lo, hi, k int, col []float64) {
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
func idLess(col []float64, a, b int32) bool {
	if col[a] != col[b] {
		return col[a] < col[b]
	}
	return a < b
}

func partitionIDs(ids []int32, lo, hi int, col []float64) int {
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
	// The scan is idLess against the pivot with its value loaded once,
	// over a subslice the compiler can range without bounds checks. The
	// value comparison does not branch: every step swaps seg[i] and
	// seg[j] and advances i by the comparison as 0 or 1. When id is not
	// below the pivot, the swap trades it for seg[i], which is not below
	// the pivot either, so seg[:i] stays the lower part. Only a value tie
	// with the pivot branches, which on most columns is rare and on
	// constant ones always taken, so it predicts well; a branch on v < pv
	// mispredicts about half the time on unsorted data.
	pv := col[pivot]
	seg := ids[lo : hi-1]
	i := 0
	for j, id := range seg {
		v := col[id]
		seg[j] = seg[i]
		seg[i] = id
		below := v < pv
		if v == pv {
			below = id < pivot
		}
		i += b2i(below)
	}
	i += lo
	ids[i], ids[hi-1] = ids[hi-1], ids[i]
	return i
}

// b2i is 1 for true and 0 for false; the compiler emits it as a
// flag-setting instruction, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
