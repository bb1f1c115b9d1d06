package neighbors

import (
	"context"
	"fmt"
	"math"
)

// Brute is the linear-scan backend: every query computes all N distances
// column by column (cache-friendly over the columnar dataset layout) and
// cuts them at the k-th smallest via quickselect.
type Brute struct {
	cols [][]float64
	n    int
}

// N implements Index.
func (b *Brute) N() int { return b.n }

// Kind implements Index.
func (b *Brute) Kind() Kind { return KindBrute }

// Dist implements Index.
func (b *Brute) Dist(i, j int) float64 { return dist(b.cols, i, j) }

// NewScratch implements Index.
func (b *Brute) NewScratch() *Scratch {
	return &Scratch{
		dists: make([]float64, b.n),
		sel:   make([]float64, 0, b.n),
		qv:    make([]float64, 0, len(b.cols)),
	}
}

// KNN implements Index.
func (b *Brute) KNN(q, k int, sc *Scratch, out []Neighbor) ([]Neighbor, float64) {
	if k >= b.n {
		k = b.n - 1
	}
	if k <= 0 {
		return out[:0], 0
	}
	qv := sc.qv[:0]
	for _, col := range b.cols {
		qv = append(qv, col[q])
	}
	sc.qv = qv
	return b.scan(q, k, sc, out)
}

// KNNPoint implements Index.
func (b *Brute) KNNPoint(q []float64, k int, sc *Scratch, out []Neighbor) ([]Neighbor, float64) {
	if len(q) != len(b.cols) {
		panic(fmt.Sprintf("neighbors: query point has %d coordinates, index has %d", len(q), len(b.cols)))
	}
	if k > b.n {
		k = b.n
	}
	if k <= 0 {
		return out[:0], 0
	}
	sc.qv = append(sc.qv[:0], q...)
	return b.scan(-1, k, sc, out)
}

// scan answers the query point held in sc.qv, skipping object exclude
// (-1 for out-of-sample point queries): all squared distances accumulated
// per column, cut at the k-th smallest via quickselect.
func (b *Brute) scan(exclude, k int, sc *Scratch, out []Neighbor) ([]Neighbor, float64) {
	dists := sc.dists
	for i := range dists {
		dists[i] = 0
	}
	for c, col := range b.cols {
		cq := sc.qv[c]
		for i, v := range col {
			d := v - cq
			dists[i] += d * d
		}
	}
	if exclude >= 0 {
		dists[exclude] = math.Inf(1) // the query itself is not a neighbor
	}

	// k-th smallest squared distance via quickselect on a copy.
	sel := append(sc.sel[:0], dists...)
	kth := quickselect(sel, k-1)

	neighbors := out[:0]
	for i, d := range dists {
		if d <= kth && i != exclude {
			neighbors = append(neighbors, Neighbor{ID: i, Dist: math.Sqrt(d)})
		}
	}
	return neighbors, math.Sqrt(kth)
}

// KNNAllContext implements Index.
func (b *Brute) KNNAllContext(ctx context.Context, k, workers int) ([][]Neighbor, []float64, error) {
	return knnAll(ctx, b, k, workers)
}

// quickselect returns the k-th smallest element (0-based) of xs,
// partially reordering xs in place. Median-of-three pivoting keeps the
// expected cost linear even on sorted inputs.
func quickselect(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		p := partition(xs, lo, hi)
		switch {
		case k == p:
			return xs[k]
		case k < p:
			hi = p - 1
		default:
			lo = p + 1
		}
	}
	return xs[k]
}

func partition(xs []float64, lo, hi int) int {
	mid := lo + (hi-lo)/2
	// Median-of-three: order xs[lo], xs[mid], xs[hi].
	if xs[mid] < xs[lo] {
		xs[mid], xs[lo] = xs[lo], xs[mid]
	}
	if xs[hi] < xs[lo] {
		xs[hi], xs[lo] = xs[lo], xs[hi]
	}
	if xs[hi] < xs[mid] {
		xs[hi], xs[mid] = xs[mid], xs[hi]
	}
	pivot := xs[mid]
	xs[mid], xs[hi-1] = xs[hi-1], xs[mid]
	i := lo
	for j := lo; j < hi-1; j++ {
		if xs[j] < pivot {
			xs[i], xs[j] = xs[j], xs[i]
			i++
		}
	}
	xs[i], xs[hi-1] = xs[hi-1], xs[i]
	return i
}
