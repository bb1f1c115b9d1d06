package neighbors

import (
	"context"
	"fmt"
)

// Brute is the linear-scan backend: every query computes all N distances
// in id order, each accumulated column by column, and offers those within
// the bound to the k-best buffer.
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
func (b *Brute) NewScratch() *Scratch { return newScratch(len(b.cols)) }

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
// (-1 for out-of-sample point queries). Squared distances are summed in
// subspace column order, as KDTree.scan sums them.
func (b *Brute) scan(exclude, k int, sc *Scratch, out []Neighbor) ([]Neighbor, float64) {
	kb, qv := &sc.knn, sc.qv
	kb.reset(k)
	bound := kb.bound
	switch len(b.cols) {
	case 2:
		c0, q0, q1 := b.cols[0], qv[0], qv[1]
		c1 := b.cols[1][:len(c0)]
		for id, v := range c0 {
			d0, d1 := v-q0, c1[id]-q1
			if d2 := float64(d0*d0) + float64(d1*d1); d2 <= bound && id != exclude {
				kb.push(id, d2)
				bound = kb.bound
			}
		}
	case 3:
		c0, q0, q1, q2 := b.cols[0], qv[0], qv[1], qv[2]
		c1, c2 := b.cols[1][:len(c0)], b.cols[2][:len(c0)]
		for id, v := range c0 {
			d0, d1, e := v-q0, c1[id]-q1, c2[id]-q2
			if d2 := float64(d0*d0) + float64(d1*d1) + float64(e*e); d2 <= bound && id != exclude {
				kb.push(id, d2)
				bound = kb.bound
			}
		}
	default:
		for id := 0; id < b.n; id++ {
			if id == exclude {
				continue
			}
			d2 := 0.0
			for c, col := range b.cols {
				d := col[id] - qv[c]
				d2 += float64(d * d)
			}
			if d2 <= bound {
				kb.push(id, d2)
				bound = kb.bound
			}
		}
	}
	return kb.neighbors(out)
}

// KNNAllContext implements Index.
func (b *Brute) KNNAllContext(ctx context.Context, k, workers int) ([][]Neighbor, []float64, error) {
	return knnAll(ctx, b, k, workers)
}
