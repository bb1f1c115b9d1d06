package neighbors

import (
	"cmp"
	"math"
	"slices"
)

// candidate is an object offered to a query and its squared distance.
type candidate struct {
	id int
	d2 float64
}

// kBest collects a query's neighborhood as objects are offered to it in
// any order. Until best holds k entries it is unsorted and bound is +Inf;
// from then on best holds the k smallest squared distances seen, in
// ascending order, and bound is its last d2. ties holds every further
// object seen at exactly the bound. The bound only shrinks, and when it
// does every tie lies above it and is dropped; an object evicted from
// best that still equals the new bound becomes a tie.
// So once every object within the final bound has been offered, best plus
// ties is exactly the objects within the k-th smallest squared distance,
// ties at the k-distance included.
type kBest struct {
	k     int
	bound float64
	best  []candidate
	ties  []candidate
}

// reset empties the buffer for a query of the given k.
func (b *kBest) reset(k int) {
	b.k, b.bound = k, math.Inf(1)
	b.best, b.ties = b.best[:0], b.ties[:0]
}

// push offers an object; the caller has checked d2 <= b.bound. Until best
// fills, objects are appended unsorted, and the push that fills it sorts
// it once (sortByD2). A k near the object count (k-distance queries over
// a whole small dataset) thus costs O(k log k) comparisons to fill where
// shifting each object into place cost O(k²). Once full, the object is shifted
// into its place from the end, after best has evicted its last entry. A
// push thus moves up to k entries, where a max-heap would sift log k: on
// objects offered farthest first a query costs O(N·k). At the k of a
// density score (MinPts, 10 by default) the shift is cheaper than a
// binary search and a copy.
func (b *kBest) push(id int, d2 float64) {
	if len(b.best) < b.k {
		b.best = append(b.best, candidate{id: id, d2: d2})
		if len(b.best) == b.k {
			sortByD2(b.best)
			b.bound = b.best[b.k-1].d2
		}
		return
	}
	if d2 == b.bound {
		b.ties = append(b.ties, candidate{id: id, d2: d2})
		return
	}
	evicted := b.best[b.k-1]
	i := b.k - 1
	for i > 0 && b.best[i-1].d2 > d2 {
		b.best[i] = b.best[i-1]
		i--
	}
	b.best[i] = candidate{id: id, d2: d2}
	if bound := b.best[b.k-1].d2; bound < b.bound {
		b.bound, b.ties = bound, b.ties[:0]
	} else {
		b.ties = append(b.ties, evicted)
	}
}

// insertionSortMax is the largest buffer sortByD2 sorts by insertion,
// whose inlined comparisons made a query's pushes at k = 10 about 15%
// faster than slices.SortStableFunc's calls through a comparison
// function. It matches rankSortMax: a larger buffer means a large k,
// where insertion's O(k²) shifts are what the fill sort avoids.
const insertionSortMax = 16

// sortByD2 sorts c by ascending d2, stably: equal distances keep their
// offer order, as when each object was shifted into place on arrival.
func sortByD2(c []candidate) {
	if len(c) > insertionSortMax {
		slices.SortStableFunc(c, func(x, y candidate) int { return cmp.Compare(x.d2, y.d2) })
		return
	}
	for j := 1; j < len(c); j++ {
		x, i := c[j], j
		for i > 0 && c[i-1].d2 > x.d2 {
			c[i] = c[i-1]
			i--
		}
		c[i] = x
	}
}

// rankSortMax is the largest neighborhood that neighbors places in id
// order by counting each object's rank: n² comparisons, but free of the
// mispredicted branches of a comparison sort, which at the default k = 10
// made fit-large about 3% faster end to end (docs/performance.md). A
// larger one (a large k, or an object among many exact duplicates) is
// sorted in O(n log n).
const rankSortMax = 16

// neighbors writes the collected neighborhood to out in ascending id
// order and returns it with the k-distance.
func (b *kBest) neighbors(out []Neighbor) ([]Neighbor, float64) {
	// The ties go into best's spare capacity, which is kept for the next
	// query if the append had to grow it.
	all := append(b.best, b.ties...)
	b.best = all[:len(b.best)]
	nb := out[:0]
	if len(all) > rankSortMax {
		for _, c := range all {
			nb = append(nb, Neighbor{ID: c.id, Dist: math.Sqrt(c.d2)})
		}
		slices.SortFunc(nb, func(a, b Neighbor) int { return a.ID - b.ID })
		return nb, math.Sqrt(b.bound)
	}
	nb = append(nb, make([]Neighbor, len(all))...)
	for _, c := range all {
		rank := 0
		for _, o := range all {
			if o.id < c.id {
				rank++
			}
		}
		nb[rank] = Neighbor{ID: c.id, Dist: math.Sqrt(c.d2)}
	}
	return nb, math.Sqrt(b.bound)
}
