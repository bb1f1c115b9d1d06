// Package orca implements the randomized distance-based outlier miner of
// Bay & Schwabacher ("Mining distance-based outliers in near linear time
// with randomization and a simple pruning rule", KDD 2003), which the
// paper's future work names as the efficiency upgrade for the ranking
// step: "ORCA would improve the efficiency from a quadratic to a linear
// runtime in the outlier ranking step."
//
// ORCA scores an object by its average distance to its k nearest
// neighbors and reports the top-n outliers. Two execution paths feed that
// score from the internal/neighbors index subsystem:
//
//   - Brute backend: the classic randomized scan with the pruning rule —
//     while refining a candidate's k-NN set against the shuffled database,
//     the running average of the k nearest distances found so far is an
//     upper bound on the final score, and a candidate is abandoned as soon
//     as that bound drops below the weakest score in the current top-n.
//   - KD-tree backend: each candidate's exact k-NN set comes straight from
//     the spatial index, which replaces the pruning heuristic outright.
//
// Both paths sum the k nearest distances in ascending order, so their
// scores — and therefore the mined top-n — are bit-for-bit identical.
package orca

import (
	"context"
	"fmt"
	"sort"

	"hics/internal/dataset"
	"hics/internal/neighbors"
	"hics/internal/rng"
)

// Params configures the ORCA run. Zero values select k=10, n=30 and
// automatic neighbor-index selection.
type Params struct {
	// K is the neighborhood size of the distance score.
	K int
	// TopN is the number of outliers to mine.
	TopN int
	// Seed drives the randomized candidate and scan orders.
	Seed uint64
	// Index selects the neighbor-index backend. The brute backend runs the
	// classic pruned scan; the k-d tree backend answers each candidate's
	// k-NN query from the index.
	Index neighbors.Kind
}

func (p Params) withDefaults() Params {
	if p.K <= 0 {
		p.K = 10
	}
	if p.TopN <= 0 {
		p.TopN = 30
	}
	return p
}

// Outlier is one mined outlier with its average-kNN-distance score.
type Outlier struct {
	ID    int
	Score float64
}

// Stats reports the work ORCA performed, for the pruning-efficiency bench.
// The index-backed path performs no pairwise scan, so both counters stay
// zero there.
type Stats struct {
	// DistanceComputations counts evaluated object pairs.
	DistanceComputations int
	// Pruned counts candidates abandoned by the cutoff rule.
	Pruned int
}

// TopOutliers mines the TopN outliers of ds in the given subspace.
// Results are sorted by descending score.
func TopOutliers(ds *dataset.Dataset, dims []int, p Params) ([]Outlier, Stats, error) {
	p = p.withDefaults()
	idx, err := neighbors.New(ds, dims, p.Index)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("orca: %w", err)
	}
	n := ds.N()
	if n < 2 {
		return nil, Stats{}, fmt.Errorf("orca: need at least 2 objects, have %d", n)
	}
	k := p.K
	if k > n-1 {
		k = n - 1
	}
	topN := p.TopN
	if topN > n {
		topN = n
	}

	r := rng.New(p.Seed)
	candOrder := r.Perm(n)

	if idx.Kind() == neighbors.KindKDTree {
		return topOutliersIndexed(idx, candOrder, k, topN)
	}
	return topOutliersScan(idx, candOrder, r.Perm(n), k, topN)
}

// topOutliersScan is the classic ORCA: randomized scan with pruning.
func topOutliersScan(idx neighbors.Index, candOrder, scanOrder []int, k, topN int) ([]Outlier, Stats, error) {
	var stats Stats
	var top []Outlier // sorted ascending by score; top[0] is the cutoff
	cutoff := 0.0

	// kdist holds the current nearest distances of the candidate being
	// scanned, kept sorted ascending once full; sum is their ascending-order
	// total, recomputed after every change so the final score is canonical.
	kdist := make([]float64, 0, k)
	for _, q := range candOrder {
		kdist = kdist[:0]
		sum := 0.0
		pruned := false
		for _, o := range scanOrder {
			if o == q {
				continue
			}
			d := idx.Dist(q, o)
			stats.DistanceComputations++
			if len(kdist) < k {
				kdist = append(kdist, d)
				if len(kdist) == k {
					sort.Float64s(kdist) // establish order once full
					sum = sumAsc(kdist)
				}
			} else if d < kdist[k-1] {
				// replace the largest, keep sorted by insertion
				i := sort.SearchFloat64s(kdist[:k-1], d)
				copy(kdist[i+1:], kdist[i:k-1])
				kdist[i] = d
				sum = sumAsc(kdist)
			}
			// Pruning: once k neighbors are known, the running average can
			// only decrease; below the cutoff the candidate is done for.
			if len(kdist) == k && len(top) == topN && sum/float64(k) < cutoff {
				pruned = true
				stats.Pruned++
				break
			}
		}
		if pruned {
			continue
		}
		if len(kdist) < k {
			sort.Float64s(kdist)
			sum = sumAsc(kdist)
		}
		score := sum / float64(len(kdist))
		top, cutoff = updateTop(top, topN, Outlier{ID: q, Score: score}, cutoff)
	}
	return descending(top), stats, nil
}

// topOutliersIndexed mines the same top-n with exact per-candidate k-NN
// queries against the spatial index instead of the pruned scan.
func topOutliersIndexed(idx neighbors.Index, candOrder []int, k, topN int) ([]Outlier, Stats, error) {
	var top []Outlier
	cutoff := 0.0
	sc := idx.NewScratch()
	var buf []neighbors.Neighbor
	dists := make([]float64, 0, k+8)
	for _, q := range candOrder {
		nb, _ := idx.KNN(q, k, sc, buf)
		buf = nb[:0]
		dists = dists[:0]
		for _, x := range nb {
			dists = append(dists, x.Dist)
		}
		// The neighborhood may exceed k on ties; the score uses exactly the
		// k nearest, summed ascending like the scan path.
		sort.Float64s(dists)
		if len(dists) > k {
			dists = dists[:k]
		}
		score := sumAsc(dists) / float64(len(dists))
		top, cutoff = updateTop(top, topN, Outlier{ID: q, Score: score}, cutoff)
	}
	return descending(top), Stats{}, nil
}

// sumAsc totals xs front to back; both paths feed it ascending-sorted
// distances so the floating-point result is identical across backends.
func sumAsc(xs []float64) float64 {
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s
}

// updateTop folds one scored candidate into the score-ascending top list.
func updateTop(top []Outlier, topN int, o Outlier, cutoff float64) ([]Outlier, float64) {
	if len(top) < topN {
		top = insertAsc(top, o)
		if len(top) == topN {
			cutoff = top[0].Score
		}
	} else if o.Score > cutoff {
		top = insertAsc(top[1:], o)
		cutoff = top[0].Score
	}
	return top, cutoff
}

func descending(top []Outlier) []Outlier {
	out := make([]Outlier, len(top))
	for i, o := range top {
		out[len(top)-1-i] = o
	}
	return out
}

// insertAsc inserts o into the score-ascending slice.
func insertAsc(list []Outlier, o Outlier) []Outlier {
	i := sort.Search(len(list), func(i int) bool { return list[i].Score >= o.Score })
	list = append(list, Outlier{})
	copy(list[i+1:], list[i:])
	list[i] = o
	return list
}

// Scorer adapts ORCA to the ranking pipeline: mined outliers keep their
// distance scores, everything else scores zero. The resulting vector is
// a partial ranking — exactly what ORCA trades for its speed.
type Scorer struct {
	// K is the neighborhood size (0 = 10).
	K int
	// TopN is the number of outliers mined per subspace (0 = 30).
	TopN int
	// Seed drives the randomized scan orders.
	Seed uint64
	// Index selects the neighbor-index backend.
	Index neighbors.Kind
}

// Score implements ranking.Scorer. The buffer may hold a previous
// subspace's scores, so it is cleared before the mined outliers are
// written. The mining runs sequentially on the calling goroutine, so
// neither ctx nor workers is consulted.
func (s Scorer) Score(_ context.Context, ds *dataset.Dataset, dims []int, _ int, scores []float64) error {
	out, _, err := TopOutliers(ds, dims, Params{K: s.K, TopN: s.TopN, Seed: s.Seed, Index: s.Index})
	if err != nil {
		return err
	}
	clear(scores)
	for _, o := range out {
		scores[o.ID] = o.Score
	}
	return nil
}

// Name implements ranking.Scorer.
func (Scorer) Name() string { return "ORCA" }
