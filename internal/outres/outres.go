// Package outres implements an adaptive-density outlier scorer in the
// spirit of OUTRES (Müller, Schiffer, Seidl: "Adaptive outlierness for
// subspace outlier ranking", CIKM 2010), the quality upgrade the paper's
// future work names: "OUTRES might improve the quality of our outlier
// ranking due to its adaptive density scoring in subspace projections."
//
// The scorer estimates each object's density with an Epanechnikov kernel
// whose bandwidth adapts to the subspace dimensionality (shrinking
// neighborhoods would otherwise become meaningless as |S| grows), then
// measures outlierness as the object's negative deviation from the mean
// density of its kernel neighborhood in units of two standard deviations
// — OUTRES's significance-based deviation. Objects denser than their
// neighborhood score zero.
//
// Simplification vs. the original: OUTRES couples the scoring with its own
// recursive subspace exploration and multiplies scores across subspaces.
// Here the scorer is decoupled (any searcher provides the subspaces) —
// which is precisely the modularity HiCS argues for — and multiplication
// is available via the ranking pipeline's Product aggregation.
package outres

import (
	"context"
	"fmt"
	"math"

	"hics/internal/dataset"
	"hics/internal/neighbors"
	"hics/internal/stats"
)

// Scorer is an adaptive kernel-density outlier scorer implementing the
// ranking pipeline's Scorer interface.
type Scorer struct {
	// BandwidthScale multiplies the dimensionality-adaptive bandwidth
	// h = scale · 0.5 · N^(−1/(4+d)). Zero selects 1.
	BandwidthScale float64
}

// Score implements ranking.Scorer: one non-negative outlierness value per
// object, higher = more outlying. The density pass runs sequentially on
// the calling goroutine, so neither ctx nor workers is consulted.
func (s Scorer) Score(_ context.Context, ds *dataset.Dataset, dims []int, _ int, scores []float64) error {
	// Pin the brute backend: OUTRES only takes pairwise distances (Dist),
	// so a k-d tree would be built per subspace and never queried.
	idx, err := neighbors.New(ds, dims, neighbors.KindBrute)
	if err != nil {
		return fmt.Errorf("outres: %w", err)
	}
	n := ds.N()
	if n < 3 {
		return fmt.Errorf("outres: need at least 3 objects, have %d", n)
	}
	scale := s.BandwidthScale
	if scale <= 0 {
		scale = 1
	}
	d := float64(len(dims))
	// Adaptive bandwidth: the Silverman-style N^(−1/(4+d)) rate OUTRES
	// derives its h_optimal from, anchored at half the unit-cube scale.
	h := scale * 0.5 * math.Pow(float64(n), -1/(4+d))

	// Pass 1: kernel densities and kernel neighborhoods.
	dens := make([]float64, n)
	neighbors := make([][]int32, n)
	for i := 0; i < n; i++ {
		var nb []int32
		sum := 0.0
		// Range scan, accumulating the kernel.
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			dist := idx.Dist(i, j)
			if dist < h {
				u := dist / h
				sum += 1 - u*u // Epanechnikov kernel (unnormalized)
				nb = append(nb, int32(j))
			}
		}
		dens[i] = sum
		neighbors[i] = nb
	}

	// Global fallback moments for objects with empty neighborhoods.
	globalMean, globalVar := stats.MeanVar(dens)
	globalStd := math.Sqrt(math.Max(globalVar, 0))

	// Pass 2: significance-scaled negative deviation from the local mean.
	buf := make([]float64, 0, 64)
	for i := 0; i < n; i++ {
		mean, std := globalMean, globalStd
		if len(neighbors[i]) >= 2 {
			buf = buf[:0]
			for _, j := range neighbors[i] {
				buf = append(buf, dens[j])
			}
			m, v := stats.MeanVar(buf)
			mean, std = m, math.Sqrt(math.Max(v, 0))
		}
		if std == 0 {
			std = 1e-12
		}
		scores[i] = 0
		if dev := (mean - dens[i]) / (2 * std); dev > 0 {
			scores[i] = dev
		}
	}
	return nil
}

// Name implements ranking.Scorer.
func (Scorer) Name() string { return "OUTRES" }
