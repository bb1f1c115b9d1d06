// Benchmarks regenerating the paper's tables and figures, one testing.B
// target per artifact (DESIGN.md §3). Each bench runs the corresponding
// experiment in quick mode so `go test -bench=.` finishes in reasonable
// time; the full-scale tables are produced by `go run ./cmd/hicsbench all`.
package hics

import (
	"context"
	"fmt"
	"io"
	"testing"

	"hics/internal/dataset"
	"hics/internal/experiments"
	"hics/internal/lof"
	"hics/internal/neighbors"
	"hics/internal/rng"
	"hics/internal/subspace"
	"hics/internal/synth"
)

// benchRun regenerates one experiment per iteration with a fixed seed.
// The seed must stay fixed: Fig4 and Fig5 share a memoized sweep, and a
// per-iteration seed would turn every re-scaled benchmark iteration into a
// full fresh sweep, inflating the run from seconds to many minutes.
func benchRun(b *testing.B, name string) {
	b.Helper()
	if testing.Short() {
		// Like the experiment regression tests, the multi-second
		// experiment regenerations are gated out of -short runs (CI's
		// 1-iteration benchmark smoke); the benchmark bodies still
		// compile, and plain `go test -bench .` runs them in full.
		b.Skip("skipping experiment regeneration in -short mode")
	}
	fn, ok := experiments.Lookup(name)
	if !ok {
		b.Fatalf("unknown experiment %q", name)
	}
	cfg := experiments.Config{Quick: true, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := fn(context.Background(), io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4QualityVsDims regenerates Fig. 4 (AUC vs dimensionality,
// all seven competitors).
func BenchmarkFig4QualityVsDims(b *testing.B) { benchRun(b, "fig4") }

// BenchmarkFig5RuntimeVsDims regenerates Fig. 5 (runtime vs
// dimensionality, subspace methods).
func BenchmarkFig5RuntimeVsDims(b *testing.B) { benchRun(b, "fig5") }

// BenchmarkFig6RuntimeVsSize regenerates Fig. 6 (runtime vs DB size).
func BenchmarkFig6RuntimeVsSize(b *testing.B) { benchRun(b, "fig6") }

// BenchmarkFig7MonteCarloIterations regenerates Fig. 7 (AUC vs M).
func BenchmarkFig7MonteCarloIterations(b *testing.B) { benchRun(b, "fig7") }

// BenchmarkFig8AlphaSweep regenerates Fig. 8 (AUC vs α).
func BenchmarkFig8AlphaSweep(b *testing.B) { benchRun(b, "fig8") }

// BenchmarkFig9CandidateCutoff regenerates Fig. 9 (AUC and runtime vs
// candidate cutoff).
func BenchmarkFig9CandidateCutoff(b *testing.B) { benchRun(b, "fig9") }

// BenchmarkFig10ROCCurves regenerates Fig. 10 (ROC curves on the
// Ionosphere and Pendigits analogs).
func BenchmarkFig10ROCCurves(b *testing.B) { benchRun(b, "fig10") }

// BenchmarkFig11RealWorld regenerates Fig. 11 (the real-world results
// table over all eight simulated UCI datasets).
func BenchmarkFig11RealWorld(b *testing.B) { benchRun(b, "fig11") }

// BenchmarkAblationWTvsKS compares the two statistical instantiations
// (DESIGN.md ablation 1).
func BenchmarkAblationWTvsKS(b *testing.B) { benchRun(b, "abl-test") }

// BenchmarkAblationAggregation compares average vs max aggregation
// (DESIGN.md ablation 2).
func BenchmarkAblationAggregation(b *testing.B) { benchRun(b, "abl-agg") }

// BenchmarkAblationPruning compares redundancy pruning on/off
// (DESIGN.md ablation 4).
func BenchmarkAblationPruning(b *testing.B) { benchRun(b, "abl-prune") }

// BenchmarkAblationScorer compares the LOF and kNN-distance ranking steps
// (the paper's future-work extension).
func BenchmarkAblationScorer(b *testing.B) { benchRun(b, "abl-scorer") }

// BenchmarkExtTests compares all four statistical contrast instantiations
// (the paper's two plus Mann–Whitney and Cramér–von Mises).
func BenchmarkExtTests(b *testing.B) { benchRun(b, "ext-tests") }

// BenchmarkExtScorers compares the ranking-step scorers, including the
// future-work ORCA and OUTRES instantiations.
func BenchmarkExtScorers(b *testing.B) { benchRun(b, "ext-scorers") }

// BenchmarkExtSearchers compares the subspace searchers including SURFING.
func BenchmarkExtSearchers(b *testing.B) { benchRun(b, "ext-search") }

// BenchmarkExtPrecision reports precision-oriented quality metrics.
func BenchmarkExtPrecision(b *testing.B) { benchRun(b, "ext-prec") }

// uniformDataset builds an n×d dataset of uniform noise for the
// neighbor-index benchmarks.
func uniformDataset(seed uint64, n, d int) (*dataset.Dataset, []int) {
	r := rng.New(seed)
	cols := make([][]float64, d)
	dims := make([]int, d)
	for j := range cols {
		dims[j] = j
		cols[j] = make([]float64, n)
		for i := range cols[j] {
			cols[j][i] = r.Float64()
		}
	}
	return dataset.MustNew(nil, cols), dims
}

// benchLOF measures one full LOF scoring pass (the ranking step's unit of
// work per subspace) with a pinned neighbor-index backend, across dataset
// sizes and subspace dimensionalities. Compare BenchmarkLOFBrute with
// BenchmarkLOFKDTree to see the index speedup on the Rank hot path.
func benchLOF(b *testing.B, kind neighbors.Kind) {
	for _, n := range []int{2000, 10000} {
		for _, d := range []int{2, 5} {
			b.Run(fmt.Sprintf("n=%d/d=%d", n, d), func(b *testing.B) {
				ds, dims := uniformDataset(1, n, d)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := lof.FitContext(context.Background(), ds, dims, 10, kind, 0); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkLOFBrute scores with the O(n²) linear-scan neighbor search.
func BenchmarkLOFBrute(b *testing.B) { benchLOF(b, neighbors.KindBrute) }

// BenchmarkLOFKDTree scores with the k-d tree neighbor index.
func BenchmarkLOFKDTree(b *testing.B) { benchLOF(b, neighbors.KindKDTree) }

// benchRankIndexed measures the complete public pipeline at ranking scale
// (n = 10000) with a pinned neighbor index; the LOF step dominates, so the
// brute/kdtree pair exposes the end-to-end win of the index subsystem.
func benchRankIndexed(b *testing.B, index string) {
	const n, d = 10000, 6
	r := rng.New(99)
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, d)
		base := r.Float64()
		row[0] = base
		row[1] = base + 0.05*r.Float64()
		for j := 2; j < d; j++ {
			row[j] = r.Float64()
		}
		rows[i] = row
	}
	opts := Options{M: 10, TopK: 3, Seed: 1, MinPts: 10, NeighborIndex: index}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Rank(rows, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRankBrute is the quadratic-complexity ranking step at n=10k.
func BenchmarkRankBrute(b *testing.B) { benchRankIndexed(b, "brute") }

// BenchmarkRankKDTree is the same pipeline on the k-d tree index.
func BenchmarkRankKDTree(b *testing.B) { benchRankIndexed(b, "kdtree") }

// BenchmarkStreamScore measures the streaming hot path: one PushAppend
// through a warm never-refitting detector — ring-buffer append plus a
// frozen out-of-sample score, the per-row cost an always-on hicsd /stream
// session pays. The model is fitted on 500 rows (k-d tree backed, since
// N ≥ neighbors.AutoMinN) and the pushed rows are held out from the same
// generator, so every push runs the subspace kNN queries rather than the
// training-row lookup.
func BenchmarkStreamScore(b *testing.B) {
	r := rng.New(55)
	rows := make([][]float64, 1000)
	for i := range rows {
		rows[i] = []float64{r.Float64(), r.Float64(), r.Float64(), r.Float64()}
	}
	train, held := rows[:500], rows[500:]
	m, err := Fit(train, Options{M: 10, Seed: 1, TopK: 5})
	if err != nil {
		b.Fatal(err)
	}
	st, err := m.NewStream(StreamOptions{Window: 128})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	ctx := context.Background()
	var out []StreamResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out, err = st.PushAppend(ctx, held[i%len(held)], out[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamRefit measures a full synchronous refit cycle: Window
// pushes with one model re-fit over the window — the amortized cost of a
// drift-following stream per RefitEvery arrivals.
func BenchmarkStreamRefit(b *testing.B) {
	r := rng.New(56)
	rows := make([][]float64, 256)
	for i := range rows {
		rows[i] = []float64{r.Float64(), r.Float64(), r.Float64(), r.Float64()}
	}
	const window = 128
	m, err := Fit(rows, Options{M: 10, Seed: 1, TopK: 5})
	if err != nil {
		b.Fatal(err)
	}
	st, err := m.NewStream(StreamOptions{Window: window, RefitEvery: window})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < window; j++ {
			if _, err := st.Push(ctx, rows[(i*window+j)%len(rows)]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFitLarge measures Fit at production scale — 100k objects × 30
// attributes of planted correlated groups — with and without the
// performance knob: the exact flat-M baseline and bounded contrast
// subsampling. After the timed runs it cross-checks every configuration's
// ranked top-10 against the planted ground truth, so the recorded speedup
// is a like-for-like comparison.
func BenchmarkFitLarge(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping the 100k-row fit benchmark in -short mode")
	}
	bench, err := synth.Generate(synth.Config{
		N: 100_000, D: 30, MinSubspaceDim: 2, MaxSubspaceDim: 3, Seed: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	ds := bench.Data.Data
	rows := make([][]float64, ds.N())
	for i := range rows {
		rows[i] = ds.Row(i, nil)
	}
	base := Options{
		M: 100, Seed: 8, TopK: 10, CandidateCutoff: 100, MaxDim: 3,
		MinPts: 10, UseKNNScore: true, NeighborIndex: "kdtree",
	}
	variants := []struct {
		name string
		mod  func(*Options)
	}{
		{"exact-flat", func(*Options) {}},
		{"subsample", func(o *Options) { o.MaxSampleRows = 2000 }},
	}
	tops := make([][]Subspace, len(variants))
	for vi, v := range variants {
		opts := base
		v.mod(&opts)
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := Fit(rows, opts)
				if err != nil {
					b.Fatal(err)
				}
				tops[vi] = m.Subspaces()
			}
		})
	}
	// Like-for-like quality check against the planted ground truth. At
	// 100k rows the strongest contrasts saturate at 1.0, so the top-10
	// cut falls among exact ties and the precise member set is not stable
	// between configurations (or even between exact runs with different
	// seeds). What must hold for the speedup to be honest is that every
	// configuration — exact and optimized alike — ranks only genuine
	// projections: each top-10 subspace must lie within a planted
	// correlated group.
	for vi, v := range variants {
		for _, s := range tops[vi] {
			planted := false
			for _, g := range bench.Subspaces {
				if g.SupersetOf(subspace.Subspace(s.Dims)) {
					planted = true
					break
				}
			}
			if !planted {
				b.Errorf("%s: ranked %v, not within any planted group %v",
					v.name, s.Dims, bench.Subspaces)
			}
		}
	}
}

// BenchmarkRankEndToEnd measures the complete public-API pipeline on a
// mid-size synthetic dataset — the library's end-to-end cost per call.
func BenchmarkRankEndToEnd(b *testing.B) {
	rows := make([][]float64, 300)
	s := uint64(12345)
	next := func() float64 {
		s = s*6364136223846793005 + 1442695040888963407
		return float64(s>>11) / (1 << 53)
	}
	for i := range rows {
		row := make([]float64, 10)
		base := next()
		row[0] = base
		row[1] = base + 0.05*next()
		for j := 2; j < 10; j++ {
			row[j] = next()
		}
		rows[i] = row
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Rank(rows, Options{M: 20, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
