// Package experiments reproduces every table and figure of the paper's
// evaluation section (Sec. V). Each Fig* function regenerates one artifact
// as a plain-text table on the given writer; cmd/hicsbench exposes them as
// subcommands and the root bench_test.go wraps them in testing.B benches.
//
// The harness compares the same competitor set as the paper:
// full-space LOF, HiCS(+LOF), Enclus(+LOF), RIS(+LOF), RANDSUB(+LOF), and
// the two PCA variants, all sharing one LOF parameterization and the
// "best 100 subspaces" budget (Sec. V).
package experiments

import (
	"fmt"
	"strings"

	"hics/internal/core"
	"hics/internal/neighbors"
	"hics/internal/ranking"
	"hics/internal/registry"
)

// displayName strips the scorer suffix from pipeline names so tables use
// the paper's method labels (all competitors share the LOF scorer anyway).
func displayName(r ranking.Ranker) string {
	return strings.TrimSuffix(r.Name(), "+LOF")
}

// Config controls experiment sizing. The zero value reproduces the paper's
// scale; Medium keeps the full sweep ranges at reduced dataset sizes (the
// recommended mode on a laptop core — the cubic RIS competitor dominates
// the full-scale runtime); Quick shrinks both sizes and sweeps for smoke
// tests.
type Config struct {
	// Quick selects strongly reduced dataset sizes and sweep grids.
	Quick bool
	// Medium keeps the paper's sweep grids at reduced dataset sizes.
	// Quick wins if both are set.
	Medium bool
	// Seed drives dataset generation and all Monte Carlo loops.
	Seed uint64
	// Searchers restricts the subspace-method competitor set to these
	// registry names; nil selects the paper's set (hics, enclus, ris,
	// randsub). The full-space LOF baseline and the PCA variants of the
	// quality figures are not affected.
	Searchers []string
}

// sizing collects every experiment's workload parameters for one mode.
type sizing struct {
	dimsN    int   // DB size of the Fig4/5 dimensionality sweep
	dims     []int // dimensionalities of the Fig4/5 sweep
	dimsReps int   // repetitions per dimensionality

	fig6Sizes []int // DB sizes of the Fig6 runtime sweep (D=25)

	fig7Ms      []int     // Monte Carlo iteration sweep
	fig8Alphas  []float64 // slice size sweep
	fig9Cutoffs []int     // candidate cutoff sweep
	paramN      int       // DB size of the parameter studies
	paramD      int       // dimensionality of the parameter studies
	paramReps   int       // repetitions of the parameter studies

	realCap int // max N of the simulated UCI datasets (0 = original size)
}

func (c Config) sizing() sizing {
	switch {
	case c.Quick:
		return sizing{
			dimsN: 300, dims: []int{10, 20, 30}, dimsReps: 2,
			fig6Sizes:   []int{300, 600, 1200},
			fig7Ms:      []int{10, 50, 100},
			fig8Alphas:  []float64{0.05, 0.1, 0.3},
			fig9Cutoffs: []int{50, 200, 400, 800},
			paramN:      300, paramD: 15, paramReps: 2,
			realCap: 800,
		}
	case c.Medium:
		return sizing{
			dimsN: 500, dims: []int{10, 20, 30, 40, 50, 75, 100}, dimsReps: 2,
			fig6Sizes:   []int{500, 1000, 2000, 4000},
			fig7Ms:      []int{10, 25, 50, 100, 200, 500},
			fig8Alphas:  []float64{0.01, 0.05, 0.1, 0.2, 0.3, 0.5},
			fig9Cutoffs: []int{50, 100, 200, 400, 500, 800, 1600, 5000},
			paramN:      500, paramD: 20, paramReps: 3,
			realCap: 1500,
		}
	default:
		return sizing{
			dimsN: 1000, dims: []int{10, 20, 30, 40, 50, 75, 100}, dimsReps: 3,
			fig6Sizes:   []int{1000, 2500, 5000, 10000},
			fig7Ms:      []int{10, 25, 50, 100, 200, 500},
			fig8Alphas:  []float64{0.01, 0.05, 0.1, 0.2, 0.3, 0.5},
			fig9Cutoffs: []int{50, 100, 200, 400, 500, 800, 1600, 5000},
			paramN:      1000, paramD: 25, paramReps: 3,
			realCap: 0,
		}
	}
}

// hicsParams returns the paper-default HiCS parameters with the given seed.
func hicsParams(seed uint64) core.Params {
	return core.Params{M: core.DefaultM, Alpha: core.DefaultAlpha, Cutoff: core.DefaultCutoff, TopK: core.DefaultTopK, Seed: seed}
}

// options carries the paper's evaluation setting for search parameters
// p: every competitor gets the level-wise budget and the "best 100
// subspaces" of Sec. V through p, and every scorer the shared MinPts 10.
// ORCA mines 50 outliers per subspace. The scorers are pinned to the
// brute-force neighbor index: the runtime figures (Fig. 5, Fig. 6,
// Fig. 9) are calibrated against the quadratic ranking step, and letting
// the automatic index selection swap in the k-d tree would silently
// change the measured curves (scores are bit-identical either way).
func options(p core.Params) registry.Options {
	return registry.Options{Search: p, MinPts: 10, Index: neighbors.KindBrute, TopN: 50}
}

// pipeline resolves one registry (searcher, scorer) name pair with the
// shared evaluation options for search parameters p. Method names
// reaching this point were either written as literals here or validated
// at the cmd/hicsbench boundary, so a resolution failure is a
// programming error.
func pipeline(search, scorer string, p core.Params) ranking.Pipeline {
	pipe, err := registry.NewPipeline(search, scorer, options(p))
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return pipe
}

// scorer resolves one registry scorer name with the shared evaluation
// options, for the pipelines assembled outside the two-step registry
// matrix (PCA).
func (c Config) scorer(name string) ranking.Scorer {
	sc, err := registry.NewScorer(name, options(hicsParams(c.Seed)))
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return sc
}

// newLOF builds the full-space LOF baseline.
func newLOF(cfg Config) ranking.Pipeline { return pipeline("fullspace", "lof", hicsParams(cfg.Seed)) }

// newPCALOF1 reduces to 50% of the attributes before full-space LOF. PCA
// transforms objects instead of selecting attribute subsets, so it stays
// outside the searcher registry (the paper's argument for why it is not a
// subspace search method).
func newPCALOF1(cfg Config) ranking.PCAPipeline {
	return ranking.PCAPipeline{
		Components: func(d int) int { return (d + 1) / 2 },
		Scorer:     cfg.scorer("lof"),
		Label:      "PCALOF1",
	}
}

// newPCALOF2 reduces to a constant 10 principal components.
func newPCALOF2(cfg Config) ranking.PCAPipeline {
	return ranking.PCAPipeline{
		Components: func(d int) int { return 10 },
		Scorer:     cfg.scorer("lof"),
		Label:      "PCALOF2",
	}
}

// cacheKey is the comparable identity of a Config for memoization; the
// Searchers slice is flattened.
type cacheKey struct {
	quick, medium bool
	seed          uint64
	searchers     string
}

func (c Config) key() cacheKey {
	return cacheKey{c.Quick, c.Medium, c.Seed, strings.Join(c.searcherSet(), ",")}
}

// searcherSet resolves the Config's subspace-method selection.
func (c Config) searcherSet() []string {
	if len(c.Searchers) > 0 {
		return c.Searchers
	}
	return []string{"hics", "enclus", "ris", "randsub"}
}

// subspaceCompetitors returns the competitor set of the runtime figures
// (Fig. 5/6): the methods based on subspace rankings, all sharing the LOF
// ranking step.
func subspaceCompetitors(cfg Config, seed uint64) []ranking.Ranker {
	var out []ranking.Ranker
	for _, name := range cfg.searcherSet() {
		out = append(out, pipeline(name, "lof", hicsParams(seed)))
	}
	return out
}

// allCompetitors returns the full Fig. 4 competitor set. The full-space
// LOF baseline is always present, so a "fullspace" entry in the searcher
// selection is dropped here — it would be the identical pipeline twice.
func allCompetitors(cfg Config, seed uint64) []ranking.Ranker {
	out := []ranking.Ranker{newLOF(cfg)}
	sub := cfg
	sub.Searchers = nil
	for _, name := range cfg.searcherSet() {
		if name != "fullspace" {
			sub.Searchers = append(sub.Searchers, name)
		}
	}
	if len(sub.Searchers) > 0 {
		out = append(out, subspaceCompetitors(sub, seed)...)
	}
	return append(out, newPCALOF1(cfg), newPCALOF2(cfg))
}
