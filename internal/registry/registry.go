package registry

import (
	"fmt"
	"sort"
	"strings"

	"hics/internal/core"
	"hics/internal/enclus"
	"hics/internal/neighbors"
	"hics/internal/orca"
	"hics/internal/outres"
	"hics/internal/randsub"
	"hics/internal/ranking"
	"hics/internal/ris"
	"hics/internal/surfing"
)

// Default method names: the paper's instantiation, HiCS + LOF.
const (
	DefaultSearcher = "hics"
	DefaultScorer   = "lof"
)

// SearcherOptions carries one option struct per registered searcher; a
// constructor reads only its own method's struct, so callers configure the
// whole matrix once and select by name afterwards. Zero values select each
// method's documented defaults.
type SearcherOptions struct {
	// HiCS configures the "hics" searcher (the paper's contrast search).
	HiCS core.Params
	// Enclus configures the "enclus" grid-entropy searcher.
	Enclus enclus.Params
	// RIS configures the "ris" density-connectivity searcher.
	RIS ris.Params
	// RandSub configures the "randsub" feature-bagging baseline.
	RandSub randsub.Params
	// Surfing configures the "surfing" kNN-distance-variance searcher.
	Surfing surfing.Params
	// The "fullspace" searcher has no options.
}

// LOFOptions configures the "lof" scorer.
type LOFOptions struct {
	// MinPts is the LOF neighborhood size (0 = lof.DefaultMinPts).
	MinPts int
	// Index selects the neighbor-index backend (default automatic).
	Index neighbors.Kind
}

// KNNOptions configures the "knn" (average kNN-distance) scorer.
type KNNOptions struct {
	// K is the neighborhood size (0 = lof.DefaultMinPts).
	K int
	// Index selects the neighbor-index backend (default automatic).
	Index neighbors.Kind
}

// ORCAOptions configures the "orca" randomized top-n distance miner.
type ORCAOptions struct {
	// K is the neighborhood size (0 = 10).
	K int
	// TopN is the number of outliers mined per subspace (0 = 30).
	TopN int
	// Seed drives the randomized scan orders.
	Seed uint64
	// Index selects the neighbor-index backend.
	Index neighbors.Kind
}

// OUTRESOptions configures the "outres" adaptive kernel-density scorer.
type OUTRESOptions struct {
	// BandwidthScale multiplies the dimensionality-adaptive bandwidth
	// (0 = 1).
	BandwidthScale float64
}

// ScorerOptions carries one option struct per registered scorer.
type ScorerOptions struct {
	LOF    LOFOptions
	KNN    KNNOptions
	ORCA   ORCAOptions
	OUTRES OUTRESOptions
}

var searcherBuilders = map[string]func(SearcherOptions) ranking.SubspaceSearcher{
	"hics":      func(o SearcherOptions) ranking.SubspaceSearcher { return &core.Searcher{Params: o.HiCS} },
	"enclus":    func(o SearcherOptions) ranking.SubspaceSearcher { return &enclus.Searcher{Params: o.Enclus} },
	"ris":       func(o SearcherOptions) ranking.SubspaceSearcher { return &ris.Searcher{Params: o.RIS} },
	"randsub":   func(o SearcherOptions) ranking.SubspaceSearcher { return &randsub.Searcher{Params: o.RandSub} },
	"surfing":   func(o SearcherOptions) ranking.SubspaceSearcher { return &surfing.Searcher{Params: o.Surfing} },
	"fullspace": func(SearcherOptions) ranking.SubspaceSearcher { return ranking.FullSpace{} },
}

var scorerBuilders = map[string]func(ScorerOptions) ranking.Scorer{
	"lof": func(o ScorerOptions) ranking.Scorer {
		return ranking.LOFScorer{MinPts: o.LOF.MinPts, Index: o.LOF.Index}
	},
	"knn": func(o ScorerOptions) ranking.Scorer {
		return ranking.KNNScorer{K: o.KNN.K, Index: o.KNN.Index}
	},
	"orca": func(o ScorerOptions) ranking.Scorer {
		return orca.Scorer{K: o.ORCA.K, TopN: o.ORCA.TopN, Seed: o.ORCA.Seed, Index: o.ORCA.Index}
	},
	"outres": func(o ScorerOptions) ranking.Scorer {
		return outres.Scorer{BandwidthScale: o.OUTRES.BandwidthScale}
	},
}

// SearcherNames lists the registered searcher names, sorted.
func SearcherNames() []string { return sortedKeys(searcherBuilders) }

// ScorerNames lists the registered scorer names, sorted.
func ScorerNames() []string { return sortedKeys(scorerBuilders) }

// FitScorerNames lists the scorer names supporting the fit/score split
// (ranking.FitScorer), i.e. the combinations hics.Fit and model
// persistence accept.
func FitScorerNames() []string {
	var out []string
	for _, name := range ScorerNames() {
		if ScorerSupportsFit(name) {
			out = append(out, name)
		}
	}
	return out
}

// KnownSearcher reports whether name is a registered searcher.
func KnownSearcher(name string) bool { _, ok := searcherBuilders[name]; return ok }

// KnownScorer reports whether name is a registered scorer.
func KnownScorer(name string) bool { _, ok := scorerBuilders[name]; return ok }

// ScorerSupportsFit reports whether the named scorer implements the
// fit/score split. Unknown names report false.
func ScorerSupportsFit(name string) bool {
	build, ok := scorerBuilders[name]
	if !ok {
		return false
	}
	_, ok = build(ScorerOptions{}).(ranking.FitScorer)
	return ok
}

// NewSearcher constructs the named subspace searcher from its option
// struct. The empty name selects DefaultSearcher; unknown names error,
// enumerating the valid values.
func NewSearcher(name string, o SearcherOptions) (ranking.SubspaceSearcher, error) {
	if name == "" {
		name = DefaultSearcher
	}
	build, ok := searcherBuilders[name]
	if !ok {
		return nil, fmt.Errorf("registry: unknown searcher %q (valid: %s)",
			name, strings.Join(SearcherNames(), ", "))
	}
	return build(o), nil
}

// NewScorer constructs the named scorer from its option struct. The empty
// name selects DefaultScorer; unknown names error, enumerating the valid
// values.
func NewScorer(name string, o ScorerOptions) (ranking.Scorer, error) {
	if name == "" {
		name = DefaultScorer
	}
	build, ok := scorerBuilders[name]
	if !ok {
		return nil, fmt.Errorf("registry: unknown scorer %q (valid: %s)",
			name, strings.Join(ScorerNames(), ", "))
	}
	return build(o), nil
}

// PipelineOptions bundles the method options with the pipeline-level knobs
// NewPipeline threads through to ranking.Pipeline.
type PipelineOptions struct {
	Searchers SearcherOptions
	Scorers   ScorerOptions
	// Agg selects the score aggregation (default: the paper's average).
	Agg ranking.Aggregation
	// MaxSubspaces caps the scored subspaces (0 = the paper's 100, -1 = all).
	MaxSubspaces int
	// Workers bounds the batch-pass parallelism of the scorer
	// (0 = one worker per CPU).
	Workers int
}

// NewPipeline resolves a (searcher, scorer) name pair into the assembled
// two-step ranking pipeline.
func NewPipeline(search, scorer string, o PipelineOptions) (ranking.Pipeline, error) {
	s, err := NewSearcher(search, o.Searchers)
	if err != nil {
		return ranking.Pipeline{}, err
	}
	sc, err := NewScorer(scorer, o.Scorers)
	if err != nil {
		return ranking.Pipeline{}, err
	}
	return ranking.Pipeline{
		Searcher:     s,
		Scorer:       sc,
		Agg:          o.Agg,
		MaxSubspaces: o.MaxSubspaces,
		Workers:      o.Workers,
	}, nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
