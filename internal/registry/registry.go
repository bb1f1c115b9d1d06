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

// Options configures every registered method at once: callers fill it
// once and select methods by name afterwards. Each builder reads the
// fields its method uses, and zero values select each method's defaults.
type Options struct {
	// Search configures the subspace searchers. "hics" reads all of it.
	// "enclus", "ris" and "surfing" read Cutoff (0 = 400), TopK (0 = 100,
	// -1 = all) and MaxDim (0 = 6). "randsub" draws TopK subspaces (100
	// when TopK ≤ 0) from Seed, of at most MaxDim attributes (0 = D−1).
	// "orca" reads Seed. "fullspace" reads nothing.
	Search core.Params
	// MinPts is the neighborhood size: the k of "lof", "knn" and "orca",
	// the core-object threshold of "ris" and the k of "surfing"
	// (0 = 10 for each).
	MinPts int
	// Index selects the neighbor-index backend of "lof", "knn" and "orca"
	// (default automatic).
	Index neighbors.Kind
	// TopN is the number of outliers "orca" mines per subspace (0 = 30).
	TopN int
	// Agg selects NewPipeline's score aggregation (default: the paper's
	// average).
	Agg ranking.Aggregation
	// Workers bounds NewPipeline's batch scoring passes (0 = one worker
	// per CPU); the search's own bound is Search.Workers.
	Workers int
}

// The builder tables are the one place the shared Options map onto each
// method's own parameters.
var searcherBuilders = map[string]func(Options) ranking.SubspaceSearcher{
	"hics": func(o Options) ranking.SubspaceSearcher { return &core.Searcher{Params: o.Search} },
	"enclus": func(o Options) ranking.SubspaceSearcher {
		return &enclus.Searcher{Params: enclus.Params{MaxDim: o.Search.MaxDim, TopK: o.Search.TopK, Cutoff: o.Search.Cutoff}}
	},
	"ris": func(o Options) ranking.SubspaceSearcher {
		return &ris.Searcher{Params: ris.Params{MinPts: o.MinPts, TopK: o.Search.TopK, Cutoff: o.Search.Cutoff, MaxDim: o.Search.MaxDim}}
	},
	"randsub": func(o Options) ranking.SubspaceSearcher {
		return &randsub.Searcher{Params: randsub.Params{Count: o.Search.TopK, MaxDim: o.Search.MaxDim, Seed: o.Search.Seed}}
	},
	"surfing": func(o Options) ranking.SubspaceSearcher {
		return &surfing.Searcher{Params: surfing.Params{K: o.MinPts, TopK: o.Search.TopK, Cutoff: o.Search.Cutoff, MaxDim: o.Search.MaxDim}}
	},
	"fullspace": func(Options) ranking.SubspaceSearcher { return ranking.FullSpace{} },
}

var scorerBuilders = map[string]func(Options) ranking.Scorer{
	"lof": func(o Options) ranking.Scorer { return ranking.LOFScorer{MinPts: o.MinPts, Index: o.Index} },
	"knn": func(o Options) ranking.Scorer { return ranking.KNNScorer{K: o.MinPts, Index: o.Index} },
	"orca": func(o Options) ranking.Scorer {
		return orca.Scorer{K: o.MinPts, TopN: o.TopN, Seed: o.Search.Seed, Index: o.Index}
	},
	"outres": func(Options) ranking.Scorer { return outres.Scorer{} },
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
	_, ok = build(Options{}).(ranking.FitScorer)
	return ok
}

// NewSearcher constructs the named subspace searcher from o. The empty
// name selects DefaultSearcher; unknown names error, enumerating the
// valid values.
func NewSearcher(name string, o Options) (ranking.SubspaceSearcher, error) {
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

// NewScorer constructs the named scorer from o. The empty name selects
// DefaultScorer; unknown names error, enumerating the valid values.
func NewScorer(name string, o Options) (ranking.Scorer, error) {
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

// NewPipeline resolves a (searcher, scorer) name pair into the assembled
// two-step ranking pipeline.
func NewPipeline(search, scorer string, o Options) (ranking.Pipeline, error) {
	s, err := NewSearcher(search, o)
	if err != nil {
		return ranking.Pipeline{}, err
	}
	sc, err := NewScorer(scorer, o)
	if err != nil {
		return ranking.Pipeline{}, err
	}
	return ranking.Pipeline{Searcher: s, Scorer: sc, Agg: o.Agg, Workers: o.Workers}, nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
