// Package registry resolves user-facing method names to constructed
// pipeline components: the subspace searchers and density scorers of the
// paper's evaluation matrix (Sec. V), each addressable by a stable string
// name. One Options value configures every method: the builder table in
// registry.go is the one place its shared fields (the search parameters,
// MinPts, the neighbor index, ORCA's TopN) map onto each method's own
// parameters.
//
// The registry is the single place the searcher × scorer matrix is
// enumerated. Every layer that selects methods by name — the public
// hics.Options, the cmd/hics and cmd/hicsbench flags, model persistence,
// and the experiment harness — routes through NewSearcher / NewScorer /
// NewPipeline, so adding a method here makes it reachable everywhere at
// once.
//
// # Names
//
// Names are lowercase and fixed: searchers "hics", "enclus", "ris",
// "randsub", "surfing", "fullspace"; scorers "lof", "knn", "orca",
// "outres". Unknown names produce errors enumerating the valid values.
// SearcherNames and ScorerNames list them sorted; FitScorerNames lists
// the scorers that additionally support the fit/score split (frozen
// models, persistence, streaming refits).
package registry
