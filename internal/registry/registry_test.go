package registry

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"hics/internal/core"
	"hics/internal/dataset"
	"hics/internal/enclus"
	"hics/internal/neighbors"
	"hics/internal/orca"
	"hics/internal/randsub"
	"hics/internal/ranking"
	"hics/internal/ris"
	"hics/internal/subspace"
	"hics/internal/surfing"
	"hics/internal/synth"
)

func TestNames(t *testing.T) {
	wantSearchers := []string{"enclus", "fullspace", "hics", "randsub", "ris", "surfing"}
	if got := SearcherNames(); !reflect.DeepEqual(got, wantSearchers) {
		t.Errorf("SearcherNames() = %v, want %v", got, wantSearchers)
	}
	wantScorers := []string{"knn", "lof", "orca", "outres"}
	if got := ScorerNames(); !reflect.DeepEqual(got, wantScorers) {
		t.Errorf("ScorerNames() = %v, want %v", got, wantScorers)
	}
	wantFit := []string{"knn", "lof"}
	if got := FitScorerNames(); !reflect.DeepEqual(got, wantFit) {
		t.Errorf("FitScorerNames() = %v, want %v", got, wantFit)
	}
}

// Every registered name must construct, and the constructed component must
// implement the pipeline interface it is registered under.
func TestEveryNameConstructs(t *testing.T) {
	for _, name := range SearcherNames() {
		s, err := NewSearcher(name, Options{})
		if err != nil {
			t.Errorf("NewSearcher(%q): %v", name, err)
		}
		if s == nil || s.Name() == "" {
			t.Errorf("NewSearcher(%q) returned unnamed searcher %v", name, s)
		}
		if !KnownSearcher(name) {
			t.Errorf("KnownSearcher(%q) = false", name)
		}
	}
	for _, name := range ScorerNames() {
		sc, err := NewScorer(name, Options{})
		if err != nil {
			t.Errorf("NewScorer(%q): %v", name, err)
		}
		if sc == nil || sc.Name() == "" {
			t.Errorf("NewScorer(%q) returned unnamed scorer %v", name, sc)
		}
		if !KnownScorer(name) {
			t.Errorf("KnownScorer(%q) = false", name)
		}
	}
}

func TestDefaultsAndErrors(t *testing.T) {
	s, err := NewSearcher("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "HiCS" {
		t.Errorf("default searcher is %s, want HiCS", s.Name())
	}
	sc, err := NewScorer("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name() != "LOF" {
		t.Errorf("default scorer is %s, want LOF", sc.Name())
	}

	// Unknown names must enumerate every valid value.
	if _, err := NewSearcher("bogus", Options{}); err == nil {
		t.Error("unknown searcher accepted")
	} else {
		for _, name := range SearcherNames() {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("searcher error %q does not enumerate %q", err, name)
			}
		}
	}
	if _, err := NewScorer("bogus", Options{}); err == nil {
		t.Error("unknown scorer accepted")
	} else {
		for _, name := range ScorerNames() {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("scorer error %q does not enumerate %q", err, name)
			}
		}
	}
	if _, err := NewPipeline("hics", "bogus", Options{}); err == nil {
		t.Error("NewPipeline accepted unknown scorer")
	}
	if _, err := NewPipeline("bogus", "lof", Options{}); err == nil {
		t.Error("NewPipeline accepted unknown searcher")
	}
}

// The shared options must reach every component that reads them.
func TestOptionsReachComponents(t *testing.T) {
	p := core.Params{M: 7, Alpha: 0.25, Seed: 3, Cutoff: 9, TopK: 11, MaxDim: 4}
	o := Options{Search: p, MinPts: 17, Index: neighbors.KindBrute, TopN: 13}
	searchers := map[string]any{
		"hics":    &core.Searcher{Params: p},
		"enclus":  &enclus.Searcher{Params: enclus.Params{MaxDim: 4, TopK: 11, Cutoff: 9}},
		"ris":     &ris.Searcher{Params: ris.Params{MinPts: 17, TopK: 11, Cutoff: 9, MaxDim: 4}},
		"randsub": &randsub.Searcher{Params: randsub.Params{Count: 11, MaxDim: 4, Seed: 3}},
		"surfing": &surfing.Searcher{Params: surfing.Params{K: 17, TopK: 11, Cutoff: 9, MaxDim: 4}},
	}
	for name, want := range searchers {
		s, err := NewSearcher(name, o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s, want) {
			t.Errorf("%s = %+v, want %+v", name, s, want)
		}
	}
	scorers := map[string]ranking.Scorer{
		"lof":  ranking.LOFScorer{MinPts: 17, Index: neighbors.KindBrute},
		"knn":  ranking.KNNScorer{K: 17, Index: neighbors.KindBrute},
		"orca": orca.Scorer{K: 17, TopN: 13, Seed: 3, Index: neighbors.KindBrute},
	}
	for name, want := range scorers {
		sc, err := NewScorer(name, o)
		if err != nil {
			t.Fatal(err)
		}
		if sc != want {
			t.Errorf("%s = %+v, want %+v", name, sc, want)
		}
	}
}

func TestScorerSupportsFit(t *testing.T) {
	cases := map[string]bool{
		"lof": true, "knn": true, "orca": false, "outres": false, "bogus": false,
	}
	for name, want := range cases {
		if got := ScorerSupportsFit(name); got != want {
			t.Errorf("ScorerSupportsFit(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestNewPipelineWiring(t *testing.T) {
	pipe, err := NewPipeline("enclus", "knn", Options{MinPts: 5, Index: neighbors.KindKDTree, Agg: ranking.Max, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if pipe.Searcher.Name() != "Enclus" || pipe.Scorer.Name() != "kNN" {
		t.Errorf("pipeline pair = %s+%s", pipe.Searcher.Name(), pipe.Scorer.Name())
	}
	if pipe.Agg != ranking.Max || pipe.Workers != 2 {
		t.Errorf("pipeline knobs not threaded: %+v", pipe)
	}
	if sc := pipe.Scorer.(ranking.KNNScorer); sc.K != 5 || sc.Index != neighbors.KindKDTree {
		t.Errorf("scorer option not threaded: %+v", pipe.Scorer)
	}
}

// fixedSubspaces selects the same subspaces on every search.
type fixedSubspaces []subspace.Scored

func (f fixedSubspaces) Search(context.Context, *dataset.Dataset) ([]subspace.Scored, error) {
	return f, nil
}
func (fixedSubspaces) Name() string { return "fixed" }

// freshBuffer hands its scorer a newly allocated buffer for every
// subspace, so no subspace's scores can leak into the next one's.
type freshBuffer struct{ ranking.Scorer }

func (f freshBuffer) Score(ctx context.Context, ds *dataset.Dataset, dims []int, workers int, scores []float64) error {
	fresh := make([]float64, len(scores))
	if err := f.Scorer.Score(ctx, ds, dims, workers, fresh); err != nil {
		return err
	}
	copy(scores, fresh)
	return nil
}

// TestRankReusedBufferMatchesFresh: Rank refills one buffer subspace
// after subspace, so every registered scorer must overwrite all of it.
// Ranking through that reused buffer must match, bit for bit, the fold of
// freshly allocated per-subspace scores. ORCA scores only its mined
// outliers, which differ between subspaces, so it must zero the rest.
func TestRankReusedBufferMatchesFresh(t *testing.T) {
	b, err := synth.Generate(synth.Config{N: 300, D: 6, MinSubspaceDim: 2, MaxSubspaceDim: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ds := b.Data.Data
	sel := fixedSubspaces{
		{S: subspace.New(0, 1)}, {S: subspace.New(2, 3)}, {S: subspace.New(4, 5)}, {S: subspace.New(1, 3, 5)},
	}
	for _, name := range ScorerNames() {
		sc, err := NewScorer(name, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, agg := range []ranking.Aggregation{ranking.Average, ranking.Max, ranking.Product} {
			reused, err := ranking.Pipeline{Searcher: sel, Scorer: sc, Agg: agg}.Rank(context.Background(), ds)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := ranking.Pipeline{Searcher: sel, Scorer: freshBuffer{sc}, Agg: agg}.Rank(context.Background(), ds)
			if err != nil {
				t.Fatal(err)
			}
			for i := range fresh.Scores {
				if math.Float64bits(reused.Scores[i]) != math.Float64bits(fresh.Scores[i]) {
					t.Fatalf("%s, %v: object %d scores %v through the reused buffer, %v through fresh ones",
						name, agg, i, reused.Scores[i], fresh.Scores[i])
				}
			}
		}
	}
}
