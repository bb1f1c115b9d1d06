package registry

import (
	"reflect"
	"strings"
	"testing"

	"hics/internal/core"
	"hics/internal/neighbors"
	"hics/internal/ranking"
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
		s, err := NewSearcher(name, SearcherOptions{})
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
		sc, err := NewScorer(name, ScorerOptions{})
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
	s, err := NewSearcher("", SearcherOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "HiCS" {
		t.Errorf("default searcher is %s, want HiCS", s.Name())
	}
	sc, err := NewScorer("", ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name() != "LOF" {
		t.Errorf("default scorer is %s, want LOF", sc.Name())
	}

	// Unknown names must enumerate every valid value.
	if _, err := NewSearcher("bogus", SearcherOptions{}); err == nil {
		t.Error("unknown searcher accepted")
	} else {
		for _, name := range SearcherNames() {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("searcher error %q does not enumerate %q", err, name)
			}
		}
	}
	if _, err := NewScorer("bogus", ScorerOptions{}); err == nil {
		t.Error("unknown scorer accepted")
	} else {
		for _, name := range ScorerNames() {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("scorer error %q does not enumerate %q", err, name)
			}
		}
	}
	if _, err := NewPipeline("hics", "bogus", PipelineOptions{}); err == nil {
		t.Error("NewPipeline accepted unknown scorer")
	}
	if _, err := NewPipeline("bogus", "lof", PipelineOptions{}); err == nil {
		t.Error("NewPipeline accepted unknown searcher")
	}
}

// Per-method options must reach the constructed component.
func TestOptionsReachComponents(t *testing.T) {
	p := core.Params{M: 7, Alpha: 0.25, Seed: 3}
	s, err := NewSearcher("hics", SearcherOptions{HiCS: p})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.(*core.Searcher).Params; got != p {
		t.Errorf("hics params = %+v, want %+v", got, p)
	}
	sc, err := NewScorer("lof", ScorerOptions{LOF: LOFOptions{MinPts: 17, Index: neighbors.KindBrute}})
	if err != nil {
		t.Fatal(err)
	}
	want := ranking.LOFScorer{MinPts: 17, Index: neighbors.KindBrute}
	if sc.(ranking.LOFScorer) != want {
		t.Errorf("lof scorer = %+v, want %+v", sc, want)
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
	pipe, err := NewPipeline("enclus", "knn", PipelineOptions{
		Scorers:      ScorerOptions{KNN: KNNOptions{K: 5, Index: neighbors.KindKDTree}},
		Agg:          ranking.Max,
		MaxSubspaces: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pipe.Searcher.Name() != "Enclus" || pipe.Scorer.Name() != "kNN" {
		t.Errorf("pipeline pair = %s+%s", pipe.Searcher.Name(), pipe.Scorer.Name())
	}
	if pipe.Agg != ranking.Max || pipe.MaxSubspaces != -1 {
		t.Errorf("pipeline knobs not threaded: %+v", pipe)
	}
	if sc := pipe.Scorer.(ranking.KNNScorer); sc.K != 5 || sc.Index != neighbors.KindKDTree {
		t.Errorf("scorer option not threaded: %+v", pipe.Scorer)
	}
}
