package hics

// Integration tests exercising the decoupled two-step matrix end-to-end:
// every registry-listed subspace searcher combined with every scorer on
// one benchmark, through the public Rank entry point, verifying the
// modularity claim the paper's introduction makes — "one can design and
// combine the respective algorithms in a modular fashion".

import (
	"context"
	"fmt"
	"testing"

	"hics/internal/core"
	"hics/internal/eval"
	"hics/internal/randsub"
	"hics/internal/ranking"
	"hics/internal/synth"
)

func TestSearcherScorerMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size searcher x scorer matrix is slow under -race; the tiny always-on variant lives in hics_test.go")
	}
	b, err := synth.Generate(synth.Config{N: 300, D: 10, MinSubspaceDim: 2, MaxSubspaceDim: 3, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, b.Data.Data.N())
	for i := range rows {
		rows[i] = b.Data.Data.Row(i, nil)
	}

	for _, search := range SearcherNames() {
		for _, scorer := range ScorerNames() {
			name := fmt.Sprintf("%s+%s", search, scorer)
			t.Run(name, func(t *testing.T) {
				res, err := Rank(rows, Options{
					M: 15, Seed: 1, TopK: 20, MaxDim: 4,
					Search: search, Scorer: scorer,
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(res.Scores) != len(rows) {
					t.Fatalf("%s: %d scores for %d objects", name, len(res.Scores), len(rows))
				}
				auc, err := eval.AUC(res.Scores, b.Data.Outlier)
				if err != nil {
					t.Fatal(err)
				}
				// Every combination must be meaningfully better than random
				// on this easy planted benchmark — the point is that the
				// pieces compose, not that they are all equally good.
				if auc < 0.55 {
					t.Errorf("%s: AUC %.3f barely above random", name, auc)
				}
			})
		}
	}
}

// The statistical instantiations must compose with the pipeline too, and
// the informed searchers must beat the random baseline on planted data.
func TestInstantiationsOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("searcher-ordering comparison takes minutes under -race; run without -short")
	}
	b, err := synth.Generate(synth.Config{N: 400, D: 16, MinSubspaceDim: 2, MaxSubspaceDim: 3, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	ds := b.Data.Data
	aucOf := func(s ranking.SubspaceSearcher) float64 {
		pipe := ranking.Pipeline{Searcher: s, Scorer: ranking.LOFScorer{MinPts: 10}}
		res, err := pipe.Rank(context.Background(), ds)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		auc, err := eval.AUC(res.Scores, b.Data.Outlier)
		if err != nil {
			t.Fatal(err)
		}
		return auc
	}
	var hicsVariants []float64
	for _, tt := range []core.Test{core.WelchT, core.KolmogorovSmirnov, core.MannWhitney, core.CramerVonMises} {
		hicsVariants = append(hicsVariants, aucOf(&core.Searcher{Params: core.Params{M: 30, Seed: 2, TopK: 40, Test: tt}}))
	}
	randBaseline := aucOf(&randsub.Searcher{Params: randsub.Params{Count: 40, Seed: 2}})
	for i, auc := range hicsVariants {
		if auc <= randBaseline {
			t.Errorf("HiCS variant %d AUC %.3f not above RANDSUB %.3f", i, auc, randBaseline)
		}
	}
}
