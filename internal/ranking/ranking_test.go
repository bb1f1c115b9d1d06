package ranking

import (
	"context"
	"errors"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"hics/internal/core"
	"hics/internal/dataset"
	"hics/internal/eval"
	"hics/internal/lof"
	"hics/internal/neighbors"
	"hics/internal/race"
	"hics/internal/randsub"
	"hics/internal/rng"
	"hics/internal/subspace"
	"hics/internal/synth"
)

func benchData(t *testing.T, seed uint64) *synth.Benchmark {
	t.Helper()
	b, err := synth.Generate(synth.Config{N: 400, D: 8, MinSubspaceDim: 2, MaxSubspaceDim: 3, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFullSpaceLOFPipeline(t *testing.T) {
	b := benchData(t, 1)
	p := Pipeline{Searcher: FullSpace{}, Scorer: LOFScorer{MinPts: 10}}
	res, err := p.Rank(context.Background(), b.Data.Data)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scores) != b.Data.Data.N() {
		t.Fatalf("score count %d", len(res.Scores))
	}
	if len(res.Subspaces) != 1 || res.Subspaces[0].S.Dim() != b.Data.Data.D() {
		t.Errorf("full space pipeline used %v", res.Subspaces)
	}
	if p.Name() != "LOF" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestHiCSPipelineBeatsFullSpaceOnPlantedData(t *testing.T) {
	// Higher-dimensional noise hurts full-space LOF; HiCS should find the
	// planted 2-3-d groups and beat it.
	b, err := synth.Generate(synth.Config{N: 500, D: 20, MinSubspaceDim: 2, MaxSubspaceDim: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ds := b.Data.Data

	hics := Pipeline{
		Searcher: &core.Searcher{Params: core.Params{M: 50, Seed: 1, TopK: 40}},
		Scorer:   LOFScorer{MinPts: 10},
	}
	full := Pipeline{Searcher: FullSpace{}, Scorer: LOFScorer{MinPts: 10}}

	rh, err := hics.Rank(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := full.Rank(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	aucH, err := eval.AUC(rh.Scores, b.Data.Outlier)
	if err != nil {
		t.Fatal(err)
	}
	aucF, err := eval.AUC(rf.Scores, b.Data.Outlier)
	if err != nil {
		t.Fatal(err)
	}
	if aucH <= aucF {
		t.Errorf("HiCS AUC %.3f not above full-space AUC %.3f", aucH, aucF)
	}
	if aucH < 0.8 {
		t.Errorf("HiCS AUC %.3f unexpectedly low on planted data", aucH)
	}
	if hics.Name() != "HiCS+LOF" {
		t.Errorf("Name = %q", hics.Name())
	}
}

func TestMaxSubspacesCap(t *testing.T) {
	b := benchData(t, 2)
	p := Pipeline{
		Searcher:     &randsub.Searcher{Params: randsub.Params{Count: 30, Seed: 1}},
		Scorer:       KNNScorer{K: 5},
		MaxSubspaces: 4,
	}
	res, err := p.Rank(context.Background(), b.Data.Data)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Subspaces) != 4 {
		t.Errorf("cap ignored: %d subspaces scored", len(res.Subspaces))
	}
}

func TestAggregationAverageVsMax(t *testing.T) {
	b := benchData(t, 3)
	searcher := &randsub.Searcher{Params: randsub.Params{Count: 10, MinDim: 2, MaxDim: 3, Seed: 2}}
	avg := Pipeline{Searcher: searcher, Scorer: LOFScorer{}, Agg: Average}
	max := Pipeline{Searcher: searcher, Scorer: LOFScorer{}, Agg: Max}
	ra, err := avg.Rank(context.Background(), b.Data.Data)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := max.Rank(context.Background(), b.Data.Data)
	if err != nil {
		t.Fatal(err)
	}
	// Max aggregation dominates average pointwise.
	for i := range ra.Scores {
		if rm.Scores[i] < ra.Scores[i]-1e-9 {
			t.Fatalf("max < average at %d: %v vs %v", i, rm.Scores[i], ra.Scores[i])
		}
	}
	if Average.String() != "average" || Max.String() != "max" {
		t.Error("Aggregation names wrong")
	}
}

func TestPipelineErrors(t *testing.T) {
	b := benchData(t, 4)
	if _, err := (Pipeline{}).Rank(context.Background(), b.Data.Data); err == nil {
		t.Error("missing components should fail")
	}
	empty := Pipeline{Searcher: emptySearcher{}, Scorer: LOFScorer{}}
	if _, err := empty.Rank(context.Background(), b.Data.Data); err == nil {
		t.Error("empty subspace list should fail")
	}
	failing := Pipeline{Searcher: failingSearcher{}, Scorer: LOFScorer{}}
	if _, err := failing.Rank(context.Background(), b.Data.Data); err == nil {
		t.Error("searcher error should propagate")
	}
}

type emptySearcher struct{}

func (emptySearcher) Search(context.Context, *dataset.Dataset) ([]subspace.Scored, error) {
	return nil, nil
}
func (emptySearcher) Name() string { return "empty" }

type failingSearcher struct{}

func (failingSearcher) Search(context.Context, *dataset.Dataset) ([]subspace.Scored, error) {
	return nil, errors.New("boom")
}
func (failingSearcher) Name() string { return "failing" }

func TestPCAPipeline(t *testing.T) {
	b := benchData(t, 5)
	p := PCAPipeline{
		Components: func(d int) int { return d / 2 },
		Scorer:     LOFScorer{MinPts: 10},
		Label:      "PCALOF1",
	}
	res, err := p.Rank(context.Background(), b.Data.Data)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scores) != b.Data.Data.N() {
		t.Fatalf("score count %d", len(res.Scores))
	}
	if res.Subspaces[0].S.Dim() != b.Data.Data.D()/2 {
		t.Errorf("PCA projected to %d dims", res.Subspaces[0].S.Dim())
	}
	if p.Name() != "PCALOF1" {
		t.Errorf("Name = %q", p.Name())
	}
	unlabeled := PCAPipeline{Components: func(int) int { return 2 }, Scorer: KNNScorer{}}
	if unlabeled.Name() != "PCA+kNN" {
		t.Errorf("default name = %q", unlabeled.Name())
	}
}

func TestPCAPipelineClampsComponents(t *testing.T) {
	b := benchData(t, 6)
	p := PCAPipeline{Components: func(d int) int { return d + 10 }, Scorer: KNNScorer{K: 5}}
	res, err := p.Rank(context.Background(), b.Data.Data)
	if err != nil {
		t.Fatal(err)
	}
	if res.Subspaces[0].S.Dim() != b.Data.Data.D() {
		t.Errorf("clamp failed: %d", res.Subspaces[0].S.Dim())
	}
	zero := PCAPipeline{Components: func(int) int { return 0 }, Scorer: KNNScorer{K: 5}}
	if _, err := zero.Rank(context.Background(), b.Data.Data); err != nil {
		t.Errorf("k clamped to 1 should work: %v", err)
	}
}

func TestPCAPipelineErrors(t *testing.T) {
	b := benchData(t, 7)
	if _, err := (PCAPipeline{}).Rank(context.Background(), b.Data.Data); err == nil {
		t.Error("missing components should fail")
	}
}

func TestScorerNames(t *testing.T) {
	if (LOFScorer{}).Name() != "LOF" || (KNNScorer{}).Name() != "kNN" {
		t.Error("scorer names wrong")
	}
}

func TestScoresFiniteOrInf(t *testing.T) {
	b := benchData(t, 8)
	p := Pipeline{Searcher: FullSpace{}, Scorer: LOFScorer{MinPts: 5}}
	res, err := p.Rank(context.Background(), b.Data.Data)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.Scores {
		if math.IsNaN(s) {
			t.Fatalf("NaN score at %d", i)
		}
	}
}

func TestParseAggregation(t *testing.T) {
	cases := map[string]Aggregation{
		"": Average, "average": Average, "avg": Average, "mean": Average,
		"max": Max, "product": Product, "prod": Product,
	}
	for s, want := range cases {
		got, err := ParseAggregation(s)
		if err != nil || got != want {
			t.Errorf("ParseAggregation(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseAggregation("median"); err == nil {
		t.Error("ParseAggregation should reject unknown names")
	}
	if Product.String() != "product" {
		t.Errorf("Product.String() = %q", Product.String())
	}
}

// TestFitTrainScoresEqualRank is the fit/score split's core contract at
// the pipeline level: for every scorer, aggregation and backend, the
// fitted pipeline's training scores are bit-for-bit the Rank scores, and
// ScorePoint on a training row's out-of-sample formula stays finite.
func TestFitTrainScoresEqualRank(t *testing.T) {
	b := benchData(t, 10)
	ds := b.Data.Data
	searcher := &core.Searcher{Params: core.Params{M: 20, Seed: 3, TopK: 15}}
	for _, scorer := range []Scorer{LOFScorer{MinPts: 10}, KNNScorer{K: 10}} {
		for _, agg := range []Aggregation{Average, Max, Product} {
			for _, kind := range []neighbors.Kind{neighbors.KindAuto, neighbors.KindBrute, neighbors.KindKDTree} {
				p := Pipeline{Searcher: searcher, Scorer: pinIndex(scorer, kind), Agg: agg}
				res, err := p.Rank(context.Background(), ds)
				if err != nil {
					t.Fatal(err)
				}
				fp, err := p.Fit(context.Background(), ds)
				if err != nil {
					t.Fatal(err)
				}
				if len(fp.Train) != len(res.Scores) || len(fp.Scorers) != len(res.Subspaces) {
					t.Fatalf("%s/%s/%v: fitted sizes train=%d scorers=%d vs rank scores=%d subspaces=%d",
						scorer.Name(), agg, kind, len(fp.Train), len(fp.Scorers), len(res.Scores), len(res.Subspaces))
				}
				for i := range res.Scores {
					if fp.Train[i] != res.Scores[i] {
						t.Fatalf("%s/%s/%v: train[%d] = %v, Rank = %v",
							scorer.Name(), agg, kind, i, fp.Train[i], res.Scores[i])
					}
				}
			}
		}
	}
}

// TestFitScorePointBackendEquivalence: out-of-sample pipeline scores agree
// bit for bit across pinned backends.
func TestFitScorePointBackendEquivalence(t *testing.T) {
	b := benchData(t, 11)
	ds := b.Data.Data
	searcher := &core.Searcher{Params: core.Params{M: 20, Seed: 4, TopK: 10}}
	brute, err := Pipeline{Searcher: searcher, Scorer: LOFScorer{MinPts: 10, Index: neighbors.KindBrute}}.Fit(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Pipeline{Searcher: searcher, Scorer: LOFScorer{MinPts: 10, Index: neighbors.KindKDTree}}.Fit(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 0, ds.D())
	for i := 0; i < ds.N(); i += 13 {
		row := ds.Row(i, buf)
		// Perturb the row so the query is genuinely out-of-sample.
		for j := range row {
			row[j] += 0.01 * float64(j+1)
		}
		sb, err := brute.ScorePoint(row)
		if err != nil {
			t.Fatal(err)
		}
		st, err := tree.ScorePoint(row)
		if err != nil {
			t.Fatal(err)
		}
		if sb != st {
			t.Fatalf("ScorePoint row %d: brute %v != kdtree %v", i, sb, st)
		}
		if math.IsNaN(sb) {
			t.Fatalf("ScorePoint row %d: NaN", i)
		}
	}
	if _, err := brute.ScorePoint(make([]float64, ds.D()+1)); err == nil {
		t.Error("dimension mismatch should fail")
	}
}

func TestFitErrors(t *testing.T) {
	b := benchData(t, 12)
	if _, err := (Pipeline{}).Fit(context.Background(), b.Data.Data); err == nil {
		t.Error("missing components should fail")
	}
	if _, err := (Pipeline{Searcher: emptySearcher{}, Scorer: LOFScorer{}}).Fit(context.Background(), b.Data.Data); err == nil {
		t.Error("empty subspace list should fail")
	}
	if _, err := (Pipeline{Searcher: FullSpace{}, Scorer: unfittableScorer{}}).Fit(context.Background(), b.Data.Data); err == nil {
		t.Error("non-FitScorer should fail")
	}
}

type unfittableScorer struct{}

func (unfittableScorer) Score(context.Context, *dataset.Dataset, []int, int, []float64) error {
	return nil
}
func (unfittableScorer) Name() string { return "unfittable" }

// pinIndex returns a copy of a neighbor-based scorer with its Index field
// set to kind.
func pinIndex(s Scorer, kind neighbors.Kind) Scorer {
	switch s := s.(type) {
	case LOFScorer:
		s.Index = kind
		return s
	case KNNScorer:
		s.Index = kind
		return s
	}
	panic("pinIndex: not a neighbor-based scorer")
}

// TestPipelineIndexOverride: the scorer's Index field pins the backend
// its fits use, and the pinned backends agree bit for bit.
func TestPipelineIndexOverride(t *testing.T) {
	b := benchData(t, 9)
	for _, scorer := range []Scorer{LOFScorer{MinPts: 10}, KNNScorer{K: 10}} {
		base := Pipeline{Searcher: FullSpace{}, Scorer: scorer}
		brute := Pipeline{Searcher: FullSpace{}, Scorer: pinIndex(scorer, neighbors.KindBrute)}
		tree := Pipeline{Searcher: FullSpace{}, Scorer: pinIndex(scorer, neighbors.KindKDTree)}
		rBase, err := base.Rank(context.Background(), b.Data.Data)
		if err != nil {
			t.Fatal(err)
		}
		rBrute, err := brute.Rank(context.Background(), b.Data.Data)
		if err != nil {
			t.Fatal(err)
		}
		rTree, err := tree.Rank(context.Background(), b.Data.Data)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rBase.Scores {
			if rBrute.Scores[i] != rTree.Scores[i] || rBase.Scores[i] != rTree.Scores[i] {
				t.Fatalf("%s score[%d]: auto %v, brute %v, kdtree %v", scorer.Name(), i,
					rBase.Scores[i], rBrute.Scores[i], rTree.Scores[i])
			}
		}
	}
	// The fitted state runs on the pinned backend.
	for _, kind := range []neighbors.Kind{neighbors.KindBrute, neighbors.KindKDTree} {
		fp, err := Pipeline{Searcher: FullSpace{}, Scorer: LOFScorer{MinPts: 5, Index: kind}}.Fit(context.Background(), b.Data.Data)
		if err != nil {
			t.Fatal(err)
		}
		if got := fp.Scorers[0].State.(*lof.Fitted).Kind(); got != kind {
			t.Errorf("fit pinned to %v ran on %v", kind, got)
		}
	}
}

// fixedSearcher selects the same subspaces on every search.
type fixedSearcher []subspace.Scored

func (f fixedSearcher) Search(context.Context, *dataset.Dataset) ([]subspace.Scored, error) {
	return f, nil
}
func (fixedSearcher) Name() string { return "fixed" }

// TestFitAllocatesKeptStateOnly pins what each subspace adds to a fit's
// allocations: the state the model keeps, but no N-sized slice of
// training scores, since every subspace writes its scores into the one
// buffer Fit owns. On a brute index the kept state is the LOF
// k-distances and lrds (16 bytes per object), and nothing N-sized for
// the kNN score. The slack is two bytes per object, a quarter of a score
// slice. One worker at GOMAXPROCS 1 with the collector off, so the LOF
// neighborhood pool keeps its slab between subspaces.
func TestFitAllocatesKeptStateOnly(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops items under -race; the pin runs in non-race builds")
	}
	const n = 3000
	r := rng.New(5)
	cols := [][]float64{make([]float64, n), make([]float64, n)}
	for i := 0; i < n; i++ {
		cols[0][i], cols[1][i] = r.Float64(), r.Float64()
	}
	ds := dataset.MustNew(nil, cols)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range []struct {
		scorer Scorer
		kept   int // bytes per object the fitted state keeps per subspace
	}{
		{KNNScorer{K: 10, Index: neighbors.KindBrute}, 0},
		{LOFScorer{MinPts: 10, Index: neighbors.KindBrute}, 16},
	} {
		fitBytes := func(subspaces int) uint64 {
			sel := make(fixedSearcher, subspaces)
			for i := range sel {
				sel[i] = subspace.Scored{S: subspace.New(0, 1)}
			}
			p := Pipeline{Searcher: sel, Scorer: c.scorer, Workers: 1}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := p.Fit(context.Background(), ds); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		fitBytes(1) // fills the neighborhood pool
		one, nine := fitBytes(1), fitBytes(9)
		perSubspace := float64(nine-one) / 8
		t.Logf("%s: %d bytes for one subspace, %.0f per further one", c.scorer.Name(), one, perSubspace)
		if limit := float64((c.kept + 2) * n); perSubspace > limit {
			t.Errorf("%s: each further subspace allocates %.0f bytes, want at most %.0f (kept state plus %d bytes)",
				c.scorer.Name(), perSubspace, limit, 2*n)
		}
	}
}

// TestRankAllocatesLikeFit pins that Rank scores every subspace into one
// reused buffer, as Fit does: each further subspace may allocate under
// Rank at most what it allocates under Fit, which also keeps the fitted
// state, plus two bytes per object. A fresh score slice per subspace
// would add eight. On the k-d tree, one worker at GOMAXPROCS 1 with the
// collector off, as in TestFitAllocatesKeptStateOnly.
func TestRankAllocatesLikeFit(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops items under -race; the pin runs in non-race builds")
	}
	const n = 3000
	r := rng.New(5)
	cols := [][]float64{make([]float64, n), make([]float64, n)}
	for i := 0; i < n; i++ {
		cols[0][i], cols[1][i] = r.Float64(), r.Float64()
	}
	ds := dataset.MustNew(nil, cols)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := context.Background()
	rank := func(p Pipeline) error { _, err := p.Rank(ctx, ds); return err }
	fit := func(p Pipeline) error { _, err := p.Fit(ctx, ds); return err }
	for _, scorer := range []Scorer{
		KNNScorer{K: 10, Index: neighbors.KindKDTree},
		LOFScorer{MinPts: 10, Index: neighbors.KindKDTree},
	} {
		// perSubspace is what each subspace beyond the first allocates.
		perSubspace := func(run func(Pipeline) error) float64 {
			bytes := func(subspaces int) uint64 {
				sel := make(fixedSearcher, subspaces)
				for i := range sel {
					sel[i] = subspace.Scored{S: subspace.New(0, 1)}
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if err := run(Pipeline{Searcher: sel, Scorer: scorer, Workers: 1}); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				return after.TotalAlloc - before.TotalAlloc
			}
			bytes(1) // fills the neighborhood pool
			one, nine := bytes(1), bytes(9)
			return float64(nine-one) / 8
		}
		r, f := perSubspace(rank), perSubspace(fit)
		t.Logf("%s: each further subspace allocates %.0f bytes under Rank, %.0f under Fit", scorer.Name(), r, f)
		if r > f+2*n {
			t.Errorf("%s: each further subspace allocates %.0f bytes under Rank, %.0f under Fit; want at most %d more",
				scorer.Name(), r, f, 2*n)
		}
	}
}
