package outres

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"hics/internal/dataset"
	"hics/internal/eval"
	"hics/internal/rng"
)

func clusterWithOutlier(seed uint64, n int) (*dataset.Dataset, int) {
	r := rng.New(seed)
	x := make([]float64, n+1)
	y := make([]float64, n+1)
	for i := 0; i < n; i++ {
		x[i] = r.NormalScaled(0.5, 0.04)
		y[i] = r.NormalScaled(0.5, 0.04)
	}
	x[n], y[n] = 0.8, 0.2
	return dataset.MustNew(nil, [][]float64{x, y}), n
}

func TestScoreFlagsOutlier(t *testing.T) {
	ds, out := clusterWithOutlier(1, 150)
	scores, err := score(Scorer{}, ds, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if scores[out] <= 0 {
		t.Fatalf("outlier score = %v, want positive", scores[out])
	}
	better := 0
	for i := 0; i < out; i++ {
		if scores[i] >= scores[out] {
			better++
		}
	}
	if better > 3 {
		t.Errorf("outlier beaten by %d cluster points", better)
	}
}

func TestScoresNonNegative(t *testing.T) {
	ds, _ := clusterWithOutlier(2, 100)
	scores, err := score(Scorer{}, ds, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range scores {
		if s < 0 || math.IsNaN(s) {
			t.Fatalf("score[%d] = %v", i, s)
		}
	}
}

func TestBandwidthScaleChangesScores(t *testing.T) {
	ds, _ := clusterWithOutlier(3, 120)
	a, err := score(Scorer{BandwidthScale: 0.5}, ds, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := score(Scorer{BandwidthScale: 2}, ds, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("bandwidth scale has no effect")
	}
}

func TestScoreErrors(t *testing.T) {
	ds := dataset.MustNew(nil, [][]float64{{1, 2}})
	if _, err := score(Scorer{}, ds, []int{0}); err == nil {
		t.Error("tiny dataset should fail")
	}
	ds2 := dataset.MustNew(nil, [][]float64{{1, 2, 3, 4}})
	if _, err := score(Scorer{}, ds2, []int{9}); err == nil {
		t.Error("bad dims should fail")
	}
}

func TestName(t *testing.T) {
	if (Scorer{}).Name() != "OUTRES" {
		t.Error("name wrong")
	}
}

func TestQualityOnBenchmark(t *testing.T) {
	// OUTRES must produce a meaningful ranking on a clustered dataset with
	// scattered minority outliers.
	r := rng.New(4)
	n := 300
	x := make([]float64, n)
	y := make([]float64, n)
	labels := make([]bool, n)
	for i := 0; i < n; i++ {
		if i < 15 {
			labels[i] = true
			x[i] = r.Float64()
			y[i] = r.Float64()
		} else {
			c := 0.3
			if r.Float64() < 0.5 {
				c = 0.7
			}
			x[i] = r.NormalScaled(c, 0.03)
			y[i] = r.NormalScaled(c, 0.03)
		}
	}
	ds := dataset.MustNew(nil, [][]float64{x, y})
	scores, err := score(Scorer{}, ds, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	auc, err := eval.AUC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if auc < 0.85 {
		t.Errorf("OUTRES AUC = %.3f on easy data, want high", auc)
	}
}

// Property: scores are finite and non-negative on arbitrary data.
func TestQuickScoresSane(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		r := rng.New(seed)
		n := int(nRaw%80) + 10
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = r.Float64()
			y[i] = r.Float64()
		}
		ds := dataset.MustNew(nil, [][]float64{x, y})
		scores, err := score(Scorer{}, ds, []int{0, 1})
		if err != nil {
			return false
		}
		for _, s := range scores {
			if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// score runs s on a fresh buffer.
func score(s Scorer, ds *dataset.Dataset, dims []int) ([]float64, error) {
	scores := make([]float64, ds.N())
	return scores, s.Score(context.Background(), ds, dims, 0, scores)
}
