package hics

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"
)

// TestAdaptiveFitMatchesRank: the fit/rank equivalence holds with
// contrast subsampling enabled — training scores are bit-for-bit the Rank
// scores under the same options.
func TestAdaptiveFitMatchesRank(t *testing.T) {
	rows := demoRows(33, 400, 6)
	opts := Options{M: 40, Seed: 33, MaxSampleRows: 300, CandidateCutoff: 8}
	res, err := Rank(rows, opts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Fit(rows, opts)
	if err != nil {
		t.Fatal(err)
	}
	train := m.TrainingScores()
	if len(train) != len(res.Scores) {
		t.Fatalf("%d training scores for %d objects", len(train), len(res.Scores))
	}
	for i := range res.Scores {
		if train[i] != res.Scores[i] {
			t.Fatalf("train[%d] = %v, Rank = %v", i, train[i], res.Scores[i])
		}
	}
}

// TestPerfOptionValidation: the performance knobs are validated at the
// API boundary, and the removed "lsh" backend is an unknown index name.
func TestPerfOptionValidation(t *testing.T) {
	rows := demoRows(34, 50, 3)
	if _, err := Rank(rows, Options{MaxSampleRows: -1}); err == nil {
		t.Error("negative MaxSampleRows should be rejected")
	}
	for _, index := range []string{"octree", "lsh"} {
		if _, err := Rank(rows, Options{M: 5, NeighborIndex: index}); err == nil {
			t.Errorf("Rank with NeighborIndex %q should be rejected", index)
		}
		if _, err := Fit(rows, Options{M: 5, NeighborIndex: index}); err == nil {
			t.Errorf("Fit with NeighborIndex %q should be rejected", index)
		}
	}
}

// TestAdaptiveMIsIgnored: AdaptiveM is a no-op — a fit with it set is
// bit-for-bit the default fit: same training scores, subspaces and
// contrasts.
func TestAdaptiveMIsIgnored(t *testing.T) {
	rows := demoRows(36, 400, 8)
	opts := Options{M: 40, Seed: 36, CandidateCutoff: 6}
	flat, err := Fit(rows, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.AdaptiveM = true
	adaptive, err := Fit(rows, opts)
	if err != nil {
		t.Fatal(err)
	}
	fs, as := flat.Subspaces(), adaptive.Subspaces()
	if len(fs) != len(as) {
		t.Fatalf("AdaptiveM froze %d subspaces, default %d", len(as), len(fs))
	}
	for i := range fs {
		if !slices.Equal(fs[i].Dims, as[i].Dims) || fs[i].Contrast != as[i].Contrast {
			t.Fatalf("subspace %d: AdaptiveM %v (%v), default %v (%v)",
				i, as[i].Dims, as[i].Contrast, fs[i].Dims, fs[i].Contrast)
		}
	}
	ft, at := flat.TrainingScores(), adaptive.TrainingScores()
	for i := range ft {
		if ft[i] != at[i] {
			t.Fatalf("train[%d]: AdaptiveM %v, default %v", i, at[i], ft[i])
		}
	}
}

// TestFitContextCancelAdaptive: cancellation lands inside the Monte Carlo
// loop of a subsampled fit — it surfaces ctx.Err() promptly and leaks no
// goroutines.
func TestFitContextCancelAdaptive(t *testing.T) {
	rows := demoRows(35, 500, 12)
	baseline := goroutineBaseline()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	opts := heavyOpts()
	opts.MaxSampleRows = 400
	_, err := FitContext(ctx, rows, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	waitGoroutines(t, baseline)
}
