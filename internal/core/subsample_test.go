package core

import (
	"context"
	"math"
	"testing"

	"hics/internal/dataset"
	"hics/internal/subspace"
)

// TestSubsampleWithinTolerance: the bounded-subsample contrast must stay
// close to the full-data contrast — it estimates the same quantity on a
// uniform row sample — on both high- and low-contrast subspaces.
func TestSubsampleWithinTolerance(t *testing.T) {
	pFull := Params{M: 100, Seed: 19}
	pSub := pFull
	pSub.MaxSampleRows = 1000
	for name, ds := range map[string]*dataset.Dataset{
		"correlated":   correlatedPair(18, 5000, 2),
		"uncorrelated": uncorrelated(20, 5000, 2),
	} {
		full, err := ContrastOf(ds, subspace.New(0, 1), pFull)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := ContrastOf(ds, subspace.New(0, 1), pSub)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(full-sub) > 0.1 {
			t.Errorf("%s: subsampled contrast %v vs full %v, |Δ| > 0.1", name, sub, full)
		}
	}
}

// TestSubsampleDeterministicAndGated: the subsample is drawn from a
// derived stream keyed to the subspace, so repeated calls agree exactly;
// and a bound at or above N changes nothing — bit-for-bit the full-data
// contrast.
func TestSubsampleDeterministicAndGated(t *testing.T) {
	ds := correlatedPair(21, 2000, 3)
	p := Params{M: 50, Seed: 22, MaxSampleRows: 500}
	a, err := ContrastOf(ds, subspace.New(0, 1, 2), p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ContrastOf(ds, subspace.New(0, 1, 2), p)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("subsampled contrast not deterministic: %v vs %v", a, b)
	}
	pOff := p
	pOff.MaxSampleRows = 0
	pHigh := p
	pHigh.MaxSampleRows = ds.N() // bound == N: no subsample engaged
	full, err := ContrastOf(ds, subspace.New(0, 1, 2), pOff)
	if err != nil {
		t.Fatal(err)
	}
	gated, err := ContrastOf(ds, subspace.New(0, 1, 2), pHigh)
	if err != nil {
		t.Fatal(err)
	}
	if gated != full {
		t.Errorf("MaxSampleRows = N changed the contrast: %v vs %v", gated, full)
	}
}

// TestSubsampleParentStreamUntouched: engaging the subsample derives its
// randomness from a side stream, so the Monte Carlo iteration stream is
// unperturbed — the same seed draws the same slices whether or not the
// run is subsampled. Observable consequence: two different bounds on the
// same data still produce highly similar estimates (same slice pattern on
// different row samples), and the full run is exactly reproducible after
// a subsampled one.
func TestSubsampleParentStreamUntouched(t *testing.T) {
	ds := correlatedPair(23, 3000, 2)
	full1, err := ContrastOf(ds, subspace.New(0, 1), Params{M: 50, Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ContrastOf(ds, subspace.New(0, 1), Params{M: 50, Seed: 24, MaxSampleRows: 800}); err != nil {
		t.Fatal(err)
	}
	full2, err := ContrastOf(ds, subspace.New(0, 1), Params{M: 50, Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	if full1 != full2 {
		t.Errorf("full contrast not reproducible around a subsampled run: %v vs %v", full1, full2)
	}
}

// TestAdaptiveWithSubsampleSearch: a subsampled search still finds the
// planted subspace, and the ignored AdaptiveM field leaves every
// candidate spending exactly M iterations.
func TestAdaptiveWithSubsampleSearch(t *testing.T) {
	ds := correlatedPair(25, 2000, 8)
	p := Params{M: 60, Seed: 26, Cutoff: 6, TopK: 5, MaxDim: 2, AdaptiveM: true, MaxSampleRows: 500}
	res, err := SearchContext(context.Background(), ds, p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Subspaces[0].S.SupersetOf(subspace.New(0, 1)) {
		t.Errorf("top subspace %v does not contain the planted pair", res.Subspaces[0].S)
	}
	if res.MCIterations != res.Evaluated*60 {
		t.Errorf("spent %d Monte Carlo iterations, want %d", res.MCIterations, res.Evaluated*60)
	}
}
