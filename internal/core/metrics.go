package core

import "hics/internal/metrics"

// Fit observability: how much Monte Carlo work the subspace search
// spends. The counters are process-wide (every Fit/Rank/stream-refit
// search adds to them).
var (
	mCandidates = metrics.Default.NewCounter("hics_fit_candidates_total",
		"Candidate subspaces whose contrast the subspace search estimated (all Apriori levels).")
	mMCIterations = metrics.Default.NewCounter("hics_fit_mc_iterations_total",
		"Monte Carlo contrast iterations executed by the subspace search.")
	mContrastSampleRows = metrics.Default.NewCounter("hics_fit_contrast_sample_rows_total",
		"Rows drawn into bounded-subsample contrast estimates (MaxSampleRows per sampled candidate).")
)
