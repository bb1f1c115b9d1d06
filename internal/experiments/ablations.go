package experiments

import (
	"context"
	"fmt"
	"io"

	"hics/internal/core"
	"hics/internal/eval"
	"hics/internal/ranking"
)

// AblationWTvsKS compares the two statistical instantiations of the
// contrast measure (DESIGN.md ablation 1) at paper-default parameters.
func AblationWTvsKS(ctx context.Context, w io.Writer, cfg Config) error {
	reps := cfg.sizing().paramReps
	data, err := paramSweepData(cfg, reps)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# Ablation — Welch t-test vs Kolmogorov-Smirnov deviation")
	fmt.Fprintf(w, "%-10s %10s %12s\n", "variant", "AUC", "runtime")
	for _, tt := range []core.Test{core.WelchT, core.KolmogorovSmirnov} {
		name := "HiCS_WT"
		if tt == core.KolmogorovSmirnov {
			name = "HiCS_KS"
		}
		var aucs, secs []float64
		for _, l := range data {
			p := hicsParams(cfg.Seed)
			p.Test = tt
			auc, elapsed, err := rankAUC(ctx, pipeline("hics", "lof", p), l)
			if err != nil {
				return err
			}
			aucs = append(aucs, auc)
			secs = append(secs, elapsed.Seconds())
		}
		aucMean, _ := eval.MeanStd(aucs)
		secMean, _ := eval.MeanStd(secs)
		fmt.Fprintf(w, "%-10s %9.1f%% %11.2fs\n", name, 100*aucMean, secMean)
	}
	return nil
}

// AblationAggregation compares average vs max aggregation of per-subspace
// scores (Sec. IV-C; DESIGN.md ablation 2). The paper argues max is
// sensitive to fluctuations when many subspaces are ranked.
func AblationAggregation(ctx context.Context, w io.Writer, cfg Config) error {
	reps := cfg.sizing().paramReps
	data, err := paramSweepData(cfg, reps)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# Ablation — average vs max aggregation (Definition 1)")
	fmt.Fprintf(w, "%-10s %10s\n", "agg", "AUC")
	for _, agg := range []ranking.Aggregation{ranking.Average, ranking.Max} {
		var aucs []float64
		for _, l := range data {
			pipe := pipeline("hics", "lof", hicsParams(cfg.Seed))
			pipe.Agg = agg
			auc, _, err := rankAUC(ctx, pipe, l)
			if err != nil {
				return err
			}
			aucs = append(aucs, auc)
		}
		mean, _ := eval.MeanStd(aucs)
		fmt.Fprintf(w, "%-10s %9.1f%%\n", agg.String(), 100*mean)
	}
	return nil
}

// AblationPruning compares the full framework against one with redundancy
// pruning disabled (Sec. IV-B; DESIGN.md ablation 4).
func AblationPruning(ctx context.Context, w io.Writer, cfg Config) error {
	reps := cfg.sizing().paramReps
	data, err := paramSweepData(cfg, reps)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# Ablation — redundancy pruning of dominated subspaces")
	fmt.Fprintf(w, "%-12s %10s\n", "pruning", "AUC")
	for _, disable := range []bool{false, true} {
		var aucs []float64
		for _, l := range data {
			p := hicsParams(cfg.Seed)
			p.DisablePruning = disable
			auc, _, err := rankAUC(ctx, pipeline("hics", "lof", p), l)
			if err != nil {
				return err
			}
			aucs = append(aucs, auc)
		}
		mean, _ := eval.MeanStd(aucs)
		name := "enabled"
		if disable {
			name = "disabled"
		}
		fmt.Fprintf(w, "%-12s %9.1f%%\n", name, 100*mean)
	}
	return nil
}

// AblationScorer compares the LOF instantiation with the kNN-distance
// score the paper names as a future-work alternative (ORCA-style).
func AblationScorer(ctx context.Context, w io.Writer, cfg Config) error {
	reps := cfg.sizing().paramReps
	data, err := paramSweepData(cfg, reps)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# Ablation — LOF vs kNN-distance scorer in the ranking step")
	fmt.Fprintf(w, "%-10s %10s %12s\n", "scorer", "AUC", "runtime")
	for _, scorer := range []string{"lof", "knn"} {
		var aucs, secs []float64
		pipe := pipeline("hics", scorer, hicsParams(cfg.Seed))
		for _, l := range data {
			auc, elapsed, err := rankAUC(ctx, pipe, l)
			if err != nil {
				return err
			}
			aucs = append(aucs, auc)
			secs = append(secs, elapsed.Seconds())
		}
		aucMean, _ := eval.MeanStd(aucs)
		secMean, _ := eval.MeanStd(secs)
		fmt.Fprintf(w, "%-10s %9.1f%% %11.2fs\n", pipe.Scorer.Name(), 100*aucMean, secMean)
	}
	return nil
}

// Registry maps experiment names to their implementations, in the order
// cmd/hicsbench runs them for "all".
var Registry = []struct {
	Name string
	Desc string
	Run  Func
}{
	{"fig4", "AUC vs dimensionality (synthetic)", Fig4},
	{"fig5", "runtime vs dimensionality (synthetic)", Fig5},
	{"fig6", "runtime vs DB size (synthetic)", Fig6},
	{"fig7", "AUC vs Monte Carlo iterations M", Fig7},
	{"fig8", "AUC vs slice size alpha", Fig8},
	{"fig9", "AUC and runtime vs candidate cutoff", Fig9},
	{"fig10", "ROC curves (Ionosphere, Pendigits analogs)", Fig10},
	{"fig11", "real-world table (8 simulated UCI datasets)", Fig11},
	{"abl-test", "ablation: Welch vs KS deviation", AblationWTvsKS},
	{"abl-agg", "ablation: average vs max aggregation", AblationAggregation},
	{"abl-prune", "ablation: redundancy pruning on/off", AblationPruning},
	{"abl-scorer", "ablation: LOF vs kNN scorer", AblationScorer},
	{"ext-tests", "extension: all four statistical instantiations", ExtTests},
	{"ext-scorers", "extension: LOF/kNN/ORCA/OUTRES ranking steps", ExtScorers},
	{"ext-search", "extension: subspace searchers incl. SURFING", ExtSearchers},
	{"ext-prec", "extension: precision metrics (AP, P@n)", ExtPrecision},
}

// Func is one experiment regeneration: it writes the artifact's table to
// w, observing ctx cooperatively — a cancelled context aborts the run
// mid-sweep with ctx.Err().
type Func func(ctx context.Context, w io.Writer, cfg Config) error

// Lookup finds a registered experiment by name.
func Lookup(name string) (Func, bool) {
	for _, e := range Registry {
		if e.Name == name {
			return e.Run, true
		}
	}
	return nil, false
}
