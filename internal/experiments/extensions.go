package experiments

import (
	"context"
	"fmt"
	"io"

	"hics/internal/core"
	"hics/internal/eval"
	"hics/internal/ranking"
)

// ExtTests evaluates all four statistical instantiations of the contrast
// measure: the paper's HiCS_WT and HiCS_KS plus the Mann–Whitney and
// Cramér–von Mises extensions this library adds.
func ExtTests(ctx context.Context, w io.Writer, cfg Config) error {
	reps := cfg.sizing().paramReps
	data, err := paramSweepData(cfg, reps)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# Extension — all statistical instantiations of the contrast measure")
	fmt.Fprintf(w, "%-10s %10s %12s\n", "variant", "AUC", "runtime")
	for _, tt := range []core.Test{core.WelchT, core.KolmogorovSmirnov, core.MannWhitney, core.CramerVonMises} {
		p := hicsParams(cfg.Seed)
		p.Test = tt
		pipe := pipeline("hics", "lof", p)
		var aucs, secs []float64
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
		fmt.Fprintf(w, "%-10s %9.1f%% %11.2fs\n", pipe.Searcher.Name(), 100*aucMean, secMean)
	}
	return nil
}

// ExtScorers evaluates the ranking-step instantiations on top of the HiCS
// subspace search: LOF (the paper's choice), the kNN-distance score, and
// the two future-work scorers ORCA and OUTRES. OUTRES additionally runs
// with its native product aggregation.
func ExtScorers(ctx context.Context, w io.Writer, cfg Config) error {
	reps := cfg.sizing().paramReps
	data, err := paramSweepData(cfg, reps)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# Extension — scorer instantiations of the ranking step (HiCS search)")
	fmt.Fprintf(w, "%-16s %10s %12s\n", "scorer", "AUC", "runtime")
	type entry struct {
		label  string
		scorer string
		agg    ranking.Aggregation
	}
	entries := []entry{
		{"LOF", "lof", ranking.Average},
		{"kNN-dist", "knn", ranking.Average},
		{"ORCA", "orca", ranking.Average},
		{"OUTRES", "outres", ranking.Average},
		{"OUTRES-prod", "outres", ranking.Product},
	}
	for _, e := range entries {
		pipe := pipeline("hics", e.scorer, hicsParams(cfg.Seed))
		pipe.Agg = e.agg
		var aucs, secs []float64
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
		fmt.Fprintf(w, "%-16s %9.1f%% %11.2fs\n", e.label, 100*aucMean, secMean)
	}
	return nil
}

// ExtSearchers compares HiCS against the full set of subspace search
// techniques surveyed in the paper's related work, including SURFING,
// which the paper cites but does not evaluate.
func ExtSearchers(ctx context.Context, w io.Writer, cfg Config) error {
	reps := cfg.sizing().paramReps
	data, err := paramSweepData(cfg, reps)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# Extension — subspace searchers incl. SURFING (LOF ranking)")
	fmt.Fprintf(w, "%-10s %10s %12s\n", "searcher", "AUC", "runtime")
	for _, name := range []string{"hics", "enclus", "ris", "surfing", "randsub"} {
		pipe := pipeline(name, "lof", hicsParams(cfg.Seed))
		var aucs, secs []float64
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
		fmt.Fprintf(w, "%-10s %9.1f%% %11.2fs\n", pipe.Searcher.Name(), 100*aucMean, secMean)
	}
	return nil
}

// ExtPrecision reports precision-oriented metrics (average precision and
// precision@|outliers|) alongside AUC for the main competitors — the view
// Fig. 10's "high recall with best precision" discussion calls for.
func ExtPrecision(ctx context.Context, w io.Writer, cfg Config) error {
	reps := cfg.sizing().paramReps
	data, err := paramSweepData(cfg, reps)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# Extension — precision metrics (average precision, P@n)")
	fmt.Fprintf(w, "%-10s %10s %10s %10s\n", "method", "AUC", "AP", "P@n")
	for _, r := range []ranking.Ranker{newLOF(cfg), pipeline("hics", "lof", hicsParams(cfg.Seed)), pipeline("enclus", "lof", hicsParams(cfg.Seed)), pipeline("randsub", "lof", hicsParams(cfg.Seed))} {
		var aucs, aps, patns []float64
		for _, l := range data {
			res, err := r.Rank(ctx, l.Data)
			if err != nil {
				return err
			}
			auc, err := eval.AUC(res.Scores, l.Outlier)
			if err != nil {
				return err
			}
			ap, err := eval.AveragePrecision(res.Scores, l.Outlier)
			if err != nil {
				return err
			}
			patn, err := eval.PrecisionAtN(res.Scores, l.Outlier, l.NumOutliers())
			if err != nil {
				return err
			}
			aucs = append(aucs, auc)
			aps = append(aps, ap)
			patns = append(patns, patn)
		}
		aucMean, _ := eval.MeanStd(aucs)
		apMean, _ := eval.MeanStd(aps)
		pMean, _ := eval.MeanStd(patns)
		fmt.Fprintf(w, "%-10s %9.1f%% %9.1f%% %9.1f%%\n",
			displayName(r), 100*aucMean, 100*apMean, 100*pMean)
	}
	return nil
}
