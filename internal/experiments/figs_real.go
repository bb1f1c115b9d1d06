package experiments

import (
	"context"
	"fmt"
	"io"

	"hics/internal/eval"
	"hics/internal/ranking"
	"hics/internal/uci"
)

// realScale returns the dataset scale factor for the simulated UCI analogs:
// full size normally, strongly reduced in quick mode (the ranking step is
// quadratic in N).
func realScale(cfg Config, specN int) float64 {
	cap := cfg.sizing().realCap
	if cap == 0 || specN <= cap {
		return 1
	}
	return float64(cap) / float64(specN)
}

// Fig10 reproduces the ROC plots of the Ionosphere and Pendigits
// experiments: one (FPR, TPR) series per competitor, printed at a fixed
// grid of false-positive rates so the curves can be compared and plotted.
func Fig10(ctx context.Context, w io.Writer, cfg Config) error {
	for _, name := range []string{"Ionosphere", "Pendigits"} {
		spec, err := uci.Lookup(name)
		if err != nil {
			return err
		}
		l, err := uci.Generate(spec, realScale(cfg, spec.N))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "# Fig 10 — ROC curve, %s (N=%d, D=%d, outliers=%d)\n",
			name, l.Data.N(), l.Data.D(), l.NumOutliers())
		grid := []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9}
		fmt.Fprintf(w, "%-10s", "method")
		for _, f := range grid {
			fmt.Fprintf(w, " %8s", fmt.Sprintf("FPR=%.2f", f))
		}
		fmt.Fprintln(w, "      AUC")
		for _, r := range append([]ranking.Ranker{newLOF(cfg)}, subspaceCompetitors(cfg, cfg.Seed)...) {
			res, err := r.Rank(ctx, l.Data)
			if err != nil {
				return fmt.Errorf("%s on %s: %w", r.Name(), name, err)
			}
			curve, err := eval.ROC(res.Scores, l.Outlier)
			if err != nil {
				return err
			}
			auc := eval.AUCFromROC(curve)
			fmt.Fprintf(w, "%-10s", displayName(r))
			for _, f := range grid {
				fmt.Fprintf(w, " %8.3f", tprAt(curve, f))
			}
			fmt.Fprintf(w, " %8.3f\n", auc)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// tprAt interpolates the true positive rate of a ROC curve at the given
// false positive rate.
func tprAt(curve []eval.ROCPoint, fpr float64) float64 {
	for i := 1; i < len(curve); i++ {
		if curve[i].FPR >= fpr {
			a, b := curve[i-1], curve[i]
			if b.FPR == a.FPR {
				return b.TPR
			}
			t := (fpr - a.FPR) / (b.FPR - a.FPR)
			return a.TPR + t*(b.TPR-a.TPR)
		}
	}
	return 1
}

// Fig11 reproduces the real-world results table: AUC and runtime of the
// five competitors on all eight (simulated) UCI datasets.
func Fig11(ctx context.Context, w io.Writer, cfg Config) error {
	fmt.Fprintln(w, "# Fig 11 — results on (simulated) real-world datasets")
	fmt.Fprintf(w, "%-12s %8s | %7s %7s %7s %7s %7s | %8s %8s %8s %8s %8s\n",
		"dataset", "shape",
		"LOF", "HiCS", "Enclus", "RIS", "RANDSUB",
		"t(LOF)", "t(HiCS)", "t(Encl)", "t(RIS)", "t(RAND)")
	for _, spec := range uci.Specs {
		l, err := uci.Generate(spec, realScale(cfg, spec.N))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s %8s |", spec.Name, fmt.Sprintf("%dx%d", l.Data.N(), l.Data.D()))
		aucs := make([]float64, 0, 5)
		secs := make([]float64, 0, 5)
		for _, r := range append([]ranking.Ranker{newLOF(cfg)}, subspaceCompetitors(cfg, cfg.Seed)...) {
			auc, elapsed, err := rankAUC(ctx, r, l)
			if err != nil {
				return fmt.Errorf("%s on %s: %w", r.Name(), spec.Name, err)
			}
			aucs = append(aucs, auc)
			secs = append(secs, elapsed.Seconds())
		}
		for _, a := range aucs {
			fmt.Fprintf(w, " %6.2f%%", 100*a)
		}
		fmt.Fprint(w, " |")
		for _, s := range secs {
			fmt.Fprintf(w, " %8.2f", s)
		}
		fmt.Fprintln(w)
	}
	return nil
}
