package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"hics/internal/core"
	"hics/internal/dataset"
	"hics/internal/eval"
	"hics/internal/ranking"
	"hics/internal/synth"
)

// synthBench generates the paper's synthetic benchmark for the given
// dimensionality and size: 2-5-dimensional correlated groups with 5
// non-trivial outliers each.
func synthBench(n, d int, seed uint64) (*dataset.Labeled, error) {
	b, err := synth.Generate(synth.Config{
		N: n, D: d,
		MinSubspaceDim: 2, MaxSubspaceDim: 5,
		OutliersPerSubspace: 5,
		Seed:                seed,
	})
	if err != nil {
		return nil, err
	}
	return b.Data, nil
}

// rankAUC runs a ranker and returns its AUC and wall-clock runtime
// (subspace search plus outlier ranking, as in the paper's runtime plots).
// A cancelled ctx aborts the run mid-ranking with ctx.Err().
func rankAUC(ctx context.Context, r ranking.Ranker, l *dataset.Labeled) (auc float64, elapsed time.Duration, err error) {
	start := time.Now()
	res, err := r.Rank(ctx, l.Data)
	elapsed = time.Since(start)
	if err != nil {
		return 0, elapsed, err
	}
	auc, err = eval.AUC(res.Scores, l.Outlier)
	return auc, elapsed, err
}

// Fig4 reproduces "Quality (AUC) of outlier rankings w.r.t. increasing
// dimensionality": mean AUC ± stddev over several random datasets per
// dimensionality, for all seven competitors. It also records runtimes,
// which Fig5 prints — the paper runs both figures off the same sweep.
func Fig4(ctx context.Context, w io.Writer, cfg Config) error {
	res, err := runDimsSweep(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# Fig 4 — AUC [%] (mean ± std over repetitions) vs dimensionality D")
	fmt.Fprintf(w, "%-10s", "method")
	for _, d := range res.dims {
		fmt.Fprintf(w, " %12s", fmt.Sprintf("D=%d", d))
	}
	fmt.Fprintln(w)
	for _, m := range res.methods {
		fmt.Fprintf(w, "%-10s", m)
		for di := range res.dims {
			mean, std := eval.MeanStd(res.auc[m][di])
			fmt.Fprintf(w, " %6.1f ±%4.1f", 100*mean, 100*std)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Fig5 reproduces "Runtime w.r.t. dimensionality D, with fixed DB-size":
// total processing time (subspace search + outlier ranking) of the
// subspace-ranking competitors over the same sweep as Fig4.
func Fig5(ctx context.Context, w io.Writer, cfg Config) error {
	res, err := runDimsSweep(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# Fig 5 — total runtime [s] vs dimensionality D (N=%d)\n", res.n)
	fmt.Fprintf(w, "%-10s", "method")
	for _, d := range res.dims {
		fmt.Fprintf(w, " %9s", fmt.Sprintf("D=%d", d))
	}
	fmt.Fprintln(w)
	for _, m := range res.methods {
		if m == "LOF" || m == "PCALOF1" || m == "PCALOF2" {
			continue // the paper's runtime plot shows subspace methods only
		}
		fmt.Fprintf(w, "%-10s", m)
		for di := range res.dims {
			mean, _ := eval.MeanStd(res.seconds[m][di])
			fmt.Fprintf(w, " %9.2f", mean)
		}
		fmt.Fprintln(w)
	}
	return nil
}

type dimsSweepResult struct {
	n       int
	dims    []int
	methods []string
	auc     map[string][]([]float64) // method -> per-dim -> per-rep AUC
	seconds map[string][]([]float64)
}

// dimsSweepCache memoizes the shared Fig4/Fig5 sweep per config so running
// both subcommands in one process does not double the work.
var dimsSweepCache = map[cacheKey]*dimsSweepResult{}

func runDimsSweep(ctx context.Context, cfg Config) (*dimsSweepResult, error) {
	if r, ok := dimsSweepCache[cfg.key()]; ok {
		return r, nil
	}
	sz := cfg.sizing()
	n, dims, reps := sz.dimsN, sz.dims, sz.dimsReps
	res := &dimsSweepResult{
		n:       n,
		dims:    dims,
		auc:     map[string][]([]float64){},
		seconds: map[string][]([]float64){},
	}
	for di, d := range dims {
		for rep := 0; rep < reps; rep++ {
			seed := cfg.Seed + uint64(1000*di+rep)
			l, err := synthBench(n, d, seed)
			if err != nil {
				return nil, err
			}
			for _, r := range allCompetitors(cfg, seed) {
				name := displayName(r)
				if rep == 0 && di == 0 {
					res.methods = append(res.methods, name)
				}
				if res.auc[name] == nil {
					res.auc[name] = make([][]float64, len(dims))
					res.seconds[name] = make([][]float64, len(dims))
				}
				auc, elapsed, err := rankAUC(ctx, r, l)
				if err != nil {
					return nil, fmt.Errorf("%s at D=%d: %w", name, d, err)
				}
				res.auc[name][di] = append(res.auc[name][di], auc)
				res.seconds[name][di] = append(res.seconds[name][di], elapsed.Seconds())
			}
		}
	}
	dimsSweepCache[cfg.key()] = res
	return res, nil
}

// Fig6 reproduces "Runtime w.r.t. the DB-size, with fixed dimensionality
// 25" for the subspace-ranking competitors.
func Fig6(ctx context.Context, w io.Writer, cfg Config) error {
	d := 25
	sizes := cfg.sizing().fig6Sizes
	fmt.Fprintf(w, "# Fig 6 — total runtime [s] vs DB size N (D=%d)\n", d)
	fmt.Fprintf(w, "%-10s", "method")
	for _, n := range sizes {
		fmt.Fprintf(w, " %10s", fmt.Sprintf("N=%d", n))
	}
	fmt.Fprintln(w)

	// Generate all datasets first so every method sees identical data.
	data := make([]*dataset.Labeled, len(sizes))
	for i, n := range sizes {
		l, err := synthBench(n, d, cfg.Seed+uint64(i))
		if err != nil {
			return err
		}
		data[i] = l
	}
	for _, r := range subspaceCompetitors(cfg, cfg.Seed) {
		fmt.Fprintf(w, "%-10s", displayName(r))
		for i := range sizes {
			_, elapsed, err := rankAUC(ctx, r, data[i])
			if err != nil {
				return fmt.Errorf("%s at N=%d: %w", r.Name(), sizes[i], err)
			}
			fmt.Fprintf(w, " %10.2f", elapsed.Seconds())
		}
		fmt.Fprintln(w)
	}
	return nil
}

// paramSweepData builds the fixed benchmark of the parameter studies
// (Fig. 7/8/9): moderate dimensionality so every configuration finishes
// quickly, several repetitions for stable means.
func paramSweepData(cfg Config, reps int) ([]*dataset.Labeled, error) {
	sz := cfg.sizing()
	n, d := sz.paramN, sz.paramD
	out := make([]*dataset.Labeled, reps)
	for i := range out {
		l, err := synthBench(n, d, cfg.Seed+uint64(i)*7)
		if err != nil {
			return nil, err
		}
		out[i] = l
	}
	return out, nil
}

// Fig7 reproduces "Dependence on the number of statistical tests (M)" for
// both statistical instantiations HiCS_WT and HiCS_KS.
func Fig7(ctx context.Context, w io.Writer, cfg Config) error {
	return paramSweep(ctx, w, cfg, "# Fig 7 — AUC [%] vs number of statistical tests M", cfg.sizing().fig7Ms,
		func(m int) string { return fmt.Sprintf("M=%d", m) },
		func(p *core.Params, m int) { p.M = m })
}

// Fig8 reproduces "Dependence on the size of the test statistic (α)".
func Fig8(ctx context.Context, w io.Writer, cfg Config) error {
	return paramSweep(ctx, w, cfg, "# Fig 8 — AUC [%] vs test statistic size alpha", cfg.sizing().fig8Alphas,
		func(a float64) string { return fmt.Sprintf("a=%.2f", a) },
		func(p *core.Params, a float64) { p.Alpha = a })
}

// paramSweep prints the mean AUC of HiCS_WT and HiCS_KS over the
// parameter-sweep datasets for each value of one search parameter: set
// applies a value to the paper's defaults, and label heads its column.
func paramSweep[T any](ctx context.Context, w io.Writer, cfg Config, title string, values []T,
	label func(T) string, set func(*core.Params, T)) error {
	data, err := paramSweepData(cfg, cfg.sizing().paramReps)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-10s", "variant")
	for _, v := range values {
		fmt.Fprintf(w, " %8s", label(v))
	}
	fmt.Fprintln(w)
	for _, tt := range []core.Test{core.WelchT, core.KolmogorovSmirnov} {
		name := "HiCS_WT"
		if tt == core.KolmogorovSmirnov {
			name = "HiCS_KS"
		}
		fmt.Fprintf(w, "%-10s", name)
		for _, v := range values {
			var aucs []float64
			for _, l := range data {
				p := hicsParams(cfg.Seed)
				set(&p, v)
				p.Test = tt
				auc, _, err := rankAUC(ctx, cfg.hicsVariant(p), l)
				if err != nil {
					return err
				}
				aucs = append(aucs, auc)
			}
			mean, _ := eval.MeanStd(aucs)
			fmt.Fprintf(w, " %8.1f", 100*mean)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Fig9 reproduces "Quality and Runtime w.r.t. candidate cutoff parameter":
// mean AUC and mean runtime over several synthetic datasets for a sweep of
// the cutoff.
func Fig9(ctx context.Context, w io.Writer, cfg Config) error {
	sz := cfg.sizing()
	cutoffs, reps := sz.fig9Cutoffs, sz.paramReps
	data, err := paramSweepData(cfg, reps)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# Fig 9 — AUC [%] and runtime [s] vs candidate cutoff")
	fmt.Fprintf(w, "%-10s %10s %12s\n", "cutoff", "AUC", "runtime")
	for _, cut := range cutoffs {
		var aucs, secs []float64
		for _, l := range data {
			p := hicsParams(cfg.Seed)
			p.Cutoff = cut
			auc, elapsed, err := rankAUC(ctx, cfg.hicsVariant(p), l)
			if err != nil {
				return err
			}
			aucs = append(aucs, auc)
			secs = append(secs, elapsed.Seconds())
		}
		aucMean, _ := eval.MeanStd(aucs)
		secMean, _ := eval.MeanStd(secs)
		fmt.Fprintf(w, "%-10d %9.1f%% %11.2fs\n", cut, 100*aucMean, secMean)
	}
	return nil
}
