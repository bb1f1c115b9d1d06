// Command hics runs the HiCS subspace search and outlier ranking on a CSV
// dataset.
//
// Usage:
//
//	hics [flags] <input.csv>
//	hics -stream [flags] [input.csv]
//	hics -list-methods
//	hics -version
//
// The input is numeric CSV; with -header the first row names the
// attributes, and a column named "label"/"outlier" (or the -label flag) is
// used as ground truth to report the AUC of the ranking. Output is the
// ranked list of high-contrast subspaces followed by the top outliers.
//
// Both pipeline steps are pluggable: -search selects the subspace-search
// method and -scorer the density scorer, by method-registry name;
// -list-methods prints every registered name. With -save-model the fitted
// model is additionally persisted for out-of-sample scoring via the hicsd
// server (fit requires a -scorer supporting the fit/score split).
//
// With -stream the command becomes an online detector: rows are read
// incrementally from stdin (or the input file), the first -window rows
// fit the initial model, and every row is scored as it arrives — one
// NDJSON record {"index","score","refits"} per line on stdout.
// -refit-every re-fits the model over the sliding window periodically;
// Ctrl-C stops the stream cleanly via the shared context plumbing.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"hics"
	"hics/internal/core"
	"hics/internal/dataset"
	"hics/internal/eval"
	"hics/internal/ranking"
	"hics/internal/registry"
)

// Flag help texts naming the accepted values; tests parse these to verify
// every advertised name actually parses.
var (
	testFlagUsage   = "statistical test: welch, ks, mw or cvm"
	aggFlagUsage    = "aggregation of per-subspace scores: average, max or product"
	searchFlagUsage = "subspace searcher: " + strings.Join(registry.SearcherNames(), ", ")
	scorerFlagUsage = "outlier scorer: " + strings.Join(registry.ScorerNames(), ", ")
)

func main() {
	// Ctrl-C (or SIGTERM) cancels the in-flight search cooperatively: the
	// Monte Carlo loops observe the context and the process exits cleanly
	// instead of being killed mid-run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "hics: interrupted, stopping cleanly")
		} else {
			fmt.Fprintln(os.Stderr, "hics:", err)
		}
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("hics", flag.ContinueOnError)
	var (
		header      = fs.Bool("header", true, "first CSV row contains attribute names")
		label       = fs.String("label", "", "name of the ground-truth label column (default: auto-detect 'label'/'outlier'; '-' disables)")
		test        = fs.String("test", "welch", testFlagUsage)
		m           = fs.Int("M", core.DefaultM, "Monte Carlo iterations per subspace")
		alpha       = fs.Float64("alpha", core.DefaultAlpha, "expected slice size as a fraction of N")
		cutoff      = fs.Int("cutoff", core.DefaultCutoff, "candidate cutoff per Apriori level")
		topk        = fs.Int("topk", core.DefaultTopK, "number of high-contrast subspaces to rank in")
		minPts      = fs.Int("minpts", 10, "LOF MinPts neighborhood size")
		seed        = fs.Uint64("seed", 0, "random seed")
		workers     = fs.Int("workers", 0, "max goroutines evaluating subspace contrasts (0 = one per CPU)")
		maxSample   = fs.Int("max-sample-rows", 0, "estimate each contrast on at most this many rows (0 = all rows)")
		outl        = fs.Int("outliers", 10, "number of top outliers to print")
		search      = fs.String("search", "hics", searchFlagUsage)
		scorer      = fs.String("scorer", "lof", scorerFlagUsage)
		aggName     = fs.String("agg", "average", aggFlagUsage)
		index       = fs.String("index", "auto", "neighbor index for the ranking step: auto, kdtree or brute")
		subOnly     = fs.Bool("subspaces-only", false, "run only the subspace search, skip the ranking step")
		saveModel   = fs.String("save-model", "", "fit a reusable model and save it to this file (serve it with hicsd)")
		listMethods = fs.Bool("list-methods", false, "list the registered searcher and scorer names and exit")
		streamMode  = fs.Bool("stream", false, "stream rows from stdin (or the input file): fit on the first -window rows, then score each row as it arrives, NDJSON out")
		window      = fs.Int("window", 100, "stream: sliding-window size (must exceed -minpts)")
		refitEvery  = fs.Int("refit-every", 0, "stream: re-fit the model over the window every N arrivals (0 = never)")
		streamAsync = fs.Bool("stream-async", false, "stream: re-fit in the background, keep scoring with the current model meanwhile")
		version     = fs.Bool("version", false, "print the version and exit")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: hics [flags] <input.csv>\n       hics -stream [flags] [input.csv]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Println("hics", hics.Version)
		return nil
	}
	if *listMethods {
		return printMethods(os.Stdout)
	}

	if *streamMode {
		if *saveModel != "" || *subOnly {
			return fmt.Errorf("-stream cannot be combined with -save-model or -subspaces-only")
		}
		opts := hics.Options{
			M: *m, Alpha: *alpha, CandidateCutoff: *cutoff, TopK: *topk,
			Test: *test, Seed: *seed, MinPts: *minPts, Workers: *workers,
			Aggregation: *aggName, NeighborIndex: *index,
			MaxSampleRows: *maxSample,
			Search:        *search, Scorer: *scorer,
		}
		sopts := hics.StreamOptions{Window: *window, RefitEvery: *refitEvery, Async: *streamAsync}
		in := io.Reader(os.Stdin)
		switch {
		case fs.NArg() == 0 || (fs.NArg() == 1 && fs.Arg(0) == "-"):
			// stdin — the `hicsgen | hics -stream` pipe.
		case fs.NArg() == 1:
			f, err := os.Open(fs.Arg(0))
			if err != nil {
				return err
			}
			defer f.Close()
			in = f
		default:
			fs.Usage()
			return fmt.Errorf("expected at most one input file, got %d", fs.NArg())
		}
		return runStream(ctx, in, os.Stdout, opts, sopts, dataset.CSVOptions{Header: *header, LabelColumn: *label})
	}

	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("expected exactly one input file, got %d", fs.NArg())
	}

	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	l, err := dataset.ReadLabeledCSV(f, dataset.CSVOptions{Header: *header, LabelColumn: *label})
	if err != nil {
		return err
	}
	ds := l.Data
	fmt.Printf("loaded %d objects x %d attributes\n", ds.N(), ds.D())

	// Everything routes through the public API: one Options value feeds
	// SearchSubspaces, Rank and Fit, so option validation and method
	// resolution behave identically at every entry point.
	opts := hics.Options{
		M: *m, Alpha: *alpha, CandidateCutoff: *cutoff, TopK: *topk,
		Test: *test, Seed: *seed, MinPts: *minPts, Workers: *workers,
		Aggregation: *aggName, NeighborIndex: *index,
		MaxSampleRows: *maxSample,
		Search:        *search, Scorer: *scorer,
	}
	rows := make([][]float64, ds.N())
	for i := range rows {
		rows[i] = ds.Row(i, nil)
	}

	if *subOnly {
		if *saveModel != "" {
			return fmt.Errorf("-save-model needs the ranking step; drop -subspaces-only")
		}
		subs, err := hics.SearchSubspacesContext(ctx, rows, opts)
		if err != nil {
			return err
		}
		printSubspaces(ds, *search, *test, subs, 20)
		return nil
	}

	agg, err := ranking.ParseAggregation(*aggName)
	if err != nil {
		return err
	}

	if *saveModel != "" {
		// The fit/score split: run the search once, freeze the model,
		// report the (identical) training ranking, and persist for hicsd.
		model, err := hics.FitContext(ctx, rows, opts)
		if err != nil {
			return err
		}
		printSubspaces(ds, *search, *test, model.Subspaces(), 10)
		reportRanking(l, model.TrainingScores(), *outl, *scorer, agg)
		f, err := os.Create(*saveModel)
		if err != nil {
			return err
		}
		if err := model.Save(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("\nmodel saved to %s (serve with: hicsd -model %s)\n", *saveModel, *saveModel)
		return nil
	}

	res, err := hics.RankContext(ctx, rows, opts)
	if err != nil {
		return err
	}
	printSubspaces(ds, *search, *test, res.Subspaces, 10)
	reportRanking(l, res.Scores, *outl, *scorer, agg)
	return nil
}

// runStream drives the online detector: CSV rows are read incrementally
// from in (label column dropped — streaming is unsupervised), pushed into
// a cold hics.Stream, and every scored arrival is emitted to out as one
// NDJSON record. The context cancels mid-read (Ctrl-C), and a summary
// goes to stderr so stdout stays pure NDJSON.
func runStream(ctx context.Context, in io.Reader, out io.Writer, opts hics.Options, sopts hics.StreamOptions, csvOpts dataset.CSVOptions) error {
	cs, err := dataset.NewCSVStream(in, csvOpts)
	if err != nil {
		return err
	}
	st, err := hics.NewStream(opts, sopts)
	if err != nil {
		return err
	}
	defer st.Close()
	enc := json.NewEncoder(out)
	scored := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		row, _, err := cs.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		results, err := st.Push(ctx, row)
		if err != nil {
			return err
		}
		for _, r := range results {
			if err := enc.Encode(r); err != nil {
				return err
			}
		}
		scored += len(results)
	}
	if err := st.Drain(ctx); err != nil {
		return err
	}
	if !st.Warm() {
		fmt.Fprintf(os.Stderr, "hics: stream ended during warmup: %d of %d rows buffered, nothing scored (lower -window to score shorter feeds)\n",
			st.Seen(), sopts.Window)
		return nil
	}
	fmt.Fprintf(os.Stderr, "hics: stream done: %d rows seen, %d scored, %d refits\n", st.Seen(), scored, st.Refits())
	return nil
}

// printMethods lists every registered method name, constructing each one
// as a smoke check that the whole registry is buildable.
func printMethods(w io.Writer) error {
	fmt.Fprintln(w, "searchers:")
	for _, name := range registry.SearcherNames() {
		s, err := registry.NewSearcher(name, registry.SearcherOptions{})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-10s %s\n", name, s.Name())
	}
	fmt.Fprintln(w, "scorers:")
	for _, name := range registry.ScorerNames() {
		sc, err := registry.NewScorer(name, registry.ScorerOptions{})
		if err != nil {
			return err
		}
		fit := ""
		if registry.ScorerSupportsFit(name) {
			fit = "  (supports fit/save)"
		}
		fmt.Fprintf(w, "  %-10s %s%s\n", name, sc.Name(), fit)
	}
	return nil
}

// reportRanking prints the top outliers and, when labels are available,
// the AUC of the ranking.
func reportRanking(l *dataset.Labeled, scores []float64, outl int, scorerName string, agg ranking.Aggregation) {
	fmt.Printf("\ntop %d outliers (%s scores aggregated by %s):\n", outl, scorerName, agg)
	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return scores[order[a]] > scores[order[b]] })
	k := outl
	if k > len(order) {
		k = len(order)
	}
	for rank, i := range order[:k] {
		marker := ""
		if l.Outlier != nil && l.Outlier[i] {
			marker = "  <- labeled outlier"
		}
		fmt.Printf("%3d. object %5d  score %.4f%s\n", rank+1, i, scores[i], marker)
	}

	if l.Outlier != nil {
		auc, err := eval.AUC(scores, l.Outlier)
		if err == nil {
			fmt.Printf("\nAUC vs provided labels: %.4f\n", auc)
		}
	}
}

// printSubspaces lists up to limit scored subspaces with attribute names.
func printSubspaces(ds *dataset.Dataset, search, test string, subs []hics.Subspace, limit int) {
	if search == "hics" || search == "" {
		fmt.Printf("\ntop high-contrast subspaces (%s test):\n", test)
	} else {
		fmt.Printf("\ntop subspaces (%s search):\n", search)
	}
	if limit > len(subs) {
		limit = len(subs)
	}
	for i := 0; i < limit; i++ {
		names := make([]string, len(subs[i].Dims))
		for k, d := range subs[i].Dims {
			names[k] = ds.Name(d)
		}
		fmt.Printf("%3d. contrast %.4f  %v (%s)\n", i+1, subs[i].Contrast, subs[i].Dims, strings.Join(names, ", "))
	}
}
