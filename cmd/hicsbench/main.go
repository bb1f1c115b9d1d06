// Command hicsbench regenerates every table and figure of the paper's
// evaluation section, plus the ablations listed in DESIGN.md.
//
// Usage:
//
//	hicsbench [-quick] [-seed N] [-o dir] <experiment>... | all | list
//
// Experiments: fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11
//
//	abl-test abl-agg abl-prune abl-scorer
//
// Without -o, tables go to stdout; with -o each experiment is additionally
// written to <dir>/<name>.txt. -quick shrinks dataset sizes and sweeps so
// the whole suite finishes in minutes; the full-size run reproduces the
// paper's scale and takes correspondingly longer. -searchers restricts the
// subspace-method competitor set to a comma-separated list of method
// registry names (e.g. -searchers hics,enclus,surfing), so any registered
// searcher can join the comparison tables.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"hics/internal/experiments"
	"hics/internal/registry"
)

func main() {
	// Ctrl-C (or SIGTERM) cancels the in-flight experiment cooperatively:
	// the Monte Carlo loops observe the context and return promptly
	// instead of the process dying mid-run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "hicsbench: interrupted, stopping cleanly")
		} else {
			fmt.Fprintln(os.Stderr, "hicsbench:", err)
		}
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("hicsbench", flag.ContinueOnError)
	var (
		quick     = fs.Bool("quick", false, "strongly reduced dataset sizes and sweeps (smoke test)")
		medium    = fs.Bool("medium", false, "paper sweep ranges at reduced dataset sizes (recommended on a laptop)")
		seed      = fs.Uint64("seed", 1, "base random seed")
		outDir    = fs.String("o", "", "also write each experiment's table to this directory")
		searchers = fs.String("searchers", "", "comma-separated registry names restricting the subspace-method competitor set (default: hics,enclus,ris,randsub; valid: "+strings.Join(registry.SearcherNames(), ",")+")")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: hicsbench [flags] <experiment>... | all | list")
		fs.PrintDefaults()
		fmt.Fprintln(fs.Output(), "\nexperiments:")
		for _, e := range experiments.Registry {
			fmt.Fprintf(fs.Output(), "  %-11s %s\n", e.Name, e.Desc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return fmt.Errorf("no experiment given")
	}

	cfg := experiments.Config{Quick: *quick, Medium: *medium, Seed: *seed}
	if *searchers != "" {
		for _, name := range strings.Split(*searchers, ",") {
			name = strings.TrimSpace(name)
			// An empty token would resolve to the registry default and
			// silently duplicate a competitor; reject it instead.
			if name == "" {
				return fmt.Errorf("-searchers has an empty name (valid: %s)", strings.Join(registry.SearcherNames(), ", "))
			}
			// Resolve through the registry so the error enumerates the
			// valid names.
			if _, err := registry.NewSearcher(name, registry.Options{}); err != nil {
				return err
			}
			cfg.Searchers = append(cfg.Searchers, name)
		}
	}

	var names []string
	for _, a := range fs.Args() {
		switch a {
		case "list":
			for _, e := range experiments.Registry {
				fmt.Printf("%-11s %s\n", e.Name, e.Desc)
			}
			return nil
		case "all":
			for _, e := range experiments.Registry {
				names = append(names, e.Name)
			}
		default:
			if _, ok := experiments.Lookup(a); !ok {
				return fmt.Errorf("unknown experiment %q (try: hicsbench list)", a)
			}
			names = append(names, a)
		}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}
	for _, name := range names {
		fn, _ := experiments.Lookup(name)
		mode := "full"
		if *quick {
			mode = "quick"
		} else if *medium {
			mode = "medium"
		}
		fmt.Printf("=== %s (%s) ===\n", name, mode)
		var w io.Writer = os.Stdout
		var f *os.File
		if *outDir != "" {
			var err error
			f, err = os.Create(filepath.Join(*outDir, name+".txt"))
			if err != nil {
				return err
			}
			w = io.MultiWriter(os.Stdout, f)
		}
		start := time.Now()
		err := fn(ctx, w, cfg)
		if f != nil {
			f.Close()
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("--- %s done in %v ---\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
