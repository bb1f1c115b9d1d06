// Command bench is the repository benchmark. It measures the HiCS library
// and the hicsd server from outside: fit workloads call hics.Fit in this
// process, stream workloads run hicsd as child processes and drive them
// with an open-loop client. Every run checks its outputs and prints, as
// its last line, one JSON object with the run's correctness, operation
// counts and metrics.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload fit-paper --seed 1 --seconds 10 --trace 0
//	go run ./bench -seed 1                          # every workload once
//	go run ./bench -workload stream-score -runs 3 -out a.json
//	go run ./bench compare a.json b.json
//
// bench/README.md describes the workloads, the metrics and their bounds.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

// buildDir holds everything the benchmark builds and writes, relative to
// the repository root.
const buildDir = ".bench_build"

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// resultLine is the JSON object printed after every run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is one run as written by -out and read by compare.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	resultLine
}

type runsFile struct {
	Runs []runRecord `json:"runs"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed    = fs.Uint64("seed", 1, "seed of the run's inputs")
		seconds = fs.Int("seconds", 10, fmt.Sprintf("measuring time of one run, 1 to %d", maxSeconds))
		traced  = fs.Int("trace", 0, "1 runs the traced layer pass, writes "+filepath.Join(buildDir, "spans", "<workload>.ndjson")+" and prints the per-layer metrics instead of the end-to-end ones")
		runs    = fs.Int("runs", 1, "runs per workload, all with the same seed; above 1, medians and quartiles are printed")
		out     = fs.String("out", "", "write every run's result to this JSON file, the input of compare")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*traced != 0 && *traced != 1) || *seconds < 1 || *seconds > maxSeconds || *runs < 1 {
		fmt.Fprintln(stderr, "bench: want -trace 0 or 1, -seconds 1 to 60, -runs >= 1 and no other arguments")
		return 2
	}
	selected := workloads
	if *name != "all" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q (want %s or all)\n", *name, strings.Join(workloadNames(), ", "))
			return 2
		}
		selected = []*workload{w}
	}
	e, err := newEnv(stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	defer os.RemoveAll(e.work)

	var records []runRecord
	code := 0
	for _, w := range selected {
		for i := 0; i < *runs; i++ {
			rr, err := runOne(ctx, e, w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			line, err := json.Marshal(rr.resultLine)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			fmt.Fprintln(stdout, string(line))
			records = append(records, *rr)
			if !rr.Correct {
				code = 1
			}
		}
	}
	if *runs > 1 {
		printAggregate(stderr, records)
	}
	if *out != "" {
		b, err := json.MarshalIndent(runsFile{Runs: records}, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench: writing -out:", err)
			return 1
		}
	}
	return code
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runOne runs one workload once and prints its human-readable summary.
func runOne(ctx context.Context, e *env, w *workload, seed uint64, seconds time.Duration, traced bool, log io.Writer) (*runRecord, error) {
	fmt.Fprintf(log, "== %s  seed %d  %v measured  trace %v\n", w.name, seed, seconds, traced)
	var rec *recorder
	if traced {
		rec = newRecorder(w.name)
	}
	var (
		res *result
		err error
	)
	switch {
	case w.stream != nil:
		res, err = runStream(ctx, e, w, seed, seconds, rec)
	case traced:
		res, err = runFitTraced(ctx, e, w, seed, rec)
	default:
		res, err = runFit(ctx, e, w, seed, seconds)
	}
	if err != nil {
		return nil, err
	}
	vals, err := res.metrics.report(!traced)
	if err != nil {
		if len(res.failures) == 0 {
			return nil, err
		}
		res.fail("%v", err)
	}
	if res.attempted < 1 {
		return nil, errors.New("the run attempted no operation")
	}
	if rec != nil {
		path, err := rec.writeNDJSON(filepath.Join(e.root, buildDir, "spans"))
		if err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(log, "spans: %s\n", path)
		printSelfTimes(log, rec.spans)
	}
	tw := tabwriter.NewWriter(log, 0, 0, 2, ' ', 0)
	for _, d := range catalog {
		if v, ok := vals[d.name]; ok {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", d.name, v.Value, d.unit)
		}
	}
	tw.Flush()
	fmt.Fprintf(log, "  attempted %d, failed %d\n", res.attempted, res.failed)
	for _, n := range res.notes {
		fmt.Fprintln(log, "  note:", n)
	}
	for _, f := range res.failures {
		fmt.Fprintln(log, "  CHECK FAILED:", f)
	}
	return &runRecord{
		Workload: w.name, Seed: seed,
		resultLine: resultLine{Correct: len(res.failures) == 0, Attempted: res.attempted, Failed: res.failed, Metrics: vals},
	}, nil
}

// env locates the checkout and the files a run writes.
type env struct {
	root, work string
	bin        string // hicsd binary; built on first use when empty
	log        io.Writer
}

// newEnv uses the working directory as the checkout.
func newEnv(log io.Writer) (*env, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	return newEnvAt(root, filepath.Join(root, buildDir, "work"), log)
}

func newEnvAt(root, work string, log io.Writer) (*env, error) {
	for _, f := range []string{"go.mod", filepath.Join("cmd", "hicsd")} {
		if _, err := os.Stat(filepath.Join(root, f)); err != nil {
			return nil, fmt.Errorf("run the benchmark from the repository root: %w", err)
		}
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	return &env{root: root, work: work, log: log}, nil
}

func (e *env) path(name string) string { return filepath.Join(e.work, name) }

// hicsd returns the server binary, building ./cmd/hicsd from source the
// first time.
func (e *env) hicsd(ctx context.Context) (string, error) {
	if e.bin != "" {
		return e.bin, nil
	}
	out := filepath.Join(e.root, buildDir, "bin", "hicsd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, "./cmd/hicsd")
	cmd.Dir = e.root
	cmd.Stdout, cmd.Stderr = e.log, e.log
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building hicsd: %w", err)
	}
	e.bin = out
	return out, nil
}

// printAggregate prints each workload's median and quartiles per metric.
func printAggregate(w io.Writer, records []runRecord) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\truns\tq1\tmedian\tq3\tspread\t")
	for _, wl := range workloads {
		for _, d := range catalog {
			vals := valuesOf(records, wl.name, d.name)
			if len(vals) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(vals)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.6g\t%.6g\t%.6g\t%.1f%%\t\n", wl.name, d.name, d.unit, len(vals), q1, q2, q3, 100*spread(vals))
		}
	}
	tw.Flush()
}

func valuesOf(records []runRecord, workload, metric string) []float64 {
	var out []float64
	for _, r := range records {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, v.Value)
		}
	}
	return out
}
