package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareMain compares two -out files, the parent's first, and labels
// every end-to-end (workload, metric) pair with BENCHMARK.json's bound. It
// exits 1 when a pair is worse.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare BASE.json CHANGE.json")
		return 2
	}
	var (
		bf   benchmarkFile
		a, b runsFile
	)
	for _, f := range []struct {
		path string
		v    any
	}{{"BENCHMARK.json", &bf}, {args[0], &a}, {args[1], &b}} {
		if err := readJSON(f.path, f.v); err != nil {
			fmt.Fprintln(stderr, "bench compare:", err)
			return 2
		}
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tchange\tdelta\tspread\tbound\tverdict\t")
	worse := false
	for _, w := range bf.Workloads {
		for _, d := range bf.EndToEnd {
			va, vb := valuesOf(a.Runs, w.Name, d.Name), valuesOf(b.Runs, w.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 || d.Bound == nil {
				continue
			}
			v := judge(va, vb, d.Better, *d.Bound)
			worse = worse || v == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.1f%%\t%.0f%%\t%s\t\n", w.Name, d.Name,
				median(va), median(vb), 100*(median(vb)-median(va))/math.Abs(median(va)),
				100*max(spread(va), spread(vb)), 100**d.Bound, v)
		}
	}
	tw.Flush()
	if worse {
		return 1
	}
	return 0
}

// judge labels the change's runs b against the parent's runs a: worse or
// better when the medians differ by more than the bound, same otherwise.
// When either side's quartile spread exceeds the bound the pair is
// unresolved, unless every run of the change beats every run of the
// parent.
func judge(a, b []float64, better string, bound float64) string {
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	ma := median(a)
	worsening := sign * (median(b) - ma) / math.Abs(ma)
	if max(spread(a), spread(b)) > bound {
		for _, x := range a {
			for _, y := range b {
				if sign*(y-x) >= 0 {
					return "unresolved"
				}
			}
		}
		return "better"
	}
	switch {
	case worsening > bound:
		return "worse"
	case worsening < -bound:
		return "better"
	}
	return "same"
}
