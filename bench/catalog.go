package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// metricDef declares one metric the benchmark prints. BENCHMARK.json at the
// repository root declares the same names and units (a test keeps the two
// in step) and adds the direction and the regression bound.
type metricDef struct {
	name, unit string
	endToEnd   bool
}

// catalog lists every metric. End-to-end metrics come from untraced runs
// (--trace 0) and apply to every workload: for a fit workload an
// "operation" is one hics.Fit, for a stream workload it is one streamed
// row. Per-layer metrics come from traced runs (--trace 1); a layer that a
// workload does not exercise reports 0.
var catalog = []metricDef{
	{"setup_s", "s", true},
	{"latency_p50_ms", "ms", true},
	{"cpu_ms_per_op", "ms", true},
	{"mem_mb", "MB", true},
	{"auc", "1", true},

	{"dataset.csv_read_s", "s", false},
	{"dataset.sorted_index_s", "s", false},
	{"core.evaluator_prep_s", "s", false},
	{"core.search_s", "s", false},
	{"core.search_alloc_mb", "MB", false},
	{"core.candidates", "count", false},
	{"core.mc_iterations", "count", false},
	{"core.levels", "count", false},
	{"core.retained_ratio", "ratio", false},
	{"core.contrast_us.d2", "us", false},
	{"core.contrast_us.d3", "us", false},
	{"core.contrast_us.d4plus", "us", false},
	{"subspace.generate_s", "s", false},
	{"subspace.prune_s", "s", false},
	{"subspace.pruned_ratio", "ratio", false},
	{"neighbors.build_s", "s", false},
	{"neighbors.knn_all_s", "s", false},
	{"neighbors.kdtree_ratio", "ratio", false},
	{"neighbors.mean_neighborhood", "ratio", false},
	{"neighbors.knn_point_us", "us", false},
	{"lof.fit_s", "s", false},
	{"lof.fit_alloc_mb", "MB", false},
	{"lof.self_s", "s", false},
	{"lof.score_query_us", "us", false},
	{"hics.fit_s", "s", false},
	{"hics.fit_residual_s", "s", false},
	{"ledger.residual_ratio", "ratio", false},
	{"hics.score_us.p50", "us", false},
	{"hics.score_us.p99", "us", false},
	{"hics.load_model_s", "s", false},
	{"stream.push_us.p50", "us", false},
	{"stream.push_us.p99", "us", false},
	{"stream.push_cpu_us", "us", false},
	{"stream.refits", "count", false},
	{"stream.refit_s", "s", false},
	{"serve.cpu_us_per_row", "us", false},
	{"serve.self_cpu_us", "us", false},
	{"serve.session_open_ms", "ms", false},
	{"serve.rss_mb", "MB", false},
	{"shard.front_cpu_us_per_row", "us", false},
	{"shard.backend_cpu_us_per_row", "us", false},
	{"shard.hop_p50_ms", "ms", false},
	{"client.row_p50_ms", "ms", false},
	{"client.row_p99_ms", "ms", false},
	{"client.gen_late_p99_ms", "ms", false},
	{"client.rows_attempted", "count", false},
	{"client.records", "count", false},
	{"client.error_records", "count", false},
	{"client.refused", "count", false},
	{"client.missing", "count", false},
}

// metrics holds the values one run measured, by metric name.
type metrics map[string]float64

// metricValue is one metric as printed in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report returns the end-to-end or the per-layer metrics with their units.
// It fails if the run missed a metric of the set, measured one outside
// it, or produced a value that is not a finite number; the metrics it
// could report are returned either way.
func (m metrics) report(endToEnd bool) (map[string]metricValue, error) {
	out := map[string]metricValue{}
	var missing, bad []string
	for _, d := range catalog {
		if d.endToEnd != endToEnd {
			continue
		}
		v, ok := m[d.name]
		switch {
		case !ok:
			missing = append(missing, d.name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			bad = append(bad, d.name)
		default:
			out[d.name] = metricValue{Value: v, Unit: d.unit}
		}
	}
	var extra []string
	for name := range m {
		if _, ok := out[name]; !ok && !slices.Contains(bad, name) {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(missing)+len(bad)+len(extra) > 0 {
		return out, fmt.Errorf("metric set mismatch: missing [%s], not finite [%s], not in this set [%s]",
			strings.Join(missing, " "), strings.Join(bad, " "), strings.Join(extra, " "))
	}
	return out, nil
}

// layerDefaults returns every per-layer metric set to 0, the value of a
// layer the workload does not exercise; a traced run overwrites the rest.
func layerDefaults() metrics {
	m := metrics{}
	for _, d := range catalog {
		if !d.endToEnd {
			m[d.name] = 0
		}
	}
	return m
}
