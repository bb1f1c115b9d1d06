package trace

import "hics/internal/metrics"

// hics_phase_seconds is the one in-process phase timer, fed by
// Span.End. The hicsd_trace_* families quantify the tracing layer
// itself: what was lost to caps and eviction, how full the
// /debug/traces ring is, and whether the NDJSON export is healthy.
// Registered on the process default registry like every other family;
// docs/metrics.md documents them and TestMetricsDocInSync enforces it.
var (
	mPhase = metrics.Default.NewHistogramVec("hics_phase_seconds",
		"Wall time of ended spans by phase (the span name), whether or not the trace is kept.",
		nil, "phase")
	mSpansDropped = metrics.Default.NewCounterVec("hicsd_trace_spans_dropped_total",
		"Spans lost before serving, by reason.", "reason")
	mTracesKept = metrics.Default.NewCounter("hicsd_trace_traces_kept_total",
		"Completed traces admitted to the ring (head-sampled, errored or slow).")
	mRingTraces = metrics.Default.NewGauge("hicsd_trace_ring_traces",
		"Completed traces currently retained for /debug/traces.")
	mExportErrors = metrics.Default.NewCounter("hicsd_trace_export_errors_total",
		"NDJSON span export write or encode failures.")
)
