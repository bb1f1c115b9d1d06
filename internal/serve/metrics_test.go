package serve

import (
	"bytes"
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"hics/internal/rng"
	"hics/internal/trace"
)

// scrapeMetrics GETs /metrics and returns every sample keyed by its full
// series name (labels included), after asserting the exposition format
// is well-formed line by line.
func scrapeMetrics(t *testing.T, srv *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q, want the 0.0.4 text format", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	sampleLine := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[^}]*\})?) (\S+)$`)
	out := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			t.Fatalf("unparseable sample value in %q: %v", line, err)
		}
		out[m[1]] = v
	}
	return out
}

// TestMetricsEndpoint drives /score and a refitting /stream, then
// scrapes /metrics and asserts the expected series exist with sane
// values — the Prometheus surface the whole observability layer hangs
// off.
func TestMetricsEndpoint(t *testing.T) {
	m := fitModel(t)
	srv := httptest.NewServer(New(Config{Model: m, RequestTimeout: time.Minute}))
	defer srv.Close()

	before := scrapeMetrics(t, srv)

	resp, _, _ := postScore(t, srv, `{"point": [0.5, 0.5, 0.5, 0.5]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("score status %d", resp.StatusCode)
	}
	r := rng.New(11)
	rows := make([][]float64, 45)
	for i := range rows {
		rows[i] = []float64{r.Float64(), r.Float64(), r.Float64(), r.Float64()}
	}
	streamResp, records, _ := postStream(t, srv, "/stream?window=30&refit_every=15", ndjsonRows(t, rows))
	if streamResp.StatusCode != http.StatusOK || len(records) != len(rows) {
		t.Fatalf("stream status %d, %d records", streamResp.StatusCode, len(records))
	}

	after := scrapeMetrics(t, srv)
	delta := func(series string) float64 { return after[series] - before[series] }

	// Per-endpoint request counters and root-span phase timings moved
	// for both driven endpoints.
	if d := delta(`hicsd_http_requests_total{endpoint="score",code="200",model="default"}`); d < 1 {
		t.Errorf("score request counter moved by %v, want >= 1", d)
	}
	if d := delta(`hicsd_http_requests_total{endpoint="stream",code="200",model="default"}`); d < 1 {
		t.Errorf("stream request counter moved by %v, want >= 1", d)
	}
	for _, phase := range []string{"serve.score", "serve.stream"} {
		if d := delta(`hics_phase_seconds_count{phase="` + phase + `"}`); d < 1 {
			t.Errorf("%s phase count moved by %v, want >= 1", phase, d)
		}
		if d := delta(`hics_phase_seconds_sum{phase="` + phase + `"}`); d <= 0 {
			t.Errorf("%s phase sum moved by %v, want > 0", phase, d)
		}
		bucket := `hics_phase_seconds_bucket{phase="` + phase + `",le="+Inf"}`
		if d := delta(bucket); d < 1 {
			t.Errorf("%s +Inf bucket moved by %v, want >= 1", phase, d)
		}
	}

	// Stream/refit instrumentation: the serve-side refit counter and the
	// detector-level series (45 rows, window 30, refit every 15 => 2
	// refits past warmup).
	if d := delta(`hicsd_stream_refits_total{model="default"}`); d < 1 {
		t.Errorf("serve refit counter moved by %v, want >= 1", d)
	}
	if d := delta(`hics_stream_refits_total{mode="sync"}`); d < 1 {
		t.Errorf("sync refit counter moved by %v, want >= 1", d)
	}
	if d := delta(`hics_phase_seconds_count{phase="stream.refit"}`); d < 1 {
		t.Errorf("stream.refit phase count moved by %v, want >= 1", d)
	}
	if d := delta("hics_stream_rows_total"); d < float64(len(rows)) {
		t.Errorf("stream rows moved by %v, want >= %d", d, len(rows))
	}
	if got := after[`hicsd_streams_active{model="default"}`]; got != 0 {
		t.Errorf("hicsd_streams_active = %v with no open session, want 0", got)
	}

	// The worker pool saw work (scoring fans out through parallel.ForEach).
	if d := delta("hics_parallel_foreach_total"); d < 1 {
		t.Errorf("parallel fan-out counter moved by %v, want >= 1", d)
	}

	// Model metadata gauges reflect the served model, per fleet name.
	if got, want := after[`hicsd_model_subspaces{model="default"}`], float64(len(m.Subspaces())); got != want {
		t.Errorf("hicsd_model_subspaces = %v, want %v", got, want)
	}
	if got, want := after[`hicsd_model_format_version{model="default"}`], float64(m.FormatVersion()); got != want {
		t.Errorf("hicsd_model_format_version = %v, want %v", got, want)
	}

}

// TestRequestIDThreading: every log record of a request — the middleware
// completion line and the detector's refit events from inside the stream
// session — carries the same generated request ID.
func TestRequestIDThreading(t *testing.T) {
	m := fitModel(t)
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	srv := httptest.NewServer(New(Config{Model: m, RequestTimeout: time.Minute, Logger: logger}))
	defer srv.Close()

	r := rng.New(12)
	rows := make([][]float64, 45)
	for i := range rows {
		rows[i] = []float64{r.Float64(), r.Float64(), r.Float64(), r.Float64()}
	}
	resp, records, _ := postStream(t, srv, "/stream?window=30&refit_every=15", ndjsonRows(t, rows))
	if resp.StatusCode != http.StatusOK || len(records) != len(rows) {
		t.Fatalf("stream status %d, %d records", resp.StatusCode, len(records))
	}

	logs := buf.String()
	idPat := regexp.MustCompile(`request_id=([0-9a-f]{16})`)
	ids := map[string]bool{}
	for _, m := range idPat.FindAllStringSubmatch(logs, -1) {
		ids[m[1]] = true
	}
	if len(ids) != 1 {
		t.Fatalf("want exactly one request ID across all records, got %d in:\n%s", len(ids), logs)
	}
	for _, want := range []string{"stream refit complete", "stream session closed", "msg=request"} {
		if !strings.Contains(logs, want) {
			t.Errorf("logs missing %q:\n%s", want, logs)
		}
	}
}

// TestRequestIDFromContext: the middleware seeds RequestID for handlers.
func TestRequestIDFromContext(t *testing.T) {
	if got := RequestID(context.Background()); got != "" {
		t.Errorf("RequestID(background) = %q, want empty", got)
	}
	id1, id2 := trace.RequestID(nil), trace.RequestID(nil)
	if id1 == id2 {
		t.Errorf("request IDs collide: %q", id1)
	}
	if len(id1) != 16 {
		t.Errorf("request ID %q is not 16 hex digits", id1)
	}
}
