package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"hics/internal/metrics"
	"hics/internal/shard"
	"hics/internal/trace"
)

// phaseSample is one phase's hics_phase_seconds _sum and _count.
type phaseSample struct {
	sum   float64
	count float64
}

var phaseLine = regexp.MustCompile(`^hics_phase_seconds_(sum|count)\{phase="([^"]*)"\} (\S+)$`)

// readPhases renders the process registry in-process (no scrape, so no
// serve.metrics span of its own) and returns every phase's sum and count.
func readPhases(t *testing.T) map[string]phaseSample {
	t.Helper()
	var buf bytes.Buffer
	metrics.Default.WritePrometheus(&buf)
	out := make(map[string]phaseSample)
	for _, line := range strings.Split(buf.String(), "\n") {
		m := phaseLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("unparseable sample in %q: %v", line, err)
		}
		s := out[m[2]]
		if m[1] == "sum" {
			s.sum = v
		} else {
			s.count = v
		}
		out[m[2]] = s
	}
	return out
}

// documentedPhases returns the phase names the hics_phase_seconds row of
// docs/metrics.md lists: every backticked dotted name in that row.
func documentedPhases(t *testing.T) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("../../docs/metrics.md")
	if err != nil {
		t.Fatalf("reading docs/metrics.md: %v", err)
	}
	name := regexp.MustCompile("`([a-z_]+\\.[a-z_]+)`")
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, "| `hics_phase_seconds` |") {
			continue
		}
		out := make(map[string]bool)
		for _, m := range name.FindAllStringSubmatch(line, -1) {
			out[m[1]] = true
		}
		return out
	}
	t.Fatal("docs/metrics.md has no hics_phase_seconds row")
	return nil
}

// TestPhaseHistogramMatchesSpans: one traced /rank moves each phase's
// hics_phase_seconds sum by exactly the durations its spans report on
// /debug/traces, and its count by the number of those spans — the
// histogram and the trace are one timing path. Not parallel: the
// histogram is process-global.
func TestPhaseHistogramMatchesSpans(t *testing.T) {
	srv, _ := traceServer(t, trace.Config{})
	body, err := json.Marshal(RankRequest{Rows: rankRows(120), Options: RankOptions{M: 10, Seed: 1, TopK: 5}})
	if err != nil {
		t.Fatal(err)
	}
	const traceID = "5b8aa5a2d2c872e8321cf37308d69df2"
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/rank", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Traceparent", "00-"+traceID+"-051581bf3cb55c13-01")

	before := readPhases(t)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// The root span ends before the response completes, so reading to
	// EOF orders every observation before the second read.
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	after := readPhases(t)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/rank status %d", resp.StatusCode)
	}

	traces := getTraces(t, srv.URL)
	if len(traces) != 1 || traces[0].TraceID != traceID {
		t.Fatalf("want the one /rank trace %s, got %+v", traceID, traces)
	}
	if d := traces[0].DroppedSpans; d != 0 {
		t.Fatalf("trace dropped %d spans; the sums cannot be compared", d)
	}
	spanSum := map[string]float64{}
	spanCount := map[string]float64{}
	for _, sp := range traces[0].Spans {
		spanSum[sp.Name] += sp.DurationMS / 1000
		spanCount[sp.Name]++
	}
	for _, phase := range []string{"serve.rank", "search.subspaces", "search.contrast_level", "ranking.score"} {
		if spanCount[phase] == 0 {
			t.Errorf("trace has no %s span: %+v", phase, traces[0].Spans)
		}
	}
	for phase, want := range spanSum {
		gotSum := after[phase].sum - before[phase].sum
		if math.Abs(gotSum-want) > 1e-6 {
			t.Errorf("phase %s: histogram sum moved by %.9fs, spans report %.9fs", phase, gotSum, want)
		}
		if gotCount := after[phase].count - before[phase].count; gotCount != spanCount[phase] {
			t.Errorf("phase %s: histogram count moved by %v, trace has %v spans", phase, gotCount, spanCount[phase])
		}
	}
}

// TestPhaseLabelsDocumented drives every endpoint, plus an unknown path,
// once on a standalone server and once through a front, and requires
// every phase the traffic observed to be in the phase list docs/metrics.md
// documents — client paths must not mint phase labels. Phases are judged
// by the counts this traffic moved, because other tests in the package
// may have ended spans of their own. Not parallel: the histogram is
// process-global.
func TestPhaseLabelsDocumented(t *testing.T) {
	documented := documentedPhases(t)
	m := fitModel(t)
	standalone := httptest.NewServer(New(Config{Model: m, RequestTimeout: time.Minute, Tracer: trace.New(trace.Config{})}))
	defer standalone.Close()
	router, err := shard.NewRouter(shard.RouterConfig{Shards: []string{strings.TrimPrefix(standalone.URL, "http://")}})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	front := httptest.NewServer(shard.NewFront(shard.FrontConfig{Router: router, Tracer: trace.New(trace.Config{})}))
	defer front.Close()

	rank, err := json.Marshal(RankRequest{Rows: rankRows(60), Options: RankOptions{M: 5, Seed: 1, TopK: 3}})
	if err != nil {
		t.Fatal(err)
	}
	requests := []struct {
		method, path, body string
	}{
		{http.MethodGet, "/healthz", ""},
		{http.MethodGet, "/info", ""},
		{http.MethodPost, "/score", `{"point": [0.5, 0.5, 0.5, 0.5]}`},
		{http.MethodPost, "/rank", string(rank)},
		{http.MethodPost, "/stream", "[0.3,0.3,0.5,0.5]\n[0.7,0.7,0.5,0.5]\n"},
		{http.MethodGet, "/models", ""},
		{http.MethodGet, "/models/default", ""},
		{http.MethodGet, "/metrics", ""},
		{http.MethodGet, "/debug/traces", ""},
		{http.MethodGet, "/no/such/path", ""},
	}
	before := readPhases(t)
	for _, base := range []string{standalone.URL, front.URL} {
		for _, r := range requests {
			req, err := http.NewRequest(r.method, base+r.path+"?session=k", strings.NewReader(r.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	after := readPhases(t)

	observed := make(map[string]bool)
	for phase, s := range after {
		if s.count > before[phase].count {
			observed[phase] = true
			if !documented[phase] {
				t.Errorf("phase %q observed but not in the docs/metrics.md phase list", phase)
			}
		}
	}
	for _, want := range []string{
		"serve.healthz", "serve.info", "serve.score", "serve.rank", "serve.stream",
		"serve.models", "serve.metrics", "serve.debug_traces", "serve.other",
		"front.healthz", "front.info", "front.score", "front.rank", "front.stream",
		"front.models", "front.metrics", "front.debug_traces", "front.other",
		"front.proxy", "search.subspaces", "search.contrast_level", "ranking.score",
	} {
		if !observed[want] {
			t.Errorf("phase %q not observed; observed %v", want, observed)
		}
	}
}
