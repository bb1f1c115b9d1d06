package loadgen

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hics"
	"hics/internal/fleet"
	"hics/internal/rng"
	"hics/internal/serve"
)

var (
	testModelOnce sync.Once
	testModel     *hics.Model
)

// model fits one small model shared across the package's tests.
func model(t *testing.T) *hics.Model {
	t.Helper()
	testModelOnce.Do(func() {
		r := rng.New(7)
		rows := make([][]float64, 150)
		for i := range rows {
			rows[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
		}
		m, err := hics.Fit(rows, hics.Options{M: 10, Seed: 7, TopK: 3})
		if err != nil {
			panic(err)
		}
		testModel = m
	})
	return testModel
}

// newTarget serves a single-model hicsd handler with the given stream
// quota (0 = unlimited).
func newTarget(t *testing.T, maxStreams int) *httptest.Server {
	t.Helper()
	fl := fleet.New(fleet.Config{})
	if err := fl.Put(fleet.DefaultName, model(t), fleet.Quota{MaxStreams: maxStreams}, true); err != nil {
		t.Fatal(err)
	}
	if err := fl.Restore(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.New(serve.Config{Fleet: fl}))
	t.Cleanup(ts.Close)
	return ts
}

func TestStreamLoad(t *testing.T) {
	ts := newTarget(t, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep, err := Run(ctx, Config{Target: ts.URL, Mode: "stream", Sessions: 3, Rows: 20})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RowsSent != 60 || rep.RecordsReceived != 60 {
		t.Errorf("rows sent %d records %d, want 60/60", rep.RowsSent, rep.RecordsReceived)
	}
	if rep.Errors != 0 || rep.AdmissionRetries != 0 {
		t.Errorf("errors %d retries %d, want 0/0", rep.Errors, rep.AdmissionRetries)
	}
	if rep.LatencyMS.Max <= 0 || rep.LatencyMS.P50 > rep.LatencyMS.Max {
		t.Errorf("latency percentiles inconsistent: %+v", rep.LatencyMS)
	}
	if rep.RowsPerSecond <= 0 {
		t.Errorf("throughput %v, want > 0", rep.RowsPerSecond)
	}
	human := rep.Human()
	for _, want := range []string{"records received 60", "latency ms", "throughput"} {
		if !strings.Contains(human, want) {
			t.Errorf("Human() missing %q:\n%s", want, human)
		}
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Errorf("report must serialize: %v", err)
	}
}

func TestStreamLoadRated(t *testing.T) {
	ts := newTarget(t, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	rep, err := Run(ctx, Config{Target: ts.URL, Sessions: 1, Rows: 6, Rate: 50})
	if err != nil {
		t.Fatal(err)
	}
	// 6 rows at 50 rows/s paces the session to ~100ms.
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Errorf("rated run finished in %v, want >= 80ms of pacing", elapsed)
	}
	if rep.RecordsReceived != 6 {
		t.Errorf("records %d, want 6", rep.RecordsReceived)
	}
}

// TestStreamLoadQuotaRetry: with a 1-stream admission quota and 2
// concurrent sessions, the refused session must back off, retry under a
// rotated key, and still complete all rows.
func TestStreamLoadQuotaRetry(t *testing.T) {
	ts := newTarget(t, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rep, err := Run(ctx, Config{Target: ts.URL, Sessions: 2, Rows: 30, Rate: 200})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RecordsReceived != 60 {
		t.Errorf("records %d, want 60 (both sessions complete eventually)", rep.RecordsReceived)
	}
	if rep.AdmissionRetries == 0 {
		t.Error("expected at least one 429 admission retry under a 1-stream quota")
	}
	if rep.Errors != 0 {
		t.Errorf("errors %d, want 0 — quota bounces are retries, not errors", rep.Errors)
	}
}

// refusingTarget answers the first attempt of /stream and of /score
// with 429 — the stream refusal only after reading two rows, so rows
// were written into a session that was never admitted — and serves every
// later attempt: one record per streamed line, one score per request.
func refusingTarget(t *testing.T) *httptest.Server {
	t.Helper()
	var mu sync.Mutex
	refused := map[string]bool{}
	refuseFirst := func(path string) bool {
		mu.Lock()
		defer mu.Unlock()
		first := !refused[path]
		refused[path] = true
		return first
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lines := bufio.NewScanner(r.Body)
		if r.URL.Path == "/score" {
			if refuseFirst(r.URL.Path) {
				w.Header().Set("Retry-After", "0")
				http.Error(w, `{"error":"quota"}`, http.StatusTooManyRequests)
				return
			}
			fmt.Fprintln(w, `{"score":1}`)
			return
		}
		if refuseFirst(r.URL.Path) {
			for range 2 {
				lines.Scan()
			}
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"quota"}`, http.StatusTooManyRequests)
			return
		}
		var out bytes.Buffer
		for i := 0; lines.Scan(); i++ {
			fmt.Fprintf(&out, "{\"index\":%d,\"score\":1}\n", i)
		}
		_, _ = w.Write(out.Bytes())
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestRefusedRowsCountAsBounced: rows written into an attempt the server
// refused with 429 are reported as bounced, never as sent; rows_sent
// counts only the admitted attempt's rows.
func TestRefusedRowsCountAsBounced(t *testing.T) {
	ts := refusingTarget(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep, err := Run(ctx, Config{Target: ts.URL, Mode: "stream", Sessions: 1, Rows: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RowsSent != 5 || rep.RecordsReceived != 5 {
		t.Errorf("stream: rows sent %d records %d, want 5/5", rep.RowsSent, rep.RecordsReceived)
	}
	if rep.RowsBounced < 2 || rep.RowsBounced > 5 {
		t.Errorf("stream: rows bounced %d, want 2..5 (the refused attempt read 2)", rep.RowsBounced)
	}
	if rep.AdmissionRetries != 1 || rep.Errors != 0 {
		t.Errorf("stream: retries %d errors %d, want 1/0", rep.AdmissionRetries, rep.Errors)
	}
	if !strings.Contains(rep.Human(), "rows bounced") {
		t.Errorf("Human() missing the bounced rows:\n%s", rep.Human())
	}

	rep, err = Run(ctx, Config{Target: ts.URL, Mode: "score", Sessions: 1, Rows: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RowsSent != 3 || rep.RowsBounced != 1 || rep.RecordsReceived != 3 {
		t.Errorf("score: rows sent %d bounced %d records %d, want 3/1/3",
			rep.RowsSent, rep.RowsBounced, rep.RecordsReceived)
	}
}

func TestScoreLoad(t *testing.T) {
	ts := newTarget(t, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep, err := Run(ctx, Config{Target: ts.URL, Mode: "score", Sessions: 2, Rows: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RecordsReceived != 20 || rep.Errors != 0 {
		t.Errorf("records %d errors %d, want 20/0", rep.RecordsReceived, rep.Errors)
	}
	if rep.LatencyMS.P99 <= 0 {
		t.Errorf("latency percentiles empty: %+v", rep.LatencyMS)
	}
}

// TestTracedLoadReportsSlowTraces: with Trace on, every mode reports
// the p99-slowest trace IDs — valid 32-hex W3C IDs, slowest first — and
// the summary prints them.
func TestTracedLoadReportsSlowTraces(t *testing.T) {
	ts := newTarget(t, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, mode := range []string{"stream", "score"} {
		rep, err := Run(ctx, Config{Target: ts.URL, Mode: mode, Sessions: 2, Rows: 10, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		if rep.RecordsReceived != 20 || rep.Errors != 0 {
			t.Fatalf("%s: records %d errors %d, want 20/0", mode, rep.RecordsReceived, rep.Errors)
		}
		if len(rep.SlowTraces) == 0 {
			t.Fatalf("%s: no slow traces reported with Trace on", mode)
		}
		for i, st := range rep.SlowTraces {
			if len(st.TraceID) != 32 || strings.Trim(st.TraceID, "0123456789abcdef") != "" {
				t.Errorf("%s: trace ID %q is not 32 lowercase hex digits", mode, st.TraceID)
			}
			if st.LatencyMS < rep.LatencyMS.P99 {
				t.Errorf("%s: slow trace %d at %.2fms is below p99 %.2fms", mode, i, st.LatencyMS, rep.LatencyMS.P99)
			}
			if i > 0 && st.LatencyMS > rep.SlowTraces[i-1].LatencyMS {
				t.Errorf("%s: slow traces not sorted slowest-first", mode)
			}
		}
		if !strings.Contains(rep.Human(), "p99+ traces") {
			t.Errorf("%s: Human() missing the p99+ traces block:\n%s", mode, rep.Human())
		}
	}
}

// TestTracedLoadSendsIdenticalRows: the trace identities draw from
// their own random stream, so a traced run generates byte-identical
// rows to an untraced one (asserted via identical latency sample
// counts and scores — here, identical record counts suffice plus the
// deterministic row stream being untouched by construction; the cheap
// observable is that two runs with the same seed score the same rows).
func TestTracedRowStreamUnperturbed(t *testing.T) {
	r1 := rng.New(1 + 0*1000003)
	r2 := rng.New(1 + 0*1000003)
	// Drawing the trace stream must not advance the row stream.
	_ = mintSpanContext(rng.New(1 + 0*1000003).Derive(traceRNGLabel))
	a := appendRowLine(nil, r1, 3)
	b := appendRowLine(nil, r2, 3)
	if string(a) != string(b) {
		t.Errorf("row streams diverged: %q vs %q", a, b)
	}
}

func TestConfigValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := Run(ctx, Config{}); err == nil {
		t.Error("missing target should fail")
	}
	if _, err := Run(ctx, Config{Target: "http://x", Mode: "bogus"}); err == nil {
		t.Error("bad mode should fail")
	}
	if _, err := Run(ctx, Config{Target: "http://x", Rate: -1}); err == nil {
		t.Error("negative rate should fail")
	}
}

func TestPercentiles(t *testing.T) {
	p := percentiles(nil)
	if p.Max != 0 {
		t.Errorf("empty percentiles = %+v, want zeros", p)
	}
	ms := make([]float64, 100)
	for i := range ms {
		ms[i] = float64(i + 1) // 1..100
	}
	p = percentiles(ms)
	if p.P50 != 50 || p.P90 != 90 || p.P99 != 99 || p.Max != 100 {
		t.Errorf("percentiles of 1..100 = %+v, want 50/90/99/100", p)
	}
}
