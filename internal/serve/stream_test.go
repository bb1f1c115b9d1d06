package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hics"
	"hics/internal/rng"
)

// ndjsonRows encodes rows as one JSON array per line.
func ndjsonRows(t *testing.T, rows [][]float64) string {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range rows {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

// postStream posts an NDJSON body to /stream and returns the status and
// the decoded response lines (records and raw lines).
func postStream(t *testing.T, srv *httptest.Server, path, body string) (*http.Response, []hics.StreamResult, []string) {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var (
		records []hics.StreamResult
		lines   []string
	)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		lines = append(lines, line)
		var rec hics.StreamResult
		if err := json.Unmarshal([]byte(line), &rec); err == nil && !strings.Contains(line, `"error"`) {
			records = append(records, rec)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp, records, lines
}

// TestStreamEndpointMatchesScoreBatch: with the default options (window =
// training size, never refit) the streamed scores are exactly
// Model.ScoreBatch of the posted rows, one record per line in order.
func TestStreamEndpointMatchesScoreBatch(t *testing.T) {
	m := fitModel(t)
	srv := httptest.NewServer(New(Config{Model: m, RequestTimeout: time.Minute}))
	defer srv.Close()

	r := rng.New(7)
	rows := make([][]float64, 25)
	for i := range rows {
		rows[i] = []float64{r.Float64(), r.Float64(), r.Float64(), r.Float64()}
	}
	resp, records, lines := postStream(t, srv, "/stream", ndjsonRows(t, rows))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, lines)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	if len(records) != len(rows) {
		t.Fatalf("streamed %d records for %d rows: %v", len(records), len(rows), lines)
	}
	want, err := m.ScoreBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range records {
		if rec.Index != i || rec.Refits != 0 {
			t.Errorf("record %d = %+v, want index %d refits 0", i, rec, i)
		}
		if rec.Score != want[i] {
			t.Errorf("streamed score %d = %v, ScoreBatch %v", i, rec.Score, want[i])
		}
	}
}

// TestStreamEndpointRefits: a small window plus a refit cadence makes the
// detector swap models mid-stream, visible in the refits field.
func TestStreamEndpointRefits(t *testing.T) {
	m := fitModel(t)
	srv := httptest.NewServer(New(Config{Model: m, RequestTimeout: time.Minute}))
	defer srv.Close()

	r := rng.New(8)
	rows := make([][]float64, 60)
	for i := range rows {
		rows[i] = []float64{r.Float64(), r.Float64(), r.Float64(), r.Float64()}
	}
	resp, records, lines := postStream(t, srv, "/stream?window=40&refit_every=20", ndjsonRows(t, rows))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, lines)
	}
	if len(records) != len(rows) {
		t.Fatalf("streamed %d records for %d rows: %v", len(records), len(rows), lines)
	}
	if last := records[len(records)-1]; last.Refits == 0 {
		t.Errorf("stream never refitted: %+v", last)
	}
}

// TestStreamEndpointErrors: option and row validation surface as a 400
// (before streaming); a bad row, a score JSON cannot carry and a failed
// refit mid-stream end it with a terminal error record.
func TestStreamEndpointErrors(t *testing.T) {
	m := fitModel(t)
	srv := httptest.NewServer(New(Config{Model: m}))
	defer srv.Close()

	// GET is rejected.
	resp, err := http.Get(srv.URL + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /stream status %d, want 405", resp.StatusCode)
	}

	// Bad query parameters and invalid options are 400s.
	for _, path := range []string{
		"/stream?window=abc",
		"/stream?refit_every=x",
		"/stream?async=maybe",
		"/stream?window=5",           // <= MinPts
		"/stream?refit_every=-1",     // negative cadence
		"/stream?async=true",         // async without refits
		"/stream?window=-20&async=0", // negative window
	} {
		resp, _, lines := postStream(t, srv, path, "")
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%v), want 400", path, resp.StatusCode, lines)
		}
	}

	// Mid-stream failures: the rows before the failure are scored, then
	// exactly one terminal error record ends the stream, and the session
	// closes its detector and its stream.
	dupSrv := httptest.NewServer(New(Config{Model: duplicateModel(t)}))
	defer dupSrv.Close()
	// A refit of the wide model searches 12 attributes and takes tens of
	// milliseconds, so with a refit after every arrival the one-second
	// budget runs out in the middle of one.
	wide := wideRows(9, 300)
	slowSrv := httptest.NewServer(New(Config{Model: fitWideModel(t), RequestTimeout: time.Second}))
	defer slowSrv.Close()
	for _, tc := range []struct {
		name       string
		srv        *httptest.Server
		path, body string
		// minRecords and maxRecords bound the rows scored before the
		// error record, which must contain wantErr.
		minRecords, maxRecords int
		wantErr                string
		refitFails             bool
	}{
		{"malformed row", srv, "/stream", "[0.5,0.5,0.5,0.5]\nnot json\n[0.5,0.5,0.5,0.5]\n", 1, 1, "invalid row", false},
		{"short row", srv, "/stream", "[0.5,0.5]\n", 0, 0, "row 0 has 2 attributes, want 4", false},
		// Non-finite input cannot even be encoded as JSON; the decode
		// failure is a terminal error record, not a silent NaN score.
		{"1e999 row", srv, "/stream", "[1e999,0.5,0.5,0.5]\n", 0, 0, "invalid row", false},
		// A novel row among the duplicate model's piles of duplicates
		// scores +Inf, which JSON cannot carry.
		{"non-representable score", dupSrv, "/stream", "[0.5,0.5,0]\n[0.5,0.5,1]\n[0.5,0.5,0.25]\n", 2, 2, "row 2: score not representable", false},
		// The window fills at arrival 49, which triggers the first refit
		// and withholds its result if the refit fails.
		{"refit past the budget", slowSrv, "/stream?window=50&refit_every=1", ndjsonRows(t, wide), 49, len(wide) - 1, "compute budget", true},
	} {
		streams0 := mActiveStreams.Total()
		before := scrapeMetrics(t, tc.srv)
		resp, records, lines := postStream(t, tc.srv, tc.path, tc.body)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d, want 200", tc.name, resp.StatusCode)
		}
		if len(records) < tc.minRecords || len(records) > tc.maxRecords {
			t.Errorf("%s: scored %d rows before the error, want %d to %d", tc.name, len(records), tc.minRecords, tc.maxRecords)
		}
		for i, rec := range records {
			if rec.Index != i {
				t.Errorf("%s: record %d has index %d", tc.name, i, rec.Index)
				break
			}
		}
		last := ""
		if len(lines) > 0 {
			last = lines[len(lines)-1]
		}
		if len(lines) != len(records)+1 || !strings.Contains(last, `"error"`) || !strings.Contains(last, tc.wantErr) {
			t.Errorf("%s: %d lines ending %q, want the records then one error record naming %q",
				tc.name, len(lines), last, tc.wantErr)
		}
		deadline := time.Now().Add(10 * time.Second)
		var after map[string]float64
		for {
			after = scrapeMetrics(t, tc.srv)
			settled := mActiveStreams.Total() <= streams0 &&
				after["hics_stream_detectors_active"] <= before["hics_stream_detectors_active"]
			if settled || time.Now().After(deadline) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if n := mActiveStreams.Total(); n > streams0 {
			t.Errorf("%s: hicsd_streams_active = %v after the session, want %v", tc.name, n, streams0)
		}
		if got, want := after["hics_stream_detectors_active"], before["hics_stream_detectors_active"]; got > want {
			t.Errorf("%s: hics_stream_detectors_active = %v after the session, want %v", tc.name, got, want)
		}
		failed := after["hics_stream_refit_failures_total"] > before["hics_stream_refit_failures_total"]
		if failed != tc.refitFails {
			t.Errorf("%s: a refit failed = %v, want %v", tc.name, failed, tc.refitFails)
		}
	}
}

// duplicateModel is fitted on 60 rows that alternate between two points,
// so every training neighborhood is a pile of exact duplicates and a
// novel row scores +Inf.
func duplicateModel(t *testing.T) *hics.Model {
	t.Helper()
	rows := make([][]float64, 60)
	for i := range rows {
		rows[i] = []float64{0.5, 0.5, float64(i % 2)}
	}
	m, err := hics.Fit(rows, hics.Options{M: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// wideRows draws n uniform rows of 12 attributes.
func wideRows(seed uint64, n int) [][]float64 {
	r := rng.New(seed)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, 12)
		for j := range rows[i] {
			rows[i][j] = r.Float64()
		}
	}
	return rows
}

// fitWideModel fits a model on 12 uniform attributes.
func fitWideModel(t *testing.T) *hics.Model {
	t.Helper()
	m, err := hics.Fit(wideRows(8, 100), hics.Options{M: 10, Seed: 8, TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestStreamEndpointFlushesPerRow verifies the NDJSON contract end to
// end: records arrive incrementally while the request body is still
// open, so a live feed sees each score as soon as it is computed.
func TestStreamEndpointFlushesPerRow(t *testing.T) {
	m := fitModel(t)
	srv := httptest.NewServer(New(Config{Model: m}))
	defer srv.Close()

	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	respc := make(chan *http.Response, 1)
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			errc <- err
			return
		}
		respc <- resp
	}()

	if _, err := io.WriteString(pw, "[0.5,0.5,0.5,0.5]\n"); err != nil {
		t.Fatal(err)
	}
	var resp *http.Response
	select {
	case resp = <-respc:
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(10 * time.Second):
		t.Fatal("no response while the body is open: records are not flushed per row")
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	linec := make(chan string, 4)
	go func() {
		for sc.Scan() {
			linec <- sc.Text()
		}
		close(linec)
	}()
	readLine := func() string {
		select {
		case l := <-linec:
			return l
		case <-time.After(10 * time.Second):
			t.Fatal("timed out waiting for a streamed record")
			return ""
		}
	}
	var first hics.StreamResult
	if err := json.Unmarshal([]byte(readLine()), &first); err != nil || first.Index != 0 {
		t.Fatalf("first streamed line: %v (err %v)", first, err)
	}
	// Second row only becomes available after the first record arrived —
	// proving the flush, not buffering, delivered it.
	if _, err := io.WriteString(pw, "[0.1,0.9,0.5,0.5]\n"); err != nil {
		t.Fatal(err)
	}
	var second hics.StreamResult
	if err := json.Unmarshal([]byte(readLine()), &second); err != nil || second.Index != 1 {
		t.Fatalf("second streamed line: %v (err %v)", second, err)
	}
	pw.Close()
	if _, ok := <-linec; ok {
		t.Error("unexpected extra line after EOF")
	}
}

// TestStreamEndpointClientDisconnect: cancelling the request mid-stream
// tears the session down — the active-streams gauge returns to its
// baseline instead of leaking a detector.
func TestStreamEndpointClientDisconnect(t *testing.T) {
	m := fitModel(t)
	srv := httptest.NewServer(New(Config{Model: m}))
	defer srv.Close()

	baseline := mActiveStreams.Total()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	respc := make(chan *http.Response, 1)
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			errc <- err
			return
		}
		respc <- resp
	}()
	if _, err := io.WriteString(pw, "[0.5,0.5,0.5,0.5]\n"); err != nil {
		t.Fatal(err)
	}
	// The first streamed record proves the session is open and mid-body.
	var resp *http.Response
	select {
	case resp = <-respc:
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(10 * time.Second):
		t.Fatal("stream session never opened")
	}
	line := make([]byte, 256)
	if _, err := resp.Body.Read(line); err != nil {
		t.Fatal(err)
	}
	// Drop the client mid-stream: the handler's request context fires and
	// the session tears down, returning the gauge to its baseline.
	cancel()
	pw.CloseWithError(context.Canceled)
	resp.Body.Close()
	deadline := time.Now().Add(10 * time.Second)
	for mActiveStreams.Total() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := mActiveStreams.Total(); n > baseline {
		t.Errorf("active_streams = %v after disconnect, want %v", n, baseline)
	}
}

// holdRefitHandler is a slog handler that holds the first "stream refit
// complete" record until release is closed. Stream.refit logs it on the
// refit goroutine after the fit, so holding it keeps the goroutine alive.
type holdRefitHandler struct {
	held, release chan struct{}
	once          *sync.Once
}

func (h holdRefitHandler) Enabled(context.Context, slog.Level) bool { return true }

func (h holdRefitHandler) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "stream refit complete" {
		h.once.Do(func() {
			close(h.held)
			<-h.release
		})
	}
	return nil
}

func (h holdRefitHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h holdRefitHandler) WithGroup(string) slog.Handler      { return h }

// TestStreamGaugesWaitForRefit: when a client drops a session whose async
// refit is still running, hicsd_streams_active keeps the session and
// hics_stream_detectors_active its detector until the refit has ended and
// Close has joined it; then both return to their baselines.
func TestStreamGaugesWaitForRefit(t *testing.T) {
	h := holdRefitHandler{held: make(chan struct{}), release: make(chan struct{}), once: new(sync.Once)}
	released := false
	defer func() {
		if !released {
			close(h.release)
		}
	}()
	srv := httptest.NewServer(New(Config{Model: fitModel(t), Logger: slog.New(h)}))
	defer srv.Close()

	streams0 := mActiveStreams.Total()
	detectors0 := scrapeMetrics(t, srv)["hics_stream_detectors_active"]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/stream?window=20&refit_every=20&async=1", pr)
	if err != nil {
		t.Fatal(err)
	}
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	r := rng.New(7)
	for i := 0; i < 20; i++ {
		if _, err := fmt.Fprintf(pw, "[%v,%v,%v,%v]\n", r.Float64(), r.Float64(), r.Float64(), r.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-h.held:
	case <-time.After(10 * time.Second):
		t.Fatal("the session's async refit never completed its fit")
	}
	// Drop the client while the refit goroutine is held: the handler
	// returns and its deferred Close waits on the refit.
	cancel()
	pw.CloseWithError(context.Canceled)
	<-ended
	time.Sleep(100 * time.Millisecond)
	if n := mActiveStreams.Total(); n != streams0+1 {
		t.Errorf("hicsd_streams_active = %v while the refit runs, want %v", n, streams0+1)
	}
	if n := scrapeMetrics(t, srv)["hics_stream_detectors_active"]; n != detectors0+1 {
		t.Errorf("hics_stream_detectors_active = %v while the refit runs, want %v", n, detectors0+1)
	}
	close(h.release)
	released = true
	deadline := time.Now().Add(10 * time.Second)
	for {
		streams, detectors := mActiveStreams.Total(), scrapeMetrics(t, srv)["hics_stream_detectors_active"]
		if streams == streams0 && detectors == detectors0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after the refit: hicsd_streams_active = %v (want %v), hics_stream_detectors_active = %v (want %v)",
				streams, streams0, detectors, detectors0)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMetricsCounters: the registry instrumentation moves with traffic.
func TestMetricsCounters(t *testing.T) {
	m := fitModel(t)
	srv := httptest.NewServer(New(Config{Model: m, RequestTimeout: time.Minute}))
	defer srv.Close()

	requests0 := mRequests.Total()
	errors0 := mErrors.Value()
	refits0 := mRefits.Total()

	// One good score, one bad request, one refitting stream.
	resp, _, _ := postScore(t, srv, `{"point": [0.5, 0.5, 0.5, 0.5]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("score status %d", resp.StatusCode)
	}
	resp, _, _ = postScore(t, srv, `{`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad score status %d", resp.StatusCode)
	}
	r := rng.New(9)
	rows := make([][]float64, 45)
	for i := range rows {
		rows[i] = []float64{r.Float64(), r.Float64(), r.Float64(), r.Float64()}
	}
	streamResp, records, _ := postStream(t, srv, "/stream?window=30&refit_every=15", ndjsonRows(t, rows))
	if streamResp.StatusCode != http.StatusOK || len(records) != len(rows) {
		t.Fatalf("stream status %d, %d records", streamResp.StatusCode, len(records))
	}

	if d := mRequests.Total() - requests0; d < 3 {
		t.Errorf("requests moved by %d, want >= 3", d)
	}
	if d := mErrors.Value() - errors0; d < 1 {
		t.Errorf("errors moved by %d, want >= 1", d)
	}
	if d := mRefits.Total() - refits0; d < 1 {
		t.Errorf("refits moved by %d, want >= 1", d)
	}
	// Per-endpoint series moved too: a 200 /score, a 400 /score, a 200
	// /stream.
	if n := mRequests.With("score", "200", "default").Value(); n < 1 {
		t.Errorf(`requests{score,200} = %d, want >= 1`, n)
	}
	if n := mRequests.With("score", "400", "default").Value(); n < 1 {
		t.Errorf(`requests{score,400} = %d, want >= 1`, n)
	}
	if n := mRequests.With("stream", "200", "default").Value(); n < 1 {
		t.Errorf(`requests{stream,200} = %d, want >= 1`, n)
	}

	// The registry is the one view: the old expvar page is gone.
	dv, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	dv.Body.Close()
	if dv.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/vars status %d, want 404", dv.StatusCode)
	}
}

// TestScoreRejectsNonFinite: the JSON boundary cannot carry NaN/Inf, so
// the handlers reject such payloads as 400s instead of scoring them —
// the regression contract for the /score and /rank entry points.
func TestScoreRejectsNonFinite(t *testing.T) {
	m := fitModel(t)
	srv := httptest.NewServer(New(Config{Model: m}))
	defer srv.Close()
	for _, body := range []string{
		`{"point": [1e999, 0.5, 0.5, 0.5]}`,
		`{"points": [[0.5, 0.5, 0.5, -1e999]]}`,
	} {
		resp, _, got := postScore(t, srv, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d (%s), want 400", body, resp.StatusCode, got)
		}
	}
	resp, got := postRank(t, srv, []byte(`{"rows": [[1e999, 2], [3, 4]]}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("/rank with 1e999: status %d (%s), want 400", resp.StatusCode, got)
	}
}

// TestStreamEndpointDefaultsFromConfig: the server-side stream defaults
// apply when the client passes no query parameters.
func TestStreamEndpointDefaultsFromConfig(t *testing.T) {
	m := fitModel(t)
	srv := httptest.NewServer(New(Config{Model: m, StreamWindow: 30, StreamRefitEvery: 15}))
	defer srv.Close()
	r := rng.New(10)
	rows := make([][]float64, 45)
	for i := range rows {
		rows[i] = []float64{r.Float64(), r.Float64(), r.Float64(), r.Float64()}
	}
	resp, records, lines := postStream(t, srv, "/stream", ndjsonRows(t, rows))
	if resp.StatusCode != http.StatusOK || len(records) != len(rows) {
		t.Fatalf("status %d, %d records (%v)", resp.StatusCode, len(records), lines)
	}
	if last := records[len(records)-1]; last.Refits == 0 {
		t.Errorf("configured refit cadence never fired: %+v", last)
	}
	// An invalid configured default still fails fast per request.
	bad := httptest.NewServer(New(Config{Model: m, StreamWindow: 5}))
	defer bad.Close()
	resp2, _, _ := postStream(t, bad, "/stream", "")
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad default window: status %d, want 400", resp2.StatusCode)
	}
}
