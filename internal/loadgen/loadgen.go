// Package loadgen drives synthetic scoring load at a hicsd deployment —
// standalone, shard or front — and measures what the server actually
// delivered: end-to-end per-row latency percentiles, sustained
// throughput, error and admission-retry counts.
//
// Two modes mirror the two serving shapes. "stream" opens N concurrent
// NDJSON /stream sessions, each feeding rows at a configured rate and
// timing every row from the moment its line is written until its scored
// record returns — the number that matters for a live feed, including
// transport, queuing and scoring. "score" issues sequential unary
// /score requests over N workers, timing each round trip.
//
// Sessions refused with 429 (admission quota) back off for the server's
// Retry-After and retry under a rotated session key, so a front spreads
// the retry across the shard map instead of hammering the same full
// backend. Refusals are reported separately from errors: a quota bounce
// is the system working, a mid-stream error record is not.
package loadgen

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"hics/internal/metrics"
	"hics/internal/rng"
	"hics/internal/trace"
)

// Load-generator instrumentation, registered in the shared registry so
// an embedding process (tests, a long-running soak harness) can expose
// them; the hicsload command itself reports through its summary record.
var (
	mRowsSent = metrics.Default.NewCounter("hicsload_rows_sent_total",
		"Rows written to the target across all admitted sessions.")
	mRecords = metrics.Default.NewCounter("hicsload_records_total",
		"Scored records received back across all sessions.")
	mErrors = metrics.Default.NewCounterVec("hicsload_errors_total",
		"Load-generation failures by kind (connect, status, record, read).", "kind")
	mRetries = metrics.Default.NewCounter("hicsload_admission_retries_total",
		"Sessions re-attempted under a rotated key after a 429 admission refusal.")
	mLatency = metrics.Default.NewHistogram("hicsload_row_latency_seconds",
		"End-to-end per-row latency: line written to scored record received.", nil)
)

// Config shapes one load run.
type Config struct {
	// Target is the base URL of the deployment under load
	// (e.g. http://127.0.0.1:8080). Required.
	Target string
	// Mode is "stream" (concurrent NDJSON sessions) or "score"
	// (sequential unary requests per worker). Default "stream".
	Mode string
	// Sessions is the number of concurrent sessions (stream) or workers
	// (score). Default 1.
	Sessions int
	// Rows is the number of rows each session sends (stream) or requests
	// each worker issues (score). Default 100.
	Rows int
	// Rate throttles each session to this many rows per second
	// (0 = as fast as the server accepts them).
	Rate float64
	// Dim is the row width; it must match the served model. Default 3.
	Dim int
	// Model routes requests to a named model (?model=). Empty uses the
	// default model.
	Model string
	// KeyParam is the query parameter carrying the session key
	// (default "session" — what a front routes on).
	KeyParam string
	// KeyPrefix prefixes generated session keys (default "load").
	KeyPrefix string
	// Seed makes the generated rows reproducible. Default 1.
	Seed uint64
	// MaxRetries bounds the 429 admission retries per session
	// (default 50).
	MaxRetries int
	// Trace sends a W3C traceparent with every session (stream mode:
	// one trace per session attempt) or request (score mode), minted
	// deterministically from Seed, and reports the trace IDs behind the
	// p99-slowest latencies — the IDs to paste into the server's
	// GET /debug/traces to see where the time went.
	Trace bool
	// Client performs the requests; nil uses a streaming-safe default
	// (no global timeout — sessions are long-lived by design).
	Client *http.Client
}

func (cfg *Config) fill() error {
	if cfg.Target == "" {
		return fmt.Errorf("loadgen: Target is required")
	}
	if _, err := url.Parse(cfg.Target); err != nil {
		return fmt.Errorf("loadgen: bad target: %w", err)
	}
	if cfg.Mode == "" {
		cfg.Mode = "stream"
	}
	if cfg.Mode != "stream" && cfg.Mode != "score" {
		return fmt.Errorf("loadgen: mode must be stream or score, got %q", cfg.Mode)
	}
	if cfg.Sessions <= 0 {
		cfg.Sessions = 1
	}
	if cfg.Rows <= 0 {
		cfg.Rows = 100
	}
	if cfg.Rate < 0 {
		return fmt.Errorf("loadgen: rate must be non-negative, got %v", cfg.Rate)
	}
	if cfg.Dim <= 0 {
		cfg.Dim = 3
	}
	if cfg.KeyParam == "" {
		cfg.KeyParam = "session"
	}
	if cfg.KeyPrefix == "" {
		cfg.KeyPrefix = "load"
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 50
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	cfg.Target = strings.TrimRight(cfg.Target, "/")
	return nil
}

// Percentiles are latency quantiles in milliseconds.
type Percentiles struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// Report is the outcome of one load run — both the human summary and
// the machine-comparable record serialize from it.
type Report struct {
	Mode             string      `json:"mode"`
	Target           string      `json:"target"`
	Sessions         int         `json:"sessions"`
	RowsPerSession   int         `json:"rows_per_session"`
	RateRowsPerSec   float64     `json:"rate_rows_per_sec,omitempty"`
	Dim              int         `json:"dim"`
	DurationSeconds  float64     `json:"duration_seconds"`
	RowsSent         int64       `json:"rows_sent"`
	RecordsReceived  int64       `json:"records_received"`
	Errors           int64       `json:"errors"`
	AdmissionRetries int64       `json:"admission_retries"`
	RowsPerSecond    float64     `json:"rows_per_second"`
	LatencyMS        Percentiles `json:"latency_ms"`
	// RowsBounced counts rows written into stream session attempts or
	// /score requests the server never admitted (a 429 refusal, another
	// non-200 status or a failed connect). They were not scored and are
	// not in RowsSent; a retried row counts once per bounced attempt.
	RowsBounced int64 `json:"rows_bounced"`
	// SlowTraces lists the distinct trace IDs behind the slowest
	// latencies at or above p99, slowest first, when tracing was on.
	SlowTraces []SlowTrace `json:"slow_traces,omitempty"`
}

// SlowTrace ties a slow measurement to the distributed trace that can
// explain it.
type SlowTrace struct {
	TraceID   string  `json:"trace_id"`
	LatencyMS float64 `json:"latency_ms"`
}

// Human renders the operator-facing summary.
func (r *Report) Human() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hicsload %s against %s\n", r.Mode, r.Target)
	fmt.Fprintf(&b, "  sessions         %d x %d rows", r.Sessions, r.RowsPerSession)
	if r.RateRowsPerSec > 0 {
		fmt.Fprintf(&b, " @ %.4g rows/s each", r.RateRowsPerSec)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "  duration         %.2fs\n", r.DurationSeconds)
	fmt.Fprintf(&b, "  rows sent        %d\n", r.RowsSent)
	fmt.Fprintf(&b, "  rows bounced     %d\n", r.RowsBounced)
	fmt.Fprintf(&b, "  records received %d\n", r.RecordsReceived)
	fmt.Fprintf(&b, "  throughput       %.1f rows/s\n", r.RowsPerSecond)
	fmt.Fprintf(&b, "  latency ms       p50 %.2f  p90 %.2f  p99 %.2f  max %.2f\n",
		r.LatencyMS.P50, r.LatencyMS.P90, r.LatencyMS.P99, r.LatencyMS.Max)
	fmt.Fprintf(&b, "  errors           %d\n", r.Errors)
	fmt.Fprintf(&b, "  admission 429s   %d\n", r.AdmissionRetries)
	if len(r.SlowTraces) > 0 {
		b.WriteString("  p99+ traces      ")
		for i, st := range r.SlowTraces {
			if i > 0 {
				b.WriteString("\n                   ")
			}
			fmt.Fprintf(&b, "%s (%.2f ms)", st.TraceID, st.LatencyMS)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// sessionResult is one worker's tally.
type sessionResult struct {
	rowsSent    int64
	rowsBounced int64
	records     int64
	errors      int64
	retries     int64
	latencies   []float64 // milliseconds
	// traceIDs parallels latencies when Config.Trace is on: the trace
	// each measurement rode in (one per session attempt in stream mode,
	// one per request in score mode).
	traceIDs []string
}

// traceRNGLabel derives the trace-identity stream from a worker's seed.
// It is distinct from the row stream, so -trace never perturbs the
// generated data: a traced run sends byte-identical rows.
const traceRNGLabel = 0x74726163 // "trac"

// mintSpanContext draws a sampled trace identity from r. Zero IDs are
// invalid per W3C, so it redraws on the (cosmically unlikely) zero.
func mintSpanContext(r *rng.RNG) trace.SpanContext {
	var sc trace.SpanContext
	for sc.TraceID.IsZero() {
		binary.BigEndian.PutUint64(sc.TraceID[:8], r.Uint64())
		binary.BigEndian.PutUint64(sc.TraceID[8:], r.Uint64())
	}
	for sc.SpanID.IsZero() {
		binary.BigEndian.PutUint64(sc.SpanID[:], r.Uint64())
	}
	sc.Sampled = true
	return sc
}

// Run executes the configured load and aggregates the report. It
// returns an error only for unusable configuration or a cancelled
// context — server-side failures are load results, counted in the
// report, not reasons to abort the measurement.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	start := time.Now()
	results := make([]sessionResult, cfg.Sessions)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch cfg.Mode {
			case "stream":
				results[i] = runStreamSession(ctx, cfg, i)
			case "score":
				results[i] = runScoreWorker(ctx, cfg, i)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &Report{
		Mode:            cfg.Mode,
		Target:          cfg.Target,
		Sessions:        cfg.Sessions,
		RowsPerSession:  cfg.Rows,
		RateRowsPerSec:  cfg.Rate,
		Dim:             cfg.Dim,
		DurationSeconds: elapsed.Seconds(),
	}
	var all []float64
	var samples []SlowTrace
	for _, r := range results {
		rep.RowsSent += r.rowsSent
		rep.RowsBounced += r.rowsBounced
		rep.RecordsReceived += r.records
		rep.Errors += r.errors
		rep.AdmissionRetries += r.retries
		all = append(all, r.latencies...)
		for i, id := range r.traceIDs {
			samples = append(samples, SlowTrace{TraceID: id, LatencyMS: r.latencies[i]})
		}
	}
	if elapsed > 0 {
		rep.RowsPerSecond = float64(rep.RecordsReceived) / elapsed.Seconds()
	}
	rep.LatencyMS = percentiles(all)
	rep.SlowTraces = slowTraces(samples, rep.LatencyMS.P99)
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	return rep, nil
}

// slowTraces selects the distinct traces measured at or above the p99
// latency, slowest first, capped at five so the summary stays readable.
// In stream mode one session trace can carry many slow rows; only its
// slowest measurement is reported.
func slowTraces(samples []SlowTrace, p99 float64) []SlowTrace {
	slices.SortFunc(samples, func(a, b SlowTrace) int {
		switch {
		case a.LatencyMS > b.LatencyMS:
			return -1
		case a.LatencyMS < b.LatencyMS:
			return 1
		}
		return strings.Compare(a.TraceID, b.TraceID)
	})
	seen := make(map[string]bool)
	var out []SlowTrace
	for _, s := range samples {
		if s.LatencyMS < p99 || seen[s.TraceID] {
			continue
		}
		seen[s.TraceID] = true
		out = append(out, s)
		if len(out) == 5 {
			break
		}
	}
	return out
}

// percentiles computes the latency quantiles of a sample set.
func percentiles(ms []float64) Percentiles {
	if len(ms) == 0 {
		return Percentiles{}
	}
	slices.Sort(ms)
	at := func(q float64) float64 {
		i := int(math.Ceil(q*float64(len(ms)))) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(ms) {
			i = len(ms) - 1
		}
		return ms[i]
	}
	return Percentiles{P50: at(0.50), P90: at(0.90), P99: at(0.99), Max: ms[len(ms)-1]}
}

// appendRowLine renders one random row as an NDJSON line into dst.
func appendRowLine(dst []byte, r *rng.RNG, dim int) []byte {
	dst = append(dst, '[')
	for d := 0; d < dim; d++ {
		if d > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendFloat(dst, r.Float64(), 'g', 6, 64)
	}
	return append(dst, ']', '\n')
}

// streamRecord is a scored-record or error line of a /stream response.
type streamRecord struct {
	Index *int    `json:"index"`
	Score float64 `json:"score"`
	Error string  `json:"error"`
}

// runStreamSession drives one /stream session to completion, retrying
// admission refusals under rotated keys.
func runStreamSession(ctx context.Context, cfg Config, worker int) sessionResult {
	var res sessionResult
	var traceRNG *rng.RNG
	if cfg.Trace {
		traceRNG = rng.New(cfg.Seed + uint64(worker)*1000003).Derive(traceRNGLabel)
	}
	for attempt := 0; ; attempt++ {
		key := fmt.Sprintf("%s-%d", cfg.KeyPrefix, worker)
		if attempt > 0 {
			key = fmt.Sprintf("%s-r%d", key, attempt)
		}
		var sc trace.SpanContext
		if cfg.Trace {
			// A fresh trace per attempt: a retried session must not
			// splice its spans into the refused attempt's trace.
			sc = mintSpanContext(traceRNG)
		}
		retryAfter, done := streamOnce(ctx, cfg, worker, key, sc, &res)
		if done {
			return res
		}
		// Admission refused (429): the server named its backoff.
		res.retries++
		mRetries.Inc()
		if attempt+1 >= cfg.MaxRetries {
			res.errors++
			mErrors.With("status").Inc()
			return res
		}
		select {
		case <-ctx.Done():
			return res
		case <-time.After(retryAfter):
		}
	}
}

// streamOnce runs a single session attempt. It returns done=false only
// for a retryable admission refusal, with the server-requested backoff.
func streamOnce(ctx context.Context, cfg Config, worker int, key string, sc trace.SpanContext, res *sessionResult) (retryAfter time.Duration, done bool) {
	q := url.Values{}
	q.Set(cfg.KeyParam, key)
	if cfg.Model != "" {
		q.Set("model", cfg.Model)
	}
	target := cfg.Target + "/stream?" + q.Encode()

	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, pr)
	if err != nil {
		res.errors++
		mErrors.With("connect").Inc()
		return 0, true
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	if sc.Valid() {
		req.Header.Set("Traceparent", sc.Traceparent())
	}

	sendTimes := make([]time.Time, cfg.Rows)
	var sent int64
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		defer pw.Close()
		r := rng.New(cfg.Seed + uint64(worker)*1000003)
		var interval time.Duration
		if cfg.Rate > 0 {
			interval = time.Duration(float64(time.Second) / cfg.Rate)
		}
		startedAt := time.Now()
		line := make([]byte, 0, 64)
		for i := 0; i < cfg.Rows; i++ {
			if interval > 0 {
				next := startedAt.Add(time.Duration(i) * interval)
				if d := time.Until(next); d > 0 {
					select {
					case <-ctx.Done():
						return
					case <-time.After(d):
					}
				}
			}
			line = appendRowLine(line[:0], r, cfg.Dim)
			sendTimes[i] = time.Now()
			if _, err := pw.Write(line); err != nil {
				return // server closed the session; the reader has the story
			}
			sent++
		}
	}()
	// The writer feeds the request while Do waits for response headers
	// (they arrive with the first scored record).
	resp, err := cfg.Client.Do(req)
	if err != nil {
		pr.CloseWithError(err)
		<-writerDone
		res.tally(sent, false)
		res.errors++
		mErrors.With("connect").Inc()
		return 0, true
	}
	defer func() {
		resp.Body.Close()
		<-writerDone
		res.tally(sent, resp.StatusCode == http.StatusOK)
	}()
	if resp.StatusCode == http.StatusTooManyRequests {
		pr.CloseWithError(fmt.Errorf("admission refused"))
		return parseRetryAfter(resp.Header.Get("Retry-After")), false
	}
	if resp.StatusCode != http.StatusOK {
		pr.CloseWithError(fmt.Errorf("status %d", resp.StatusCode))
		res.errors++
		mErrors.With("status").Inc()
		return 0, true
	}
	scan := bufio.NewScanner(resp.Body)
	scan.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for scan.Scan() {
		lineBytes := bytes.TrimSpace(scan.Bytes())
		if len(lineBytes) == 0 {
			continue
		}
		var rec streamRecord
		if err := json.Unmarshal(lineBytes, &rec); err != nil {
			res.errors++
			mErrors.With("record").Inc()
			continue
		}
		if rec.Error != "" {
			// A terminal error record (drain, byte cap, scoring failure)
			// ends the session server-side.
			res.errors++
			mErrors.With("record").Inc()
			return 0, true
		}
		if rec.Index == nil {
			continue
		}
		res.records++
		mRecords.Inc()
		if i := *rec.Index; i >= 0 && i < len(sendTimes) && !sendTimes[i].IsZero() {
			lat := time.Since(sendTimes[i])
			res.latencies = append(res.latencies, float64(lat)/float64(time.Millisecond))
			if sc.Valid() {
				res.traceIDs = append(res.traceIDs, sc.TraceID.String())
			}
			mLatency.Observe(lat.Seconds())
		}
	}
	if err := scan.Err(); err != nil && ctx.Err() == nil {
		res.errors++
		mErrors.With("read").Inc()
	}
	return 0, true
}

// tally books the rows one session attempt or request wrote: as sent
// when the server admitted it (200), else as bounced.
func (r *sessionResult) tally(rows int64, admitted bool) {
	if admitted {
		r.rowsSent += rows
		mRowsSent.Add(rows)
	} else {
		r.rowsBounced += rows
	}
}

// runScoreWorker issues sequential /score requests, retrying 429s in
// place.
func runScoreWorker(ctx context.Context, cfg Config, worker int) sessionResult {
	var res sessionResult
	target := cfg.Target + "/score"
	if cfg.Model != "" {
		target += "?model=" + url.QueryEscape(cfg.Model)
	}
	r := rng.New(cfg.Seed + uint64(worker)*1000003)
	var traceRNG *rng.RNG
	if cfg.Trace {
		traceRNG = rng.New(cfg.Seed + uint64(worker)*1000003).Derive(traceRNGLabel)
	}
	point := make([]float64, cfg.Dim)
	for i := 0; i < cfg.Rows; i++ {
		if ctx.Err() != nil {
			return res
		}
		for d := range point {
			point[d] = r.Float64()
		}
		body, _ := json.Marshal(map[string]any{"point": point})
		var sc trace.SpanContext
		if cfg.Trace {
			sc = mintSpanContext(traceRNG)
		}
		retries := 0
	attempt:
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, bytes.NewReader(body))
		if err != nil {
			res.errors++
			mErrors.With("connect").Inc()
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		if sc.Valid() {
			req.Header.Set("Traceparent", sc.Traceparent())
		}
		sentAt := time.Now()
		resp, err := cfg.Client.Do(req)
		if err != nil {
			res.tally(1, false)
			res.errors++
			mErrors.With("connect").Inc()
			continue
		}
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		res.tally(1, resp.StatusCode == http.StatusOK)
		switch {
		case resp.StatusCode == http.StatusOK:
			lat := time.Since(sentAt)
			res.records++
			mRecords.Inc()
			res.latencies = append(res.latencies, float64(lat)/float64(time.Millisecond))
			if sc.Valid() {
				res.traceIDs = append(res.traceIDs, sc.TraceID.String())
			}
			mLatency.Observe(lat.Seconds())
		case resp.StatusCode == http.StatusTooManyRequests && retries < cfg.MaxRetries:
			retries++
			res.retries++
			mRetries.Inc()
			select {
			case <-ctx.Done():
				return res
			case <-time.After(parseRetryAfter(resp.Header.Get("Retry-After"))):
			}
			goto attempt
		default:
			res.errors++
			mErrors.With("status").Inc()
		}
	}
	return res
}

// parseRetryAfter reads a Retry-After seconds value, defaulting to a
// short backoff when absent or malformed.
func parseRetryAfter(v string) time.Duration {
	if secs, err := strconv.Atoi(strings.TrimSpace(v)); err == nil && secs >= 0 {
		d := time.Duration(secs) * time.Second
		if d > 30*time.Second {
			d = 30 * time.Second
		}
		if d == 0 {
			d = 100 * time.Millisecond
		}
		return d
	}
	return 200 * time.Millisecond
}
