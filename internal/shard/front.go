package shard

import (
	"bytes"
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"strings"
	"time"

	"hics"
	"hics/internal/metrics"
	"hics/internal/trace"
)

// maxUnaryProxyBytes caps a buffered /score, /rank or /info proxy body;
// it mirrors the backend's own request cap, so the front never buffers
// more than a shard would accept.
const maxUnaryProxyBytes = 64 << 20

// FrontConfig wires a Front.
type FrontConfig struct {
	// Router owns the shard map and health state. Required.
	Router *Router
	// SessionKeyParam names the query parameter carrying the routing
	// key of a request (default "session"). Requests without it fall
	// back to the ?model parameter, then to the client IP — so a bare
	// v1.7.0 client still routes deterministically per source host.
	SessionKeyParam string
	// Logger receives proxy events. Nil discards them.
	Logger *slog.Logger
	// Tracer records a span per proxied request and injects traceparent
	// toward the shards, so one trace covers front and shard. Nil uses
	// the process-global trace.Default.
	Tracer *trace.Tracer
}

// Front is the stateless routing tier: an http.Handler that proxies
// /stream (full-duplex NDJSON pass-through), /score, /rank and /info to
// the shard owning the request's session key, and serves its own
// /healthz (aggregated shard states) and /metrics. Any number of fronts
// can run side by side — placement is pure rendezvous hashing, so they
// agree without coordination.
type Front struct {
	router   *Router
	keyParam string
	log      *slog.Logger
	tracer   *trace.Tracer
	mux      *http.ServeMux
}

// NewFront builds the front handler over the given router.
func NewFront(cfg FrontConfig) *Front {
	if cfg.Router == nil {
		panic("shard: FrontConfig.Router is required")
	}
	keyParam := cfg.SessionKeyParam
	if keyParam == "" {
		keyParam = "session"
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = trace.Default
	}
	f := &Front{router: cfg.Router, keyParam: keyParam, log: log, tracer: tracer}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", f.handleHealthz)
	mux.Handle("/metrics", metrics.Default.Handler())
	mux.Handle("GET /debug/traces", tracer.Handler())
	mux.HandleFunc("/stream", f.handleStream)
	mux.HandleFunc("/score", f.handleUnary)
	mux.HandleFunc("/rank", f.handleUnary)
	mux.HandleFunc("/info", f.handleUnary)
	f.mux = mux
	return f
}

// frontCtxKey keys the request-scoped values the front middleware
// injects: the request ID and the annotated logger.
type frontCtxKey int

const (
	frontRequestIDKey frontCtxKey = iota
	frontLoggerKey
)

// reqID returns the request's ID, or "" outside the middleware.
func reqID(ctx context.Context) string {
	id, _ := ctx.Value(frontRequestIDKey).(string)
	return id
}

// reqLog returns the request-scoped logger (annotated with request,
// trace and span IDs), falling back to the front's base logger.
func (f *Front) reqLog(ctx context.Context) *slog.Logger {
	if l, ok := ctx.Value(frontLoggerKey).(*slog.Logger); ok {
		return l
	}
	return f.log
}

// frontStatusWriter records the response status for the completion log.
// Unwrap keeps http.ResponseController (EnableFullDuplex, flushing)
// working through the wrapper; the explicit Flush preserves the
// http.Flusher fast path the stream relay uses.
type frontStatusWriter struct {
	http.ResponseWriter
	status int
}

func (w *frontStatusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *frontStatusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *frontStatusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *frontStatusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// ServeHTTP is the front's observability middleware: every request gets
// an ID (an inbound X-Request-Id is honored, otherwise minted), a root
// span named "front.<endpoint>" over the bounded trace.Endpoint set
// (continuing an inbound traceparent when a caller sent one, else
// reusing the request ID as trace ID) and a request-scoped logger
// carrying all three IDs — so a front log line and the owning shard's
// log line for the same request share one trace_id.
func (f *Front) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id := frontRequestID(r)
	remote, _ := trace.Extract(r.Header)
	ctx, span := f.tracer.StartRoot(r.Context(), "front."+trace.Endpoint(r.URL.Path), remote, trace.TraceIDFromString(id))
	log := f.log.With("request_id", id,
		"trace_id", span.TraceIDString(), "span_id", span.SpanIDString())
	ctx = context.WithValue(ctx, frontRequestIDKey, id)
	ctx = context.WithValue(ctx, frontLoggerKey, log)
	sw := &frontStatusWriter{ResponseWriter: w}
	w.Header().Set("X-Request-Id", id)
	f.mux.ServeHTTP(sw, r.WithContext(ctx))
	status := sw.status
	if status == 0 {
		status = http.StatusOK
	}
	elapsed := time.Since(start)
	span.SetAttr("method", r.Method)
	span.SetAttr("path", r.URL.Path)
	span.SetAttr("status", status)
	if status >= 500 {
		span.SetError(fmt.Errorf("status %d", status))
	}
	span.End()
	log.Info("request", "method", r.Method, "path", r.URL.Path,
		"status", status, "duration", elapsed)
}

// frontRequestID honors a token-shaped inbound X-Request-Id and mints a
// 16-hex-digit ID otherwise, mirroring the serve middleware's rule.
func frontRequestID(r *http.Request) string {
	id := r.Header.Get("X-Request-Id")
	if n := len(id); n >= 1 && n <= 64 {
		ok := true
		for i := 0; i < n; i++ {
			c := id[i]
			if (c < '0' || c > '9') && (c < 'a' || c > 'z') && (c < 'A' || c > 'Z') &&
				c != '.' && c != '_' && c != '-' {
				ok = false
				break
			}
		}
		if ok {
			return id
		}
	}
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(b[:])
}

// Key returns the routing key of a request: the session-key query
// parameter, else the model name, else the client host.
func (f *Front) Key(r *http.Request) string {
	q := r.URL.Query()
	if k := q.Get(f.keyParam); k != "" {
		return k
	}
	if k := q.Get("model"); k != "" {
		return k
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// frontHealth is the front /healthz body.
type frontHealth struct {
	Status  string        `json:"status"`
	Role    string        `json:"role"`
	Version string        `json:"version"`
	Shards  []ShardStatus `json:"shards"`
}

// handleHealthz aggregates shard health: "ok" while at least one shard
// accepts sessions, "degraded" when some are out, 503 "unavailable"
// when none can take traffic.
func (f *Front) handleHealthz(w http.ResponseWriter, r *http.Request) {
	sts := f.router.Status()
	avail := 0
	for _, st := range sts {
		if st.Healthy && !st.Draining {
			avail++
		}
	}
	h := frontHealth{Status: "ok", Role: "front", Version: hics.Version, Shards: sts}
	code := http.StatusOK
	switch {
	case avail == 0:
		h.Status = "unavailable"
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "5")
	case avail < len(sts):
		h.Status = "degraded"
	}
	writeJSON(w, code, h)
}

// handleUnary proxies a buffered request to the owning shard, walking
// the rendezvous rank order past unhealthy shards and retrying the next
// candidate on transport errors (safe: the body is buffered, and
// scoring is read-only compute).
func (f *Front) handleUnary(w http.ResponseWriter, r *http.Request) {
	endpoint := strings.TrimPrefix(r.URL.Path, "/")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxUnaryProxyBytes))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("reading request: %v", err)})
		return
	}
	key := f.Key(r)
	rank := f.router.m.Rank(key)
	tried := 0
	for i, shard := range rank {
		st := f.router.states[shard]
		if !st.healthy.Load() || st.draining.Load() {
			continue
		}
		if i > 0 {
			mShardReroutes.Inc()
		}
		tried++
		// One span per proxy attempt: a failover request shows each
		// candidate shard tried, and the shard's own root span parents
		// under the attempt that reached it.
		pctx, psp := trace.StartSpan(r.Context(), "front.proxy")
		psp.SetAttr("shard", shard)
		psp.SetAttr("endpoint", endpoint)
		psp.SetAttr("attempt", tried)
		resp, err := f.proxyOnce(pctx, r, shard, bytes.NewReader(body))
		if err != nil {
			psp.SetError(err)
			psp.End()
			f.router.ReportFailure(shard)
			f.reqLog(r.Context()).Warn("unary proxy failed", "shard", shard, "endpoint", endpoint, "error", err)
			continue
		}
		f.router.ReportSuccess(shard)
		mShardProxied.With(shard, endpoint).Inc()
		relayResponse(w, resp)
		psp.End()
		return
	}
	w.Header().Set("Retry-After", "5")
	if tried == 0 {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "no shard available for this key; retry shortly"})
		return
	}
	writeJSON(w, http.StatusBadGateway, errorBody{Error: "every candidate shard failed; retry shortly"})
}

// proxyOnce forwards one buffered request to shard and returns its
// response. ctx carries the attempt's span, which becomes the shard's
// parent via the injected traceparent.
func (f *Front) proxyOnce(ctx context.Context, r *http.Request, shard string, body io.Reader) (*http.Response, error) {
	out, err := http.NewRequestWithContext(ctx, r.Method, shardURL(shard, r.URL), body)
	if err != nil {
		return nil, err
	}
	copyProxyHeaders(out.Header, r.Header)
	f.decorate(ctx, out.Header)
	return f.router.client.Do(out)
}

// decorate stamps the outgoing hop with this request's identity: the
// front's request ID (covering requests that arrived without one) and
// the current span's traceparent, overriding whatever copyProxyHeaders
// carried over so the shard parents under the front's span rather than
// the client's.
func (f *Front) decorate(ctx context.Context, h http.Header) {
	if id := reqID(ctx); id != "" {
		h.Set("X-Request-Id", id)
	}
	trace.Inject(ctx, h)
}

// handleStream proxies one NDJSON session to the owning shard with
// full-duplex pass-through: client rows flow up unbuffered while scored
// records flow back, flushed as they arrive. A stream is never retried
// against a second shard — its body is not replayable — so routing
// failures before the session opens are reported as JSON errors with
// Retry-After, and the prober plus circuit breaker steer the client's
// reconnect to a live shard.
func (f *Front) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST required"})
		return
	}
	// Full duplex: without this the HTTP/1.1 server drains the (unbounded,
	// chunked) request body before the first response write, which deadlocks
	// a pass-through proxy that must relay scored records while the client
	// is still sending rows.
	rc := http.NewResponseController(w)
	if err := rc.EnableFullDuplex(); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: fmt.Sprintf("streaming unsupported: %v", err)})
		return
	}
	key := f.Key(r)
	shard, rerouted := f.router.Pick(key)
	if shard == "" {
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "no shard available for this session; retry shortly"})
		return
	}
	if rerouted {
		f.reqLog(r.Context()).Info("stream rerouted past owner", "key", key, "shard", shard)
	}
	pctx, psp := trace.StartSpan(r.Context(), "front.proxy")
	psp.SetAttr("shard", shard)
	psp.SetAttr("endpoint", "stream")
	psp.SetAttr("rerouted", rerouted)
	defer psp.End()
	out, err := http.NewRequestWithContext(pctx, http.MethodPost, shardURL(shard, r.URL), r.Body)
	if err != nil {
		psp.SetError(err)
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	// Chunked upload: the session length is unknown and rows must flow
	// as they arrive.
	out.ContentLength = -1
	copyProxyHeaders(out.Header, r.Header)
	f.decorate(pctx, out.Header)
	resp, err := f.router.client.Do(out)
	if err != nil {
		psp.SetError(err)
		f.router.ReportFailure(shard)
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusBadGateway, errorBody{Error: fmt.Sprintf("shard %s unreachable: %v; reconnect to be rerouted", shard, err)})
		return
	}
	defer resp.Body.Close()
	f.router.ReportSuccess(shard)
	mShardProxied.With(shard, "stream").Inc()
	if resp.StatusCode != http.StatusOK {
		// The shard refused the session — most likely it started draining
		// between our last probe and now. Converge routing immediately,
		// then relay its answer (a 503 carries the shard's Retry-After).
		if resp.StatusCode == http.StatusServiceUnavailable {
			f.router.MarkDraining(shard)
			go f.router.ProbeNow(context.Background())
		}
		relayResponse(w, resp)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if rerr != nil {
			if rerr != io.EOF {
				// The shard died mid-session. Already-delivered records
				// stand; the terminal record tells the client to reconnect
				// (rendezvous will route it to the next live shard).
				f.router.ReportFailure(shard)
				f.writeStreamError(w, flusher, fmt.Sprintf("shard connection lost mid-stream: %v; reconnect to continue on another shard", rerr))
			}
			return
		}
	}
}

// writeStreamError emits a terminal NDJSON error record on an
// already-open stream response.
func (f *Front) writeStreamError(w io.Writer, flusher http.Flusher, msg string) {
	data, _ := json.Marshal(errorBody{Error: msg})
	_, _ = w.Write(append(data, '\n'))
	if flusher != nil {
		flusher.Flush()
	}
}

// shardURL rebuilds the request URL against a backend shard, keeping
// path and query intact.
func shardURL(shard string, u *url.URL) string {
	target := url.URL{Scheme: "http", Host: shard, Path: u.Path, RawQuery: u.RawQuery}
	return target.String()
}

// copyProxyHeaders forwards the headers that matter across the hop;
// hop-by-hop headers stay behind. Traceparent rides along so a client's
// own trace context survives even when the front's tracer overrides it
// with a more specific span via decorate.
func copyProxyHeaders(dst, src http.Header) {
	for _, k := range []string{"Content-Type", "Accept", "Authorization", "X-Request-Id", "Traceparent"} {
		if v := src.Get(k); v != "" {
			dst.Set(k, v)
		}
	}
}

// relayResponse copies a buffered backend response to the client:
// status, safe headers, body.
func relayResponse(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for _, k := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	data, _ := json.Marshal(body)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(data, '\n'))
}

// DrainAnnounceWindow is the default pause a draining shard holds
// between flipping /healthz to "draining" (kicking its sessions) and
// actually shutting its listener down — long enough for every front's
// next probe tick to observe the drain and stop routing here.
const DrainAnnounceWindow = 3 * time.Second
