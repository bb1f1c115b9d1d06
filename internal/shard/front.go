package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
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
// the first live shard in the key's rendezvous order, and serves its own
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
	for _, path := range []string{"/stream", "/score", "/rank", "/info"} {
		mux.HandleFunc(path, f.handleProxy)
	}
	f.mux = mux
	return f
}

// frontLoggerKey keys the request-scoped logger the front middleware
// injects.
type frontLoggerKey struct{}

// reqLog returns the request-scoped logger (annotated with request,
// trace and span IDs), falling back to the front's base logger.
func (f *Front) reqLog(ctx context.Context) *slog.Logger {
	if l, ok := ctx.Value(frontLoggerKey{}).(*slog.Logger); ok {
		return l
	}
	return f.log
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
	id := trace.RequestID(r.Header)
	remote, _ := trace.Extract(r.Header)
	ctx, span := f.tracer.StartRoot(r.Context(), "front."+trace.Endpoint(r.URL.Path), remote, trace.TraceIDFromString(id))
	log := f.log.With("request_id", id,
		"trace_id", span.TraceIDString(), "span_id", span.SpanIDString())
	ctx = context.WithValue(ctx, frontLoggerKey{}, log)
	sw := &trace.StatusWriter{ResponseWriter: w}
	w.Header().Set("X-Request-Id", id)
	f.mux.ServeHTTP(sw, r.WithContext(ctx))
	status := sw.Status
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

// handleProxy forwards /score, /rank, /info and /stream along the key's
// rendezvous order, past shards that are down or draining. One rule
// covers every endpoint: a transport error, or a 503, that arrives before
// any byte of the client's body reached the shard moves on to the next
// shard; every other answer is relayed. A unary body is buffered, so each
// attempt sends it whole. A /stream body is held back until the shard has
// answered (the shard flushes its status before it reads), so a shard
// that refused or failed was sent nothing and the next one gets the whole
// session. Once relayed, a session is never moved: its records flow back,
// flushed as they arrive, while the client's rows flow up.
func (f *Front) handleProxy(w http.ResponseWriter, r *http.Request) {
	endpoint := trace.Endpoint(r.URL.Path)
	var (
		buffered []byte
		held     *heldBody
	)
	if endpoint == "stream" {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST required"})
			return
		}
		// Full duplex before any write: without it net/http reads the
		// body before it sends the status, and a held body never comes.
		rc := http.NewResponseController(w)
		if err := rc.EnableFullDuplex(); err != nil {
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: fmt.Sprintf("streaming unsupported: %v", err)})
			return
		}
		// A session can end before its body does; a connection left with
		// unread body bytes must not carry another request.
		w.Header().Set("Connection", "close")
		held = &heldBody{src: r.Body, rc: rc}
		defer held.stop()
	} else {
		var err error
		if buffered, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxUnaryProxyBytes)); err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("reading request: %v", err)})
			return
		}
	}
	attempts, failed := 0, 0
	for i, shard := range f.router.m.Rank(f.Key(r)) {
		if !f.router.available(shard) {
			continue
		}
		if i > 0 {
			mShardReroutes.Inc()
		}
		attempts++
		// One span per attempt: a failover shows each shard tried, and
		// the shard's own root span parents under the attempt that
		// reached it.
		pctx, psp := trace.StartSpan(r.Context(), "front.proxy")
		psp.SetAttr("shard", shard)
		psp.SetAttr("endpoint", endpoint)
		psp.SetAttr("attempt", attempts)
		var (
			body io.Reader = bytes.NewReader(buffered)
			g    *gate
		)
		if held != nil {
			g = &gate{held: held, answered: make(chan struct{})}
			body = g
		}
		resp, err := f.proxyOnce(pctx, r, shard, body, w.Header().Get("X-Request-Id"))
		if err != nil {
			g.open(false)
			psp.SetError(err)
			psp.End()
			if r.Context().Err() != nil {
				return // the client left
			}
			failed++
			f.router.ReportFailure(shard)
			f.reqLog(r.Context()).Warn("proxy failed", "shard", shard, "endpoint", endpoint, "error", err)
			continue
		}
		f.router.ReportSuccess(shard)
		if resp.StatusCode == http.StatusServiceUnavailable {
			g.open(false)
			resp.Body.Close()
			psp.SetAttr("status", resp.StatusCode)
			psp.End()
			continue
		}
		mShardProxied.With(shard, endpoint).Inc()
		f.relay(w, r, resp, shard, g)
		psp.End()
		return
	}
	w.Header().Set("Retry-After", "5")
	if failed == 0 {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "no shard available for this key; retry shortly"})
		return
	}
	writeJSON(w, http.StatusBadGateway, errorBody{Error: "every candidate shard failed; retry shortly"})
}

// proxyOnce sends one attempt to shard, carrying the front's request ID
// and, as traceparent, the attempt's span from ctx, so the shard's logs
// and spans join the front's. A /stream body goes chunked: its length is
// unknown and rows must flow as they arrive.
func (f *Front) proxyOnce(ctx context.Context, r *http.Request, shard string, body io.Reader, id string) (*http.Response, error) {
	out, err := http.NewRequestWithContext(ctx, r.Method, shardURL(shard, r.URL), body)
	if err != nil {
		return nil, err
	}
	if _, ok := body.(*gate); ok {
		out.ContentLength = -1
	}
	copyProxyHeaders(out.Header, r.Header)
	out.Header.Set("X-Request-Id", id)
	trace.Inject(ctx, out.Header)
	return f.router.client.Do(out)
}

// relay copies the shard's answer to the client, flushing as bytes
// arrive so a stream's records pass through one by one. g, for a
// /stream attempt, is opened once the status is out: only an accepted
// session is sent the client's body. A session whose shard connection
// breaks ends with a terminal error record.
func (f *Front) relay(w http.ResponseWriter, r *http.Request, resp *http.Response, shard string, g *gate) {
	defer resp.Body.Close()
	for _, k := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	accepted := g != nil && resp.StatusCode == http.StatusOK
	if accepted && strings.EqualFold(r.Header.Get("Expect"), "100-continue") {
		// On a final status with Connection: close, Go's client would
		// never send the body it held back for 100-continue.
		w.WriteHeader(http.StatusContinue)
	}
	w.WriteHeader(resp.StatusCode)
	rc := http.NewResponseController(w)
	_ = rc.Flush()
	g.open(accepted)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			_ = rc.Flush()
		}
		if err == nil {
			continue
		}
		if err != io.EOF && accepted {
			// Records already relayed stand; the terminal record tells
			// the client to reconnect, and rendezvous routes it on.
			f.router.ReportFailure(shard)
			data, _ := json.Marshal(errorBody{Error: fmt.Sprintf("shard connection lost mid-stream: %v; reconnect to continue on another shard", err)})
			_, _ = w.Write(append(data, '\n'))
			_ = rc.Flush()
		}
		return
	}
}

// heldBody is the client's body of a proxied /stream session. Each
// attempt reads it through a gate, and at most one gate, the accepted
// one, ever reads it. stop must run before the handler returns: net/http
// reads the rest of the body itself then, and a second concurrent read
// panics.
type heldBody struct {
	src   io.Reader
	rc    *http.ResponseController
	reads sync.WaitGroup
	mu    sync.Mutex
	// stopped: no read starts any more; ended: src returned an error,
	// io.EOF included.
	stopped, ended bool
}

func (b *heldBody) read(p []byte) (int, error) {
	b.mu.Lock()
	if b.stopped || b.ended {
		b.mu.Unlock()
		return 0, io.EOF
	}
	b.reads.Add(1)
	b.mu.Unlock()
	defer b.reads.Done()
	n, err := b.src.Read(p)
	if err != nil {
		b.mu.Lock()
		b.ended = true
		b.mu.Unlock()
	}
	return n, err
}

// stop returns once no read of the body runs or can start. A body the
// session left unread gets the shard's linger: a read deadline a second
// out ends a read blocked on the client, and up to 256 KiB more is
// dropped, so the client's last rows are not answered with a reset.
// A body already ended sets no deadline: net/http has a read of its own
// pending on the connection then, and a deadline would cancel it.
func (b *heldBody) stop() {
	b.mu.Lock()
	b.stopped = true
	ended := b.ended
	b.mu.Unlock()
	if ended {
		return
	}
	_ = b.rc.SetReadDeadline(time.Now().Add(time.Second))
	b.reads.Wait()
	_, _ = io.CopyN(io.Discard, b.src, 256<<10)
}

// gate is the body of one /stream attempt. Its first read waits until
// the shard has answered: a shard that refused or failed sees an empty
// body, and the accepted shard reads the client's.
type gate struct {
	held     *heldBody
	answered chan struct{}
	accept   bool // written before answered closes
}

// open answers the attempt. It is a no-op on a nil gate (a unary
// attempt).
func (g *gate) open(accept bool) {
	if g == nil {
		return
	}
	g.accept = accept
	close(g.answered)
}

func (g *gate) Read(p []byte) (int, error) {
	<-g.answered
	if !g.accept {
		return 0, io.EOF
	}
	return g.held.read(p)
}

// shardURL rebuilds the request URL against a backend shard, keeping
// path and query intact.
func shardURL(shard string, u *url.URL) string {
	target := url.URL{Scheme: "http", Host: shard, Path: u.Path, RawQuery: u.RawQuery}
	return target.String()
}

// copyProxyHeaders forwards the client headers that matter across the
// hop; hop-by-hop headers stay behind, and proxyOnce sets the request ID
// and traceparent itself.
func copyProxyHeaders(dst, src http.Header) {
	for _, k := range []string{"Content-Type", "Accept", "Authorization"} {
		if v := src.Get(k); v != "" {
			dst.Set(k, v)
		}
	}
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
