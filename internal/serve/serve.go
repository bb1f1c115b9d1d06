package serve

import (
	"context"
	"crypto/rand"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hics"
	"hics/internal/fleet"
	"hics/internal/metrics"
	"hics/internal/trace"
)

// Instrumentation, registered once into the process-wide metrics
// registry and served by GET /metrics in Prometheus text format. The
// series are process-global, so multiple handlers share them; tests
// assert on deltas. Families touching a model carry its fleet name in
// the "model" label (empty for traffic that never resolved one — 404s,
// /metrics itself).
var (
	mRequests = metrics.Default.NewCounterVec("hicsd_http_requests_total",
		"Completed HTTP requests by endpoint, status code and resolved model (empty when the request did not resolve one).",
		"endpoint", "code", "model")
	mErrors = metrics.Default.NewCounter("hicsd_http_errors_total",
		"Error responses (status >= 400) plus terminal NDJSON stream error records.")
	mActiveStreams = metrics.Default.NewGaugeVec("hicsd_streams_active",
		"Currently open /stream sessions per model.", "model")
	mRefits = metrics.Default.NewCounterVec("hicsd_stream_refits_total",
		"Model refits observed by /stream sessions per model (CLI and library streams count in hics_stream_refits_total instead).",
		"model")
	mRejected = metrics.Default.NewCounterVec("hicsd_admission_rejected_total",
		"Requests rejected with 429 by a model's admission quota, by model and quota dimension (request or stream).",
		"model", "kind")
)

// Config wires the handler: the model fleet behind it plus the
// per-request execution policy.
type Config struct {
	// Fleet is the named-model store behind every endpoint. When nil, an
	// in-memory single-model fleet is built around Model.
	Fleet *fleet.Fleet
	// Model seeds the fleet under the default name when Fleet is nil.
	Model *hics.Model
	// AdminToken, when set, locks the mutating model-management endpoints
	// (PUT/DELETE /models/{name}) behind "Authorization: Bearer <token>".
	// Empty leaves them open (suitable behind a trusted control plane).
	AdminToken string
	// RequestTimeout bounds the server-side compute of each /score and
	// /rank request; 0 imposes no deadline beyond the client's own
	// patience (a disconnect still cancels the work).
	RequestTimeout time.Duration
	// RankWorkers caps the parallelism of /rank rankings and /stream
	// refits (0 = one worker per CPU); a model quota's Workers bound
	// overrides it per model. Batch /score parallelism is bounded on the
	// model itself via Model.SetWorkers.
	RankWorkers int
	// StreamWindow is the default sliding-window size of /stream sessions
	// (0 = the routed model's training-set size — resolved per model, not
	// per server). Clients may override per request with ?window=N.
	StreamWindow int
	// StreamRefitEvery is the default refit cadence of /stream sessions
	// in arrivals (0 = never refit). Clients may override with
	// ?refit_every=N.
	StreamRefitEvery int
	// StreamAsync makes /stream refits run in the background by default,
	// so scoring keeps flowing during a refit. Clients may override with
	// ?async=true|false.
	StreamAsync bool
	// StreamMaxBytes caps the cumulative input bytes of one /stream
	// session (0 = 64 MiB, the historical limit). Clients may lower —
	// never raise — their own session's cap with ?max_bytes=N. An
	// exhausted session ends with an explicit error record naming the
	// limit.
	StreamMaxBytes int64
	// Logger receives one structured record per completed request
	// (method, path, endpoint, status, duration, request ID) plus
	// endpoint-specific events, all carrying the per-request ID the
	// middleware generates. Nil discards all logging.
	Logger *slog.Logger
	// Tracer records a distributed trace per request: the middleware
	// opens a root span (continuing an inbound traceparent when
	// present), handlers and the compute layers hang phase spans off
	// it, and completed traces are served at GET /debug/traces. Nil
	// uses the process-global trace.Default.
	Tracer *trace.Tracer
}

// logger resolves the configured logger, discarding when unset.
func (cfg Config) logger() *slog.Logger {
	if cfg.Logger != nil {
		return cfg.Logger
	}
	return slog.New(slog.DiscardHandler)
}

// tracer resolves the configured tracer, defaulting to trace.Default.
func (cfg Config) tracer() *trace.Tracer {
	if cfg.Tracer != nil {
		return cfg.Tracer
	}
	return trace.Default
}

// ctxKey keys the request-scoped values the middleware injects.
type ctxKey int

const (
	requestIDKey ctxKey = iota
	loggerKey
	requestInfoKey
)

// requestInfo is the middleware's per-request scratch record: handlers
// fill in the resolved model name so the middleware can label the
// request counter after ServeHTTP returns (same goroutine, no race).
type requestInfo struct {
	model string
}

// setRequestModel records the model a handler resolved, for metric
// labelling. No-op outside the middleware.
func setRequestModel(ctx context.Context, name string) {
	if ri, ok := ctx.Value(requestInfoKey).(*requestInfo); ok {
		ri.model = name
	}
}

// RequestID returns the request's generated ID, or "" outside a request
// context.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// ctxLogger returns the request-scoped logger (already annotated with
// the request ID), or a discarding logger outside a request context.
func ctxLogger(ctx context.Context) *slog.Logger {
	if l, ok := ctx.Value(loggerKey).(*slog.Logger); ok {
		return l
	}
	return slog.New(slog.DiscardHandler)
}

// newRequestID generates a 16-hex-digit random request ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(b[:])
}

// requestID honors an inbound X-Request-Id (so the front's ID — or a
// client's own — survives the hop and both processes' logs join on one
// value) and mints a fresh ID otherwise. Inbound values are accepted
// only when short and token-shaped: IDs land verbatim in logs and
// response headers, so arbitrary client bytes must not pass through.
func requestID(r *http.Request) string {
	id := r.Header.Get("X-Request-Id")
	if validRequestID(id) {
		return id
	}
	return newRequestID()
}

// validRequestID bounds inbound request IDs to 1..64 characters of
// [0-9A-Za-z._-].
func validRequestID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// statusWriter records the response status for the request log and the
// per-endpoint counters. Unwrap keeps http.ResponseController (and so
// the /stream full-duplex and flush machinery) working through the
// wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// ScoreRequest is the /score request body. Exactly one of Point and
// Points must be set.
type ScoreRequest struct {
	// Point is a single observation, one value per model attribute.
	Point []float64 `json:"point,omitempty"`
	// Points is a batch of observations.
	Points [][]float64 `json:"points,omitempty"`
}

// ScoreResponse is the /score response body; the populated field mirrors
// the request shape ("score" for a point request, "scores" for a batch —
// present even when the batch is empty).
type ScoreResponse struct {
	Score  *float64  `json:"score,omitempty"`
	Scores []float64 `json:"scores,omitempty"`
}

// Single-shape encode types: a batch response must carry "scores" even
// for an empty batch (omitempty would drop it, leaving a bare {} that is
// indistinguishable from a malformed response).
type pointResponse struct {
	Score float64 `json:"score"`
}

type batchResponse struct {
	Scores []float64 `json:"scores"`
}

// RankOptions is the JSON mirror of the hics.Options fields a /rank
// request may set; zero values select the library defaults. The worker
// bound is deliberately absent — parallelism is the server's admission
// decision (Config.RankWorkers, or the routed model's quota), not the
// client's.
type RankOptions struct {
	M               int     `json:"m,omitempty"`
	Alpha           float64 `json:"alpha,omitempty"`
	CandidateCutoff int     `json:"candidate_cutoff,omitempty"`
	TopK            int     `json:"topk,omitempty"`
	Test            string  `json:"test,omitempty"`
	Seed            uint64  `json:"seed,omitempty"`
	MinPts          int     `json:"minpts,omitempty"`
	Aggregation     string  `json:"aggregation,omitempty"`
	Search          string  `json:"search,omitempty"`
	Scorer          string  `json:"scorer,omitempty"`
	MaxDim          int     `json:"max_dim,omitempty"`
	MaxSampleRows   int     `json:"max_sample_rows,omitempty"`
	NeighborIndex   string  `json:"neighbor_index,omitempty"`
}

// options maps the request onto hics.Options, applying the server's
// worker bound.
func (o RankOptions) options(workers int) hics.Options {
	return hics.Options{
		M:               o.M,
		Alpha:           o.Alpha,
		CandidateCutoff: o.CandidateCutoff,
		TopK:            o.TopK,
		Test:            o.Test,
		Seed:            o.Seed,
		MinPts:          o.MinPts,
		Aggregation:     o.Aggregation,
		Search:          o.Search,
		Scorer:          o.Scorer,
		MaxDim:          o.MaxDim,
		MaxSampleRows:   o.MaxSampleRows,
		NeighborIndex:   o.NeighborIndex,
		Workers:         workers,
	}
}

// RankRequest is the /rank request body: the rows to rank (row-major, one
// object per row) and the ranking options.
type RankRequest struct {
	Rows    [][]float64 `json:"rows"`
	Options RankOptions `json:"options"`
}

// RankSubspace is one high-contrast projection of a /rank response.
type RankSubspace struct {
	Dims     []int   `json:"dims"`
	Contrast float64 `json:"contrast"`
}

// RankResponse is the /rank response body: one aggregated outlier score
// per posted row, plus the projections the scores were computed in.
type RankResponse struct {
	Scores    []float64      `json:"scores"`
	Subspaces []RankSubspace `json:"subspaces"`
}

// ModelHealth is one model's load state in the /healthz response.
type ModelHealth struct {
	Name    string `json:"name"`
	State   string `json:"state"`
	Error   string `json:"error,omitempty"`
	Default bool   `json:"default"`
}

// Health is the /healthz response body. The flat Objects / Attributes /
// Subspaces fields describe the default model (zero when none is
// configured); Models lists the load state of every model in the fleet.
// While the manifest restore is in flight the status is "starting" and
// the response code 503, so orchestrators do not route to a cold fleet.
type Health struct {
	Status     string        `json:"status"`
	Objects    int           `json:"objects"`
	Attributes int           `json:"attributes"`
	Subspaces  int           `json:"subspaces"`
	Version    string        `json:"version"`
	Models     []ModelHealth `json:"models,omitempty"`
}

// Info is the /info response body: the method pair the served model was
// fitted with and the shape of its frozen state.
type Info struct {
	// Model is the fleet name the request resolved to.
	Model string `json:"model"`
	// Search and Scorer are the registry names of the model's method pair.
	Search string `json:"search"`
	Scorer string `json:"scorer"`
	// Subspaces is the number of frozen projections the model scores in.
	Subspaces int `json:"subspaces"`
	// FormatVersion is the persistence format the model was loaded from.
	FormatVersion int    `json:"format_version"`
	Objects       int    `json:"objects"`
	Attributes    int    `json:"attributes"`
	Version       string `json:"version"`
	// Server is the full server version string ("hicsd/<version>").
	Server string `json:"server"`
}

// ModelsResponse is the GET /models response body.
type ModelsResponse struct {
	// Ready reports whether the startup manifest restore has completed.
	Ready bool `json:"ready"`
	// Default is the model unnamed requests route to ("" when unset).
	Default string              `json:"default"`
	Models  []fleet.ModelStatus `json:"models"`
}

// ServerVersion is the /info server identification string.
const ServerVersion = "hicsd/" + hics.Version

type errorResponse struct {
	Error string `json:"error"`
}

// maxRequestBytes bounds a /score, /rank or model-upload body; a
// million-point batch is a mistake, not a query. It is also the default
// cumulative session cap of /stream (Config.StreamMaxBytes overrides) —
// an exhausted stream ends with an explicit error record naming the
// limit.
const maxRequestBytes = 64 << 20

// server binds the configuration to its resolved fleet, plus the drain
// state shared by every open stream session.
type server struct {
	cfg Config
	fl  *fleet.Fleet

	draining atomic.Bool
	sessMu   sync.Mutex
	sessions map[*http.ResponseController]struct{}
}

// Server is the hicsd handler with its lifecycle control surface: Drain
// moves it into draining mode ahead of shutdown.
type Server struct {
	http.Handler
	s *server
}

// Drain moves the server into draining mode: /healthz turns 503 with
// status "draining" (so load balancers stop routing here), new /stream
// sessions are refused with 503 + Retry-After, and every open stream
// session is kicked — it stops reading input, emits a terminal
// {"error": ...} record after the rows already scored, and closes.
// Unary endpoints keep serving so in-flight work completes; call
// http.Server.Shutdown afterwards to finish. Idempotent.
func (srv *Server) Drain() {
	if srv.s.draining.Swap(true) {
		return
	}
	srv.s.sessMu.Lock()
	defer srv.s.sessMu.Unlock()
	for rc := range srv.s.sessions {
		// Unblocks the session goroutine waiting in a body read; the net.Conn
		// deadline is safe to set from here.
		_ = rc.SetReadDeadline(time.Now())
	}
}

// Draining reports whether Drain has been called.
func (srv *Server) Draining() bool { return srv.s.draining.Load() }

// addSession registers an open stream session for drain kicks. When the
// server is already draining the session is kicked immediately, closing
// the register/drain race: either path guarantees the read deadline
// fires.
func (s *server) addSession(rc *http.ResponseController) {
	s.sessMu.Lock()
	s.sessions[rc] = struct{}{}
	s.sessMu.Unlock()
	if s.draining.Load() {
		_ = rc.SetReadDeadline(time.Now())
	}
}

func (s *server) removeSession(rc *http.ResponseController) {
	s.sessMu.Lock()
	delete(s.sessions, rc)
	s.sessMu.Unlock()
}

// New returns the hicsd HTTP handler for the given configuration,
// together with its drain control.
func New(cfg Config) *Server {
	fl := cfg.Fleet
	if fl == nil {
		// A single in-memory model under the default name. Restore of an
		// in-memory fleet is instant and marks it ready.
		fl = fleet.New(fleet.Config{Logger: cfg.Logger})
		_ = fl.Restore(context.Background())
		if cfg.Model != nil {
			if err := fl.Put(fleet.DefaultName, cfg.Model, fleet.Quota{}, true); err != nil {
				panic("serve: seeding single-model fleet: " + err.Error())
			}
		}
	}
	s := &server{cfg: cfg, fl: fl, sessions: map[*http.ResponseController]struct{}{}}

	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/info", s.handleInfo)
	mux.HandleFunc("/score", s.handleScore)
	mux.HandleFunc("/rank", s.handleRank)
	mux.HandleFunc("/stream", s.handleStream)
	mux.HandleFunc("GET /models", s.handleModelsList)
	mux.HandleFunc("GET /models/{name}", s.handleModelGet)
	mux.HandleFunc("PUT /models/{name}", s.handleModelPut)
	mux.HandleFunc("DELETE /models/{name}", s.handleModelDelete)
	mux.Handle("/metrics", metrics.Default.Handler())
	mux.Handle("GET /debug/traces", cfg.tracer().Handler())

	// Observability middleware wraps the whole mux so every endpoint —
	// including 404s — is counted, logged and traced; the root span's
	// End times the request as phase serve.<endpoint>. Each request
	// gets an ID (an inbound X-Request-Id is honored so hops
	// correlate; otherwise minted), carried in the context (RequestID)
	// and on the request-scoped logger, so endpoint events — including
	// async refit goroutines outliving their /stream push — stay
	// attributable. A root span opens per request: an inbound
	// traceparent makes this hop a child of the caller's span (the
	// front→shard path), and a fresh trace reuses the request ID as its
	// trace ID so logs and /debug/traces join on one value. The handler
	// reports its resolved model through the shared requestInfo, read
	// back here after ServeHTTP returns on the same goroutine.
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := requestID(r)
		endpoint := trace.Endpoint(r.URL.Path)
		remote, _ := trace.Extract(r.Header)
		ctx, span := cfg.tracer().StartRoot(r.Context(), "serve."+endpoint, remote, trace.TraceIDFromString(id))
		log := cfg.logger().With("request_id", id,
			"trace_id", span.TraceIDString(), "span_id", span.SpanIDString())
		ri := &requestInfo{}
		ctx = context.WithValue(ctx, requestIDKey, id)
		ctx = context.WithValue(ctx, loggerKey, log)
		ctx = context.WithValue(ctx, requestInfoKey, ri)
		sw := &statusWriter{ResponseWriter: w}
		w.Header().Set("X-Request-Id", id)
		mux.ServeHTTP(sw, r.WithContext(ctx))
		status := sw.status
		if status == 0 {
			// Nothing written: a handler that hijacked or a cancelled
			// stream; net/http would have sent 200.
			status = http.StatusOK
		}
		elapsed := time.Since(start)
		span.SetAttr("method", r.Method)
		span.SetAttr("path", r.URL.Path)
		span.SetAttr("status", status)
		if ri.model != "" {
			span.SetAttr("model", ri.model)
		}
		if status >= 500 {
			span.SetError(fmt.Errorf("status %d", status))
		}
		span.End()
		mRequests.With(endpoint, strconv.Itoa(status), ri.model).Inc()
		log.Info("request",
			"method", r.Method, "path", r.URL.Path, "endpoint", endpoint,
			"status", status, "duration", elapsed, "model", ri.model)
	})
	return &Server{Handler: h, s: s}
}

// labelRoutedModel pre-labels an unnamed routed request with the
// "default" alias so a request rejected before model resolution (a
// malformed body, say) still lands on a bounded metric series instead
// of model="". Named requests stay unlabeled until acquire resolves
// them — raw ?model= values are client-controlled and must not mint
// series.
func labelRoutedModel(r *http.Request) {
	if r.URL.Query().Get("model") == "" {
		setRequestModel(r.Context(), fleet.DefaultName)
	}
}

// acquire resolves the request's model — the ?model= query parameter,
// defaulting to the fleet's default model — into a Handle, writing the
// error response itself when resolution fails. Callers must Release the
// returned handle.
func (s *server) acquire(w http.ResponseWriter, r *http.Request, use fleet.Use) (*fleet.Handle, bool) {
	name := r.URL.Query().Get("model")
	h, err := s.fl.Acquire(name, use)
	if err != nil {
		var (
			nf *fleet.NotFoundError
			nr *fleet.NotReadyError
			qe *fleet.QuotaError
		)
		switch {
		case errors.As(err, &qe):
			setRequestModel(r.Context(), qe.Name)
			mRejected.With(qe.Name, qe.Kind).Inc()
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
		case errors.As(err, &nr):
			setRequestModel(r.Context(), nr.Name)
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		case errors.As(err, &nf):
			writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
		default:
			writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		}
		return nil, false
	}
	setRequestModel(r.Context(), h.Name())
	return h, true
}

// handleHealthz is the liveness + readiness probe: 503 with status
// "starting" while the manifest restore is in flight, 200 afterwards
// with the per-model load states ("degraded" when any model is not
// ready). The flat fields describe the default model for compatibility
// with the single-model era.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := Health{Status: "ok", Version: hics.Version}
	for _, st := range s.fl.Status() {
		h.Models = append(h.Models, ModelHealth{
			Name: st.Name, State: st.State, Error: st.Error, Default: st.Default,
		})
		if st.State != fleet.StateReady {
			h.Status = "degraded"
		}
		if st.Default && st.State == fleet.StateReady {
			h.Objects = st.Objects
			h.Attributes = st.Attributes
			h.Subspaces = st.Subspaces
		}
	}
	if s.draining.Load() {
		// Draining outranks everything: orchestrators must stop routing
		// here regardless of how healthy the fleet still looks.
		h.Status = "draining"
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusServiceUnavailable, h)
		return
	}
	if !s.fl.Ready() {
		h.Status = "starting"
		writeJSON(w, http.StatusServiceUnavailable, h)
		return
	}
	writeJSON(w, http.StatusOK, h)
}

func (s *server) handleInfo(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "GET required"})
		return
	}
	h, ok := s.acquire(w, r, fleet.UseMeta)
	if !ok {
		return
	}
	defer h.Release()
	m := h.Model()
	writeJSON(w, http.StatusOK, Info{
		Model:         h.Name(),
		Search:        m.SearchMethod(),
		Scorer:        m.ScorerMethod(),
		Subspaces:     len(m.Subspaces()),
		FormatVersion: m.FormatVersion(),
		Objects:       m.N(),
		Attributes:    m.D(),
		Version:       hics.Version,
		Server:        ServerVersion,
	})
}

func (s *server) handleScore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST required"})
		return
	}
	labelRoutedModel(r)
	var req ScoreRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("invalid request: %v", err)})
		return
	}
	h, ok := s.acquire(w, r, fleet.UseRequest)
	if !ok {
		return
	}
	defer h.Release()
	m := h.Model()
	switch {
	case req.Point != nil && req.Points != nil:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: `set exactly one of "point" and "points"`})
	case req.Point != nil:
		s, err := m.Score(req.Point)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, pointResponse{Score: s})
	case req.Points != nil:
		ctx, cancel := s.cfg.requestContext(r)
		defer cancel()
		scores, err := m.ScoreBatchContext(ctx, req.Points)
		if err != nil {
			writeComputeError(w, err)
			return
		}
		if scores == nil {
			scores = []float64{}
		}
		writeJSON(w, http.StatusOK, batchResponse{Scores: scores})
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: `set "point" or "points"`})
	}
}

// handleRank fits fresh HiCS rankings over the posted rows. The request
// still routes through a fleet model for admission — its request quota
// and worker bound govern the ranking — so multi-tenant fairness holds
// across every compute endpoint.
func (s *server) handleRank(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST required"})
		return
	}
	labelRoutedModel(r)
	var req RankRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("invalid request: %v", err)})
		return
	}
	if len(req.Rows) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: `"rows" must hold at least one row`})
		return
	}
	h, ok := s.acquire(w, r, fleet.UseRequest)
	if !ok {
		return
	}
	defer h.Release()
	ctx, cancel := s.cfg.requestContext(r)
	defer cancel()
	res, err := hics.RankContext(ctx, req.Rows, req.Options.options(h.Workers(s.cfg.RankWorkers)))
	if err != nil {
		writeComputeError(w, err)
		return
	}
	resp := RankResponse{Scores: res.Scores, Subspaces: make([]RankSubspace, len(res.Subspaces))}
	for i, sp := range res.Subspaces {
		resp.Subspaces[i] = RankSubspace{Dims: sp.Dims, Contrast: sp.Contrast}
	}
	writeJSON(w, http.StatusOK, resp)
}

// authorized checks the management bearer token. Always true when no
// token is configured.
func (s *server) authorized(r *http.Request) bool {
	if s.cfg.AdminToken == "" {
		return true
	}
	const prefix = "Bearer "
	auth := r.Header.Get("Authorization")
	if len(auth) < len(prefix) || !strings.EqualFold(auth[:len(prefix)], prefix) {
		return false
	}
	return subtle.ConstantTimeCompare([]byte(auth[len(prefix):]), []byte(s.cfg.AdminToken)) == 1
}

func writeUnauthorized(w http.ResponseWriter) {
	w.Header().Set("WWW-Authenticate", `Bearer realm="hicsd model management"`)
	writeJSON(w, http.StatusUnauthorized, errorResponse{Error: "management endpoints require a bearer token"})
}

// handleModelsList is GET /models: the whole fleet, readiness included.
func (s *server) handleModelsList(w http.ResponseWriter, r *http.Request) {
	sts := s.fl.Status()
	if sts == nil {
		sts = []fleet.ModelStatus{}
	}
	writeJSON(w, http.StatusOK, ModelsResponse{
		Ready:   s.fl.Ready(),
		Default: s.fl.DefaultModel(),
		Models:  sts,
	})
}

// handleModelGet is GET /models/{name}: one model's status.
func (s *server) handleModelGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	setRequestModel(r.Context(), name)
	st, err := s.fl.ModelStatus(name)
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleModelPut is PUT /models/{name}: the body is a saved model in the
// hics persistence format (as written by Model.Save / hics -fit -save);
// query parameters set the admission quota (max_concurrent, max_streams,
// workers) and default=true routes unnamed requests here. Loading an
// existing name hot-swaps it atomically: in-flight requests finish on
// the old model, new requests see the new one.
func (s *server) handleModelPut(w http.ResponseWriter, r *http.Request) {
	if !s.authorized(r) {
		writeUnauthorized(w)
		return
	}
	name := r.PathValue("name")
	setRequestModel(r.Context(), name)
	if !fleet.ValidName(name) {
		writeJSON(w, http.StatusBadRequest, errorResponse{
			Error: fmt.Sprintf("invalid model name %q (want 1-64 chars of [a-zA-Z0-9_.-], starting alphanumeric)", name)})
		return
	}
	q, makeDefault, err := quotaParams(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	m, err := hics.LoadModel(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("model body: %v", err)})
		return
	}
	if err := s.fl.Put(name, m, q, makeDefault); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	ctxLogger(r.Context()).Info("model loaded", "model", name, "default", makeDefault,
		"objects", m.N(), "attributes", m.D())
	st, err := s.fl.ModelStatus(name)
	if err != nil {
		// Deleted between Put and Status; report what was loaded.
		writeJSON(w, http.StatusOK, fleet.ModelStatus{Name: name, State: fleet.StateReady})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleModelDelete is DELETE /models/{name}: the name 404s immediately
// for new requests while in-flight ones drain (bounded by the request's
// context and the server's request timeout), then the persisted file is
// removed.
func (s *server) handleModelDelete(w http.ResponseWriter, r *http.Request) {
	if !s.authorized(r) {
		writeUnauthorized(w)
		return
	}
	name := r.PathValue("name")
	setRequestModel(r.Context(), name)
	ctx, cancel := s.cfg.requestContext(r)
	defer cancel()
	if err := s.fl.Delete(ctx, name); err != nil {
		var nf *fleet.NotFoundError
		if errors.As(err, &nf) {
			writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	ctxLogger(r.Context()).Info("model unloaded", "model", name)
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

// quotaParams parses the PUT /models/{name} quota query parameters.
func quotaParams(r *http.Request) (fleet.Quota, bool, error) {
	var q fleet.Quota
	var makeDefault bool
	qs := r.URL.Query()
	for _, p := range []struct {
		name string
		dst  *int
	}{
		{"max_concurrent", &q.MaxConcurrent},
		{"max_streams", &q.MaxStreams},
		{"workers", &q.Workers},
	} {
		s := qs.Get(p.name)
		if s == "" {
			continue
		}
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			return q, false, fmt.Errorf("query parameter %s: %q is not a non-negative integer", p.name, s)
		}
		*p.dst = v
	}
	if s := qs.Get("default"); s != "" {
		v, err := strconv.ParseBool(s)
		if err != nil {
			return q, false, fmt.Errorf("query parameter default: %q is not a boolean", s)
		}
		makeDefault = v
	}
	return q, makeDefault, nil
}

// DrainingStreamError is the terminal NDJSON error record text a
// draining server ends open stream sessions with. The shard front
// matches it to attach routing advice for the client.
const DrainingStreamError = "server draining: stream closed after the rows already scored; reconnect to continue"

// streamByteLimit resolves a /stream session's cumulative input cap:
// the configured StreamMaxBytes (default 64 MiB), lowered — never
// raised — by the ?max_bytes query parameter.
func (s *server) streamByteLimit(r *http.Request) (int64, error) {
	limit := s.cfg.StreamMaxBytes
	if limit <= 0 {
		limit = maxRequestBytes
	}
	if q := r.URL.Query().Get("max_bytes"); q != "" {
		v, err := strconv.ParseInt(q, 10, 64)
		if err != nil || v <= 0 {
			return 0, fmt.Errorf("query parameter max_bytes: %q is not a positive integer", q)
		}
		if v < limit {
			limit = v
		}
	}
	return limit, nil
}

// streamOptions resolves a /stream request's detector options: the
// server-configured defaults overridden by the window / refit_every /
// async query parameters. A zero window derives from the routed model's
// training-set size — per model, not per server.
func (s *server) streamOptions(r *http.Request, m *hics.Model, workers int) (hics.StreamOptions, error) {
	sopts := hics.StreamOptions{
		Window:     s.cfg.StreamWindow,
		RefitEvery: s.cfg.StreamRefitEvery,
		Async:      s.cfg.StreamAsync,
		Workers:    workers,
	}
	if sopts.Window == 0 {
		sopts.Window = m.N()
	}
	q := r.URL.Query()
	if s := q.Get("window"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			return sopts, fmt.Errorf("query parameter window: %q is not an integer", s)
		}
		sopts.Window = v
	}
	if s := q.Get("refit_every"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			return sopts, fmt.Errorf("query parameter refit_every: %q is not an integer", s)
		}
		sopts.RefitEvery = v
	}
	if s := q.Get("async"); s != "" {
		v, err := strconv.ParseBool(s)
		if err != nil {
			return sopts, fmt.Errorf("query parameter async: %q is not a boolean", s)
		}
		sopts.Async = v
	}
	return sopts, nil
}

// handleStream is POST /stream: NDJSON in (one JSON array of numbers per
// line), NDJSON out (one hics.StreamResult per scored row, flushed per line).
// The stream wraps the routed model warm — rows score immediately — and
// optionally refits over its sliding window per the resolved options.
// The session holds its model handle until it closes, so a hot swap or
// unload never tears a running stream: it keeps scoring against the
// model snapshot it opened with. The request context governs
// everything: a client disconnect or an exceeded RequestTimeout cancels
// in-flight scoring and refits.
func (s *server) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST required"})
		return
	}
	if s.draining.Load() {
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server is draining; retry against another replica"})
		return
	}
	labelRoutedModel(r)
	maxBytes, err := s.streamByteLimit(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	h, ok := s.acquire(w, r, fleet.UseStream)
	if !ok {
		return
	}
	defer h.Release()
	m := h.Model()
	sopts, err := s.streamOptions(r, m, h.Workers(s.cfg.RankWorkers))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	// The detector inherits the request-scoped logger, so refit events —
	// including ones from an async refit goroutine — carry this session's
	// request ID.
	log := ctxLogger(r.Context())
	sopts.Logger = log
	st, err := m.NewStream(sopts)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	defer st.Close()
	ctx, cancel := s.cfg.requestContext(r)
	defer cancel()
	model := h.Name()
	mActiveStreams.With(model).Add(1)
	defer mActiveStreams.With(model).Add(-1)
	defer func() {
		log.Debug("stream session closed", "model", model, "rows", st.Seen(), "refits", st.Refits(),
			"window", sopts.Window, "refit_every", sopts.RefitEvery, "async", sopts.Async)
	}()

	// From here on the response is a 200 NDJSON stream; later failures
	// are terminal {"error": ...} records, not status codes. Scored
	// records interleave with body reads, so the connection must be
	// full-duplex — without this the server closes the request body on
	// the first response write.
	rc := http.NewResponseController(w)
	if err := rc.EnableFullDuplex(); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: fmt.Sprintf("streaming unsupported: %v", err)})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	// Register for drain kicks: Drain sets our read deadline, so the
	// blocked body read below returns and the terminal record goes out.
	s.addSession(rc)
	defer s.removeSession(rc)
	// The session loop is allocation-free per row: the parser reuses its
	// line and row buffers, PushAppend scores into the reused results
	// slice, and records are encoded append-style into one reused output
	// buffer written (and flushed) once per arrival.
	sp := newStreamParser(http.MaxBytesReader(w, r.Body, maxBytes))
	var (
		results []hics.StreamResult
		encBuf  []byte
	)
	refitsSeen := 0
	for {
		if err := ctx.Err(); err != nil {
			writeStreamError(w, rc, err)
			return
		}
		row, err := sp.next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			if s.draining.Load() && errors.Is(err, os.ErrDeadlineExceeded) {
				// Drain kicked the body read. Everything scored so far has
				// been flushed; the terminal record tells the client (or the
				// front proxying it) to reconnect elsewhere.
				writeStreamError(w, rc, errors.New(DrainingStreamError))
				return
			}
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				writeStreamError(w, rc, fmt.Errorf("stream input exceeded the %d-byte session limit; reconnect to continue", tooLarge.Limit))
				discardRest(rc, r.Body)
				return
			}
			writeStreamError(w, rc, fmt.Errorf("invalid row: %v (want one JSON array of %d numbers per line)", err, m.D()))
			return
		}
		results, err = st.PushAppend(ctx, row, results[:0])
		if err != nil {
			writeStreamError(w, rc, err)
			return
		}
		if n := st.Refits(); n > refitsSeen {
			mRefits.With(model).Add(int64(n - refitsSeen))
			refitsSeen = n
		}
		encBuf = encBuf[:0]
		for _, res := range results {
			encBuf, err = appendStreamRecord(encBuf, res)
			if err != nil {
				// A non-representable score (LOF can be +Inf on degenerate
				// windows) terminates the stream with an error record, after
				// the records already encoded this arrival.
				mErrors.Add(1)
				msg, _ := json.Marshal(errorResponse{Error: fmt.Sprintf("row %d: score not representable in JSON: %v", res.Index, err)})
				encBuf = append(encBuf, msg...)
				encBuf = append(encBuf, '\n')
				_, _ = w.Write(encBuf)
				return
			}
		}
		if len(encBuf) > 0 {
			if _, err := w.Write(encBuf); err != nil {
				return
			}
			_ = rc.Flush()
		}
	}
	// Input exhausted: wait out any background refit so its failure (or
	// completion) is reflected before the stream closes.
	if err := st.Drain(ctx); err != nil {
		writeStreamError(w, rc, err)
		return
	}
	if n := st.Refits(); n > refitsSeen {
		mRefits.With(model).Add(int64(n - refitsSeen))
	}
}

// discardRest reads and drops what a client still sends after its
// session limit, up to 256 KiB and for at most a second. The server
// closes the connection after a body hits its limit, and a socket closed
// with unread bytes is reset, which can discard the terminal limit
// record before the client reads it. Draining inside the handler, while
// the connection is still the handler's, lets a client that has finished
// writing see a clean end of the response.
func discardRest(rc *http.ResponseController, body io.Reader) {
	_ = rc.SetReadDeadline(time.Now().Add(time.Second))
	_, _ = io.CopyN(io.Discard, body, 256<<10)
}

// writeStreamError terminates an NDJSON stream with an {"error": ...}
// record. A client disconnect gets nothing — nobody is listening.
func writeStreamError(w io.Writer, rc *http.ResponseController, err error) {
	if errors.Is(err, context.Canceled) {
		return
	}
	mErrors.Add(1)
	msg := err.Error()
	if errors.Is(err, context.DeadlineExceeded) {
		msg = "stream exceeded the server's compute budget"
	}
	data, _ := json.Marshal(errorResponse{Error: msg})
	_, _ = w.Write(append(data, '\n'))
	_ = rc.Flush()
}

// requestContext derives a compute context for one request: the client's
// context (cancelled when the connection drops), bounded by the
// configured server-side budget.
func (cfg Config) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if cfg.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), cfg.RequestTimeout)
	}
	return context.WithCancel(r.Context())
}

// writeComputeError maps a scoring/ranking failure onto the response: an
// exceeded server budget is 504, a client disconnect gets no response
// (nobody is listening), anything else is the client's fault.
func writeComputeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: "request exceeded the server's compute budget"})
	case errors.Is(err, context.Canceled):
		// The client went away; the work was cancelled on its behalf.
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
	}
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	data, err := json.Marshal(body)
	if err != nil {
		// LOF scores of degenerate (duplicate-heavy) data can be +Inf,
		// which JSON cannot carry; report instead of sending a truncated
		// 200 body.
		status = http.StatusUnprocessableEntity
		data, _ = json.Marshal(errorResponse{Error: fmt.Sprintf("response not representable in JSON: %v", err)})
	}
	if status >= 400 {
		mErrors.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(data, '\n'))
}
