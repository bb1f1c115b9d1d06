// Package trace is the process-global, dependency-free tracing layer:
// W3C trace-context propagation (traceparent), monotonic span timing,
// head sampling with always-keep on error or slow traces, a bounded
// in-process ring buffer of completed traces served over HTTP, and
// optional NDJSON span export. It is the distributed companion of
// internal/metrics and follows the same conventions: stdlib only, a
// package-level Default instance, and invalid use failing loudly.
//
// A trace is rooted once per process hop (Tracer.StartRoot, called by
// the serving middleware); phases inside the hop open child spans with
// StartSpan, which is a no-op returning a nil *Span when the context
// carries no root — so library code can annotate unconditionally and
// pays nothing outside a traced request. All *Span methods are
// nil-receiver safe.
//
// Spans are recorded regardless of the head-sampling decision; the
// decision is applied when the root span ends, so a trace that turned
// out slow or errored is kept even when head sampling would have
// dropped it (tail keep). What "kept" means: the assembled trace enters
// the ring buffer (GET /debug/traces) and, when configured, its spans
// are appended to the NDJSON export writer.
//
// Span.End is also the process's one phase timer: every ended span adds
// its duration to hics_phase_seconds{phase=<span name>}, kept or not, so
// /metrics and /debug/traces time the same work from the same clock
// reads. Span names are therefore a bounded set; root spans name their
// request path through Endpoint.
package trace

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is a W3C trace-context trace ID: 16 bytes, rendered as 32
// lowercase hex characters. The zero value is invalid per the spec.
type TraceID [16]byte

// SpanID is a W3C trace-context span ID: 8 bytes, 16 lowercase hex
// characters. The zero value is invalid.
type SpanID [8]byte

// IsZero reports whether the trace ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the trace ID as 32 lowercase hex characters.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsZero reports whether the span ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the span ID as 16 lowercase hex characters.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// SpanContext is the propagated identity of a span: what crosses a
// process boundary inside a traceparent header.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	// Sampled is the upstream head-sampling decision (the 01 flag bit).
	// A downstream hop honors it instead of re-rolling, so one decision
	// governs the whole distributed trace.
	Sampled bool
}

// Valid reports whether both IDs are non-zero, the W3C validity rule.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// Traceparent renders the context as a version-00 traceparent header
// value: "00-<32 hex trace-id>-<16 hex span-id>-<2 hex flags>".
func (sc SpanContext) Traceparent() string {
	flags := "00"
	if sc.Sampled {
		flags = "01"
	}
	return "00-" + sc.TraceID.String() + "-" + sc.SpanID.String() + "-" + flags
}

// ParseTraceparent parses a W3C traceparent header value. It accepts
// version 00 exactly (and rejects the reserved version ff), requires
// lowercase hex per the spec, and rejects all-zero trace or span IDs.
// ok is false for anything malformed; callers then start a fresh trace.
func ParseTraceparent(s string) (sc SpanContext, ok bool) {
	// Layout: 2 (version) + 1 + 32 (trace-id) + 1 + 16 (span-id) + 1 +
	// 2 (flags) = 55 bytes, dash-separated.
	if len(s) != 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return SpanContext{}, false
	}
	if s[:2] != "00" {
		// Only version 00 is generated today; ff is reserved-invalid
		// and anything else is from a future spec we cannot parse.
		return SpanContext{}, false
	}
	if !lowerHex(s[3:35]) || !lowerHex(s[36:52]) || !lowerHex(s[53:55]) {
		return SpanContext{}, false
	}
	hex.Decode(sc.TraceID[:], []byte(s[3:35]))
	hex.Decode(sc.SpanID[:], []byte(s[36:52]))
	if sc.TraceID.IsZero() || sc.SpanID.IsZero() {
		return SpanContext{}, false
	}
	var flags byte
	b, _ := hex.DecodeString(s[53:55])
	flags = b[0]
	sc.Sampled = flags&0x01 != 0
	return sc, true
}

// lowerHex reports whether s is entirely lowercase hex digits.
func lowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// TraceIDFromString derives a trace ID deterministically from an
// arbitrary request-ID string, so a hop that receives an X-Request-Id
// but no traceparent still lands on the same trace ID as any other hop
// seeing that request ID. A string that already is 32 lowercase hex
// characters (a full trace ID) is used verbatim; anything else is
// expanded through FNV-1a over two salts. The result is non-zero for
// every input.
func TraceIDFromString(s string) TraceID {
	var t TraceID
	if len(s) == 32 && lowerHex(s) {
		hex.Decode(t[:], []byte(s))
		if !t.IsZero() {
			return t
		}
	}
	binary.BigEndian.PutUint64(t[:8], fnv1a(s, 0xcbf29ce484222325))
	binary.BigEndian.PutUint64(t[8:], fnv1a(s, 0x9e3779b97f4a7c15))
	if t.IsZero() { // vanishingly unlikely, but the spec forbids zero
		t[15] = 1
	}
	return t
}

// fnv1a is FNV-1a over s from the given offset basis.
func fnv1a(s string, basis uint64) uint64 {
	h := basis
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value any
}

// SpanData is one completed span in its externally served JSON shape.
type SpanData struct {
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	Name     string `json:"name"`
	// StartMS is milliseconds since the trace's root span started;
	// negative for a child that started before the local root was seen
	// (cannot happen in-process, kept for robustness).
	StartMS    float64        `json:"start_ms"`
	DurationMS float64        `json:"duration_ms"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Error      string         `json:"error,omitempty"`
}

// TraceData is one completed, kept trace: the local root span plus
// every child span that finished before the root did, as served by
// GET /debug/traces (newest trace first).
type TraceData struct {
	TraceID string    `json:"trace_id"`
	Root    string    `json:"root"`
	Start   time.Time `json:"start"`
	// DurationMS is the root span's wall time.
	DurationMS float64 `json:"duration_ms"`
	// Sampled records the head-sampling decision; a false value means
	// the trace was tail-kept because it errored or crossed the slow
	// threshold.
	Sampled bool   `json:"sampled"`
	Error   string `json:"error,omitempty"`
	// DroppedSpans counts spans lost to the per-trace cap or to ending
	// after the root; 0 means the trace is complete.
	DroppedSpans int        `json:"dropped_spans,omitempty"`
	Spans        []SpanData `json:"spans"`
}

// Config parameterizes a Tracer. The zero value is fully usable: it
// head-samples every trace, keeps errored traces and traces slower
// than DefaultSlowThreshold, and does not export.
type Config struct {
	// Sample is the head-sampling probability in [0, 1]. 0 means the
	// default (sample everything); pass a negative value to head-sample
	// nothing, keeping only errored and slow traces. The decision is a
	// deterministic function of the trace ID, so every hop of a trace
	// agrees even without the propagated flag.
	Sample float64
	// SlowThreshold tail-keeps any trace whose root span runs at least
	// this long, regardless of the sampling decision. 0 means the
	// default (DefaultSlowThreshold); negative disables the slow keep.
	SlowThreshold time.Duration
	// Export, when non-nil, receives one JSON object per kept span,
	// newline-terminated (NDJSON), as each trace completes. Writes are
	// serialized by the tracer; write errors are counted on
	// hicsd_trace_export_errors_total and do not affect serving.
	Export io.Writer
}

// DefaultSlowThreshold replaces a zero Config.SlowThreshold.
// DefaultRingSize bounds the completed traces retained for
// /debug/traces (the oldest is evicted first), and DefaultMaxSpans caps
// the spans recorded per trace (the rest are counted as dropped).
const (
	DefaultSlowThreshold = 500 * time.Millisecond
	DefaultRingSize      = 256
	DefaultMaxSpans      = 512
)

// Tracer mints, records and retains traces. Create with New; the
// package-level Default is what the serving layers use unless a test
// injects its own.
type Tracer struct {
	mu   sync.Mutex
	cfg  Config
	ring []TraceData // completed kept traces, ring-ordered
	next int         // ring write cursor
	full bool

	// idState seeds span/trace ID minting: a splitmix64 stream advanced
	// with atomic adds, so ID creation never contends on mu.
	idState atomic.Uint64
}

// New returns a Tracer with cfg's zero fields replaced by defaults.
func New(cfg Config) *Tracer {
	t := &Tracer{ring: make([]TraceData, DefaultRingSize)}
	t.seed()
	t.Configure(cfg)
	return t
}

// seed initializes the ID stream from the OS entropy pool so separate
// processes never collide.
func (t *Tracer) seed() {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		// Entropy exhaustion is effectively impossible on supported
		// platforms; fall back to the clock rather than failing init.
		binary.LittleEndian.PutUint64(b[:], uint64(time.Now().UnixNano()))
	}
	t.idState.Store(binary.LittleEndian.Uint64(b[:]))
}

// Configure replaces the tracer's parameters, normalizing zero fields
// to the package defaults. Safe for concurrent use, but intended for
// startup.
func (t *Tracer) Configure(cfg Config) {
	if cfg.Sample == 0 {
		cfg.Sample = 1
	}
	if cfg.Sample < 0 {
		cfg.Sample = 0
	}
	if cfg.Sample > 1 {
		cfg.Sample = 1
	}
	if cfg.SlowThreshold == 0 {
		cfg.SlowThreshold = DefaultSlowThreshold
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cfg = cfg
}

// Default is the process-global tracer, analogous to metrics.Default.
// cmd/hicsd configures it from the -trace-* flags at startup.
var Default = New(Config{})

// nextID advances the splitmix64 stream one step and mixes the output.
func (t *Tracer) nextID() uint64 {
	z := t.idState.Add(0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// mintTraceID mints a random non-zero trace ID.
func (t *Tracer) mintTraceID() TraceID {
	var id TraceID
	binary.BigEndian.PutUint64(id[:8], t.nextID())
	binary.BigEndian.PutUint64(id[8:], t.nextID())
	if id.IsZero() {
		id[15] = 1
	}
	return id
}

// mintSpanID mints a random non-zero span ID.
func (t *Tracer) mintSpanID() SpanID {
	var id SpanID
	binary.BigEndian.PutUint64(id[:], t.nextID())
	if id.IsZero() {
		id[7] = 1
	}
	return id
}

// sampleTrace is the deterministic head-sampling decision: a uniform
// hash of the trace ID compared against the configured probability, so
// all hops of one trace decide identically.
func sampleTrace(id TraceID, p float64) bool {
	if p >= 1 {
		return true
	}
	if p <= 0 {
		return false
	}
	// Re-mix the low half so IDs derived from request IDs (FNV) are
	// spread uniformly before the threshold compare.
	h := binary.BigEndian.Uint64(id[8:]) * 0x9e3779b97f4a7c15
	return float64(h>>11)/float64(1<<53) < p
}

// traceRec is the in-process accumulator for one trace: finished spans
// gather here until the root span ends and the keep decision is made.
type traceRec struct {
	tracer *Tracer
	id     TraceID
	head   bool // head-sampling decision (local roll or propagated flag)

	mu        sync.Mutex
	rootStart time.Time
	spans     []SpanData
	dropped   int
	errored   bool
	done      bool
}

// Span is one timed operation. A nil *Span is the valid no-op span: all
// methods are nil-safe, so callers annotate unconditionally. Attribute
// methods may be called from multiple goroutines (fan-out workers
// sharing the request context); End must be called exactly once by the
// goroutine that owns the operation.
type Span struct {
	rec    *traceRec
	sc     SpanContext
	parent SpanID
	// root marks the process-local root span (the one whose End
	// finalizes the trace). parent.IsZero() is not equivalent: a root
	// continuing a remote trace is parented under the upstream span.
	root  bool
	name  string
	start time.Time

	mu    sync.Mutex
	attrs []Attr
	err   error
	ended bool
}

// Context returns the span's propagated identity, for injection into an
// outgoing hop. The zero SpanContext on a nil span is invalid, so a
// caller can inject unconditionally and downstream parsing rejects it.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// TraceIDString returns the 32-hex trace ID, or "" on a nil span.
func (s *Span) TraceIDString() string {
	if s == nil {
		return ""
	}
	return s.sc.TraceID.String()
}

// SpanIDString returns the 16-hex span ID, or "" on a nil span.
func (s *Span) SpanIDString() string {
	if s == nil {
		return ""
	}
	return s.sc.SpanID.String()
}

// SetAttr annotates the span; later values for the same key win.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// SetError marks the span failed; a trace containing any errored span
// is always kept. A nil err is ignored.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.err = err
}

// End finishes the span with monotonic timing, observes the duration
// on hics_phase_seconds under the span's name, and hands the span to
// the trace record. Ending the root span finalizes the trace: the keep
// decision runs and the assembled trace enters the ring and the export.
// The observation does not depend on that decision, nor on the span
// cap. End is idempotent; extra calls are ignored.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Since(s.start)
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	data := SpanData{
		SpanID:     s.sc.SpanID.String(),
		Name:       s.name,
		DurationMS: durationMS(end),
	}
	if !s.parent.IsZero() {
		data.ParentID = s.parent.String()
	}
	if len(s.attrs) > 0 {
		data.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			data.Attrs[a.Key] = a.Value
		}
	}
	var errored bool
	if s.err != nil {
		data.Error = s.err.Error()
		errored = true
	}
	s.mu.Unlock()
	mPhase.With(s.name).Observe(end.Seconds())
	s.rec.finish(s, data, errored)
}

// durationMS converts to float milliseconds for the JSON shapes.
func durationMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// finish records one ended span on the trace; the root span triggers
// finalization.
func (r *traceRec) finish(s *Span, data SpanData, errored bool) {
	isRoot := s.root
	r.mu.Lock()
	if errored {
		r.errored = true
	}
	switch {
	case r.done:
		// The root already ended and the trace shipped; a straggler
		// (an async refit outliving its session) has nowhere to go.
		r.dropped++
		r.mu.Unlock()
		mSpansDropped.With("late").Inc()
		return
	case !isRoot && len(r.spans) >= DefaultMaxSpans:
		r.dropped++
		r.mu.Unlock()
		mSpansDropped.With("cap").Inc()
		return
	}
	data.StartMS = durationMS(s.start.Sub(r.rootStart))
	r.spans = append(r.spans, data)
	if !isRoot {
		r.mu.Unlock()
		return
	}
	r.done = true
	td := TraceData{
		TraceID:      r.id.String(),
		Root:         s.name,
		Start:        r.rootStart,
		DurationMS:   data.DurationMS,
		Sampled:      r.head,
		Error:        data.Error,
		DroppedSpans: r.dropped,
		Spans:        r.spans,
	}
	errAny := r.errored
	r.mu.Unlock()

	// Order spans by start offset so /debug/traces reads as a timeline
	// rather than completion order (children complete before parents).
	sort.SliceStable(td.Spans, func(i, j int) bool { return td.Spans[i].StartMS < td.Spans[j].StartMS })

	tr := r.tracer
	keep := r.head || errAny
	if !keep {
		if slow := tr.slowThreshold(); slow > 0 && time.Duration(td.DurationMS*float64(time.Millisecond)) >= slow {
			keep = true
		}
	}
	if !keep {
		return
	}
	tr.keep(td)
}

// slowThreshold reads the tail-keep threshold under the config lock.
func (t *Tracer) slowThreshold() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cfg.SlowThreshold
}

// keep admits a completed trace to the ring (evicting the oldest when
// full) and appends its spans to the export writer if configured.
func (t *Tracer) keep(td TraceData) {
	t.mu.Lock()
	if t.full {
		mSpansDropped.With("evict").Add(int64(len(t.ring[t.next].Spans)))
	}
	t.ring[t.next] = td
	t.next++
	if t.next == len(t.ring) {
		t.next, t.full = 0, true
	}
	occupancy := t.next
	if t.full {
		occupancy = len(t.ring)
	}
	export := t.cfg.Export
	t.mu.Unlock()
	mTracesKept.Inc()
	mRingTraces.Set(float64(occupancy))
	if export != nil {
		t.export(export, td)
	}
}

// exportSpan is the NDJSON line shape: SpanData plus trace identity.
type exportSpan struct {
	TraceID string    `json:"trace_id"`
	Start   time.Time `json:"trace_start"`
	SpanData
}

// exportMu serializes NDJSON writes across traces; a file is a shared
// sink and interleaved lines would corrupt it.
var exportMu sync.Mutex

// export writes one NDJSON line per span of the kept trace.
func (t *Tracer) export(w io.Writer, td TraceData) {
	exportMu.Lock()
	defer exportMu.Unlock()
	for _, sp := range td.Spans {
		line, err := json.Marshal(exportSpan{TraceID: td.TraceID, Start: td.Start, SpanData: sp})
		if err == nil {
			line = append(line, '\n')
			_, err = w.Write(line)
		}
		if err != nil {
			mExportErrors.Inc()
		}
	}
}

// Traces returns the retained traces, newest first, filtered to those
// whose root ran at least min (0 keeps all) and truncated to limit
// (<= 0 means no limit). The returned slice is a snapshot; span slices
// are shared but never mutated after keep.
func (t *Tracer) Traces(min time.Duration, limit int) []TraceData {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.next
	if t.full {
		n = len(t.ring)
	}
	out := make([]TraceData, 0, n)
	// Walk backwards from the newest entry.
	for i := 0; i < n; i++ {
		idx := t.next - 1 - i
		if idx < 0 {
			idx += len(t.ring)
		}
		td := t.ring[idx]
		if min > 0 && time.Duration(td.DurationMS*float64(time.Millisecond)) < min {
			continue
		}
		out = append(out, td)
		if limit > 0 && len(out) == limit {
			break
		}
	}
	return out
}

// StartRoot opens the trace's root span for this process hop. remote,
// when valid, is the upstream span context extracted from traceparent:
// the trace ID and sampling decision are inherited and the new span is
// parented under the remote span. Otherwise a fresh trace starts:
// fallback (when non-zero) becomes its trace ID — the serving layers
// derive it from the request ID so logs and traces join on one value —
// and head sampling is rolled locally. The returned context carries the
// span for StartSpan/SpanFromContext.
func (t *Tracer) StartRoot(ctx context.Context, name string, remote SpanContext, fallback TraceID) (context.Context, *Span) {
	rec := &traceRec{tracer: t, rootStart: time.Now()}
	var parent SpanID
	if remote.Valid() {
		rec.id = remote.TraceID
		rec.head = remote.Sampled
		parent = remote.SpanID
	} else {
		if fallback.IsZero() {
			rec.id = t.mintTraceID()
		} else {
			rec.id = fallback
		}
		t.mu.Lock()
		p := t.cfg.Sample
		t.mu.Unlock()
		rec.head = sampleTrace(rec.id, p)
	}
	sp := &Span{
		rec:    rec,
		sc:     SpanContext{TraceID: rec.id, SpanID: t.mintSpanID(), Sampled: rec.head},
		parent: parent,
		root:   true,
		name:   name,
		start:  rec.rootStart,
	}
	return ContextWithSpan(ctx, sp), sp
}

// endpoints maps request paths onto the bounded endpoint set.
var endpoints = map[string]string{
	"/healthz":      "healthz",
	"/info":         "info",
	"/score":        "score",
	"/rank":         "rank",
	"/stream":       "stream",
	"/models":       "models",
	"/metrics":      "metrics",
	"/debug/traces": "debug_traces",
}

// Endpoint maps a request path onto the bounded endpoint set the
// serving middlewares name their root spans by ("serve.<endpoint>",
// "front.<endpoint>") and label their request counters with. Any
// unknown path collapses into "other", so neither the phase label nor
// the scrape can grow with client input.
func Endpoint(path string) string {
	if e, ok := endpoints[path]; ok {
		return e
	}
	if strings.HasPrefix(path, "/models/") {
		return "models"
	}
	return "other"
}

// ctxKey is the unexported context key type for the span.
type ctxKey int

const spanKey ctxKey = 0

// ContextWithSpan returns ctx carrying sp. Attaching a nil span returns
// ctx unchanged, so propagation code needs no nil checks.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey, sp)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey).(*Span)
	return sp
}

// StartSpan opens a child of the span carried by ctx. When ctx carries
// none the call is free: it returns ctx unchanged and a nil span, so
// instrumented phases cost nothing outside a traced request.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	rec := parent.rec
	sp := &Span{
		rec:    rec,
		sc:     SpanContext{TraceID: rec.id, SpanID: rec.tracer.mintSpanID(), Sampled: rec.head},
		parent: parent.sc.SpanID,
		name:   name,
		start:  time.Now(),
	}
	return ContextWithSpan(ctx, sp), sp
}

// Inject writes the traceparent header for the span carried by ctx into
// h, making the span the parent of the next hop. A context without a
// span leaves h untouched.
func Inject(ctx context.Context, h http.Header) {
	sp := SpanFromContext(ctx)
	if sp == nil {
		return
	}
	h.Set("Traceparent", sp.Context().Traceparent())
}

// Extract parses the traceparent header from h; ok is false when the
// header is absent or malformed.
func Extract(h http.Header) (SpanContext, bool) {
	v := h.Get("Traceparent")
	if v == "" {
		return SpanContext{}, false
	}
	return ParseTraceparent(v)
}

// Handler serves the ring buffer as GET /debug/traces: a JSON array of
// TraceData, newest first. Query parameters: min_ms filters to traces
// at least that slow, limit truncates the result (default 50).
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		var min time.Duration
		if v := r.URL.Query().Get("min_ms"); v != "" {
			ms, err := strconv.ParseFloat(v, 64)
			if err != nil || ms < 0 {
				http.Error(w, fmt.Sprintf("trace: bad min_ms %q", v), http.StatusBadRequest)
				return
			}
			min = time.Duration(ms * float64(time.Millisecond))
		}
		limit := 50
		if v := r.URL.Query().Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				http.Error(w, fmt.Sprintf("trace: bad limit %q", v), http.StatusBadRequest)
				return
			}
			limit = n
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(t.Traces(min, limit))
	})
}
