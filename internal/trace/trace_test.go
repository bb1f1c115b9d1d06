package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hics/internal/parallel"
)

// TestTraceparentRoundTrip formats and re-parses a span context and
// requires identity.
func TestTraceparentRoundTrip(t *testing.T) {
	tr := New(Config{})
	ctx, root := tr.StartRoot(context.Background(), "root", SpanContext{}, TraceID{})
	defer root.End()
	_, child := StartSpan(ctx, "child")
	defer child.End()
	for _, sc := range []SpanContext{
		root.Context(),
		child.Context(),
		{TraceID: TraceID{0xde, 0xad}, SpanID: SpanID{0xbe, 0xef}, Sampled: true},
		{TraceID: TraceID{15: 1}, SpanID: SpanID{7: 1}, Sampled: false},
	} {
		hdr := sc.Traceparent()
		got, ok := ParseTraceparent(hdr)
		if !ok {
			t.Fatalf("ParseTraceparent(%q) rejected a header we produced", hdr)
		}
		if got != sc {
			t.Fatalf("round trip of %q: got %+v want %+v", hdr, got, sc)
		}
	}
}

// TestParseTraceparentMalformed is the malformed-header table: every
// entry must be rejected, never panicking.
func TestParseTraceparentMalformed(t *testing.T) {
	valid := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	if _, ok := ParseTraceparent(valid); !ok {
		t.Fatalf("control header %q rejected", valid)
	}
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"short", "00-abc"},
		{"long", valid + "-extra"},
		{"truncated", valid[:54]},
		{"version ff", "ff" + valid[2:]},
		{"future version", "01" + valid[2:]},
		{"uppercase trace id", "00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01"},
		{"uppercase span id", "00-0af7651916cd43dd8448eb211c80319c-B7AD6B7169203331-01"},
		{"non-hex trace id", "00-0af7651916cd43dd8448eb211c80319g-b7ad6b7169203331-01"},
		{"non-hex flags", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-zz"},
		{"zero trace id", "00-00000000000000000000000000000000-b7ad6b7169203331-01"},
		{"zero span id", "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01"},
		{"missing dashes", "00_0af7651916cd43dd8448eb211c80319c_b7ad6b7169203331_01"},
		{"spaces", "00 0af7651916cd43dd8448eb211c80319c b7ad6b7169203331 01"},
	}
	for _, c := range cases {
		if sc, ok := ParseTraceparent(c.in); ok {
			t.Errorf("%s: ParseTraceparent(%q) accepted as %+v", c.name, c.in, sc)
		}
	}
}

// TestInjectExtract checks the header-level round trip and that a
// span-free context injects nothing.
func TestInjectExtract(t *testing.T) {
	tr := New(Config{})
	ctx, sp := tr.StartRoot(context.Background(), "root", SpanContext{}, TraceID{})
	defer sp.End()
	r := httptest.NewRequest("GET", "/", nil)
	Inject(ctx, r.Header)
	got, ok := Extract(r.Header)
	if !ok || got != sp.Context() {
		t.Fatalf("Extract after Inject: got %+v ok=%v, want %+v", got, ok, sp.Context())
	}

	r2 := httptest.NewRequest("GET", "/", nil)
	Inject(context.Background(), r2.Header)
	if v := r2.Header.Get("Traceparent"); v != "" {
		t.Fatalf("Inject without a span set Traceparent=%q", v)
	}
	if _, ok := Extract(r2.Header); ok {
		t.Fatal("Extract on an empty header reported ok")
	}
}

// TestTraceIDFromString: 32-hex strings pass through verbatim, others
// derive deterministically and never collide with zero.
func TestTraceIDFromString(t *testing.T) {
	hexID := "0af7651916cd43dd8448eb211c80319c"
	if got := TraceIDFromString(hexID).String(); got != hexID {
		t.Fatalf("32-hex request ID not used verbatim: got %s", got)
	}
	a, b := TraceIDFromString("req-123"), TraceIDFromString("req-123")
	if a != b {
		t.Fatal("derivation is not deterministic")
	}
	if a.IsZero() {
		t.Fatal("derived trace ID is zero")
	}
	if TraceIDFromString("req-124") == a {
		t.Fatal("distinct request IDs collided")
	}
	if TraceIDFromString("").IsZero() {
		t.Fatal("empty request ID derived a zero trace ID")
	}
}

// TestRingEvictionOrder overfills the ring by one trace and requires
// the oldest evicted and the rest served newest-first.
func TestRingEvictionOrder(t *testing.T) {
	tr := New(Config{})
	const n = DefaultRingSize + 1
	for i := 0; i < n; i++ {
		_, sp := tr.StartRoot(context.Background(), fmt.Sprintf("t%d", i), SpanContext{}, TraceID{})
		sp.End()
	}
	got := tr.Traces(0, 0)
	if len(got) != DefaultRingSize {
		t.Fatalf("ring holds %d traces, want %d", len(got), DefaultRingSize)
	}
	for i := range got {
		if want := fmt.Sprintf("t%d", n-1-i); got[i].Root != want {
			t.Fatalf("Traces()[%d].Root = %q, want %q (newest first, t0 evicted)", i, got[i].Root, want)
		}
	}
}

// TestSampledOutKeptOnErrorOrSlow: with head sampling off, only errored
// traces are kept (the slow threshold left at default is not reached).
func TestSampledOutKeptOnErrorOrSlow(t *testing.T) {
	tr := New(Config{Sample: -1})

	_, ok := tr.StartRoot(context.Background(), "fine", SpanContext{}, TraceID{})
	ok.End()
	if n := len(tr.Traces(0, 0)); n != 0 {
		t.Fatalf("head-sampled-out healthy trace was kept (%d in ring)", n)
	}

	_, bad := tr.StartRoot(context.Background(), "bad", SpanContext{}, TraceID{})
	bad.SetError(errors.New("boom"))
	bad.End()
	got := tr.Traces(0, 0)
	if len(got) != 1 || got[0].Root != "bad" || got[0].Error == "" {
		t.Fatalf("errored trace not tail-kept: %+v", got)
	}
	if got[0].Sampled {
		t.Fatal("tail-kept trace reports Sampled=true")
	}

	// An errored child also keeps the trace.
	ctx, root := tr.StartRoot(context.Background(), "childerr", SpanContext{}, TraceID{})
	_, child := StartSpan(ctx, "phase")
	child.SetError(errors.New("inner"))
	child.End()
	root.End()
	if got := tr.Traces(0, 0); len(got) != 2 || got[0].Root != "childerr" {
		t.Fatalf("trace with errored child not kept: %+v", got)
	}
}

// TestRemoteParentInherited: a root started from an extracted remote
// context joins that trace and records the remote span as parent.
func TestRemoteParentInherited(t *testing.T) {
	tr := New(Config{Sample: -1}) // head-sample nothing locally
	remote := SpanContext{TraceID: TraceID{1, 2, 3}, SpanID: SpanID{4, 5, 6}, Sampled: true}
	ctx, root := tr.StartRoot(context.Background(), "hop", remote, TraceID{})
	if root.TraceIDString() != remote.TraceID.String() {
		t.Fatalf("remote trace ID not inherited: %s", root.TraceIDString())
	}
	_, child := StartSpan(ctx, "phase")
	child.End()
	root.End()
	// remote.Sampled overrides the local never-sample config.
	got := tr.Traces(0, 0)
	if len(got) != 1 {
		t.Fatalf("remotely sampled trace not kept (ring %d)", len(got))
	}
	td := got[0]
	if td.TraceID != remote.TraceID.String() || !td.Sampled {
		t.Fatalf("kept trace %+v does not reflect the remote decision", td)
	}
	var rootData *SpanData
	for i := range td.Spans {
		if td.Spans[i].Name == "hop" {
			rootData = &td.Spans[i]
		}
	}
	if rootData == nil || rootData.ParentID != remote.SpanID.String() {
		t.Fatalf("root span not parented under remote span: %+v", rootData)
	}
}

// TestSpanAttrsEventsAndMinMS covers attributes (last write wins), the
// min_ms filter and the HTTP handler's JSON shape.
func TestSpanAttrsEventsAndMinMS(t *testing.T) {
	tr := New(Config{})
	ctx, root := tr.StartRoot(context.Background(), "req", SpanContext{}, TraceIDFromString("req-1"))
	_, sp := StartSpan(ctx, "search")
	sp.SetAttr("candidates", 41)
	sp.SetAttr("candidates", 42)
	time.Sleep(2 * time.Millisecond)
	sp.End()
	root.End()

	if got := tr.Traces(5*time.Second, 0); len(got) != 0 {
		t.Fatalf("min_ms filter passed a fast trace: %+v", got)
	}
	got := tr.Traces(0, 0)
	if len(got) != 1 || len(got[0].Spans) != 2 {
		t.Fatalf("want 1 trace with 2 spans, got %+v", got)
	}

	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?min_ms=0", nil))
	if rec.Code != 200 {
		t.Fatalf("handler status %d: %s", rec.Code, rec.Body)
	}
	var served []TraceData
	if err := json.Unmarshal(rec.Body.Bytes(), &served); err != nil {
		t.Fatalf("handler body is not a TraceData array: %v\n%s", err, rec.Body)
	}
	if len(served) != 1 || served[0].TraceID != TraceIDFromString("req-1").String() {
		t.Fatalf("served %+v", served)
	}
	var search *SpanData
	for i := range served[0].Spans {
		if served[0].Spans[i].Name == "search" {
			search = &served[0].Spans[i]
		}
	}
	if search == nil {
		t.Fatalf("search span missing: %+v", served[0].Spans)
	}
	if v, ok := search.Attrs["candidates"].(float64); !ok || v != 42 {
		t.Fatalf("attr candidates = %v, want 42 (last write wins)", search.Attrs["candidates"])
	}
	if search.DurationMS <= 0 {
		t.Fatalf("span duration %v not positive", search.DurationMS)
	}

	rec = httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?min_ms=nope", nil))
	if rec.Code != 400 {
		t.Fatalf("bad min_ms returned %d", rec.Code)
	}
}

// TestExportNDJSON: kept traces append one JSON line per span.
func TestExportNDJSON(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Config{Export: &buf})
	ctx, root := tr.StartRoot(context.Background(), "req", SpanContext{}, TraceID{})
	_, sp := StartSpan(ctx, "phase")
	sp.End()
	root.End()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("export wrote %d lines, want 2:\n%s", len(lines), buf.String())
	}
	names := map[string]bool{}
	for _, ln := range lines {
		var es exportSpan
		if err := json.Unmarshal([]byte(ln), &es); err != nil {
			t.Fatalf("export line %q: %v", ln, err)
		}
		if es.TraceID != root.TraceIDString() {
			t.Fatalf("export line trace_id %q != %q", es.TraceID, root.TraceIDString())
		}
		names[es.Name] = true
	}
	if !names["req"] || !names["phase"] {
		t.Fatalf("export lines missing spans: %v", names)
	}
}

// TestMaxSpansCap: spans beyond the cap are dropped and counted on the
// trace, while the root always records.
func TestMaxSpansCap(t *testing.T) {
	tr := New(Config{})
	ctx, root := tr.StartRoot(context.Background(), "req", SpanContext{}, TraceID{})
	for i := 0; i < DefaultMaxSpans+1; i++ {
		_, sp := StartSpan(ctx, "child")
		sp.End()
	}
	root.End()
	got := tr.Traces(0, 0)
	if len(got) != 1 {
		t.Fatalf("ring %d", len(got))
	}
	// The cap admits 512 children and drops the 513th; the root is
	// exempt → 513 recorded spans.
	if len(got[0].Spans) != DefaultMaxSpans+1 || got[0].DroppedSpans != 1 {
		t.Fatalf("spans=%d dropped=%d, want %d/1", len(got[0].Spans), got[0].DroppedSpans, DefaultMaxSpans+1)
	}
}

// TestPhaseHistogramObservesEverySpan: each ended span adds exactly one
// observation of its own duration to hics_phase_seconds under its name —
// in a sampled-out trace, past the span cap, and after the root ended —
// while a repeated End and a nil span add nothing.
func TestPhaseHistogramObservesEverySpan(t *testing.T) {
	const rootPhase, childPhase, latePhase = "test.phase_root", "test.phase_child", "test.phase_late"
	count := func(phase string) int64 { return mPhase.With(phase).Count() }
	root0, child0, late0 := count(rootPhase), count(childPhase), count(latePhase)
	childSum0 := mPhase.With(childPhase).Sum()

	tr := New(Config{Sample: -1, SlowThreshold: -1}) // keep nothing
	ctx, root := tr.StartRoot(context.Background(), rootPhase, SpanContext{}, TraceID{})
	for i := 0; i < DefaultMaxSpans+3; i++ {
		_, sp := StartSpan(ctx, childPhase)
		sp.End()
		sp.End()
	}
	_, late := StartSpan(ctx, latePhase)
	root.End()
	late.End()
	var nilSpan *Span
	nilSpan.End()

	if n := len(tr.Traces(0, 0)); n != 0 {
		t.Fatalf("sampled-out trace kept (%d in ring)", n)
	}
	if d := count(rootPhase) - root0; d != 1 {
		t.Errorf("root phase count moved by %d, want 1", d)
	}
	if d := count(childPhase) - child0; d != DefaultMaxSpans+3 {
		t.Errorf("child phase count moved by %d, want %d (capped spans count too)", d, DefaultMaxSpans+3)
	}
	if d := count(latePhase) - late0; d != 1 {
		t.Errorf("late phase count moved by %d, want 1", d)
	}
	if d := mPhase.With(childPhase).Sum() - childSum0; d <= 0 {
		t.Errorf("child phase sum moved by %v, want > 0", d)
	}
}

// TestEndpoint: request paths map onto the bounded endpoint set, and
// every unknown path collapses into "other".
func TestEndpoint(t *testing.T) {
	for path, want := range map[string]string{
		"/healthz":       "healthz",
		"/score":         "score",
		"/stream":        "stream",
		"/models":        "models",
		"/models/alpha":  "models",
		"/debug/traces":  "debug_traces",
		"/":              "other",
		"/no/such/path":  "other",
		"/score/extra":   "other",
		"/debug/pprof/":  "other",
		"/models-shadow": "other",
	} {
		if got := Endpoint(path); got != want {
			t.Errorf("Endpoint(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestLateSpanDropped: a child ending after the root is dropped rather
// than mutating a shipped trace.
func TestLateSpanDropped(t *testing.T) {
	tr := New(Config{})
	ctx, root := tr.StartRoot(context.Background(), "req", SpanContext{}, TraceID{})
	_, late := StartSpan(ctx, "async")
	root.End()
	late.End()
	got := tr.Traces(0, 0)
	if len(got) != 1 || len(got[0].Spans) != 1 {
		t.Fatalf("late span leaked into the shipped trace: %+v", got)
	}
}

// TestNilSpanSafe: every method on a nil span is a no-op, and StartSpan
// without a root returns the context unchanged.
func TestNilSpanSafe(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "orphan")
	if sp != nil || ctx2 != ctx {
		t.Fatal("StartSpan without a root must be free")
	}
	sp.SetAttr("k", 1)
	sp.SetError(errors.New("x"))
	sp.End()
	if got := sp.TraceIDString(); got != "" {
		t.Fatalf("nil span trace ID %q", got)
	}
	if sp.Context().Valid() {
		t.Fatal("nil span context is valid")
	}
	if ContextWithSpan(ctx, nil) != ctx {
		t.Fatal("ContextWithSpan(nil) must return ctx unchanged")
	}
}

// TestStartSpanNoRootAllocs: the no-op path allocates nothing, the
// guarantee that lets hot code call StartSpan unconditionally.
func TestStartSpanNoRootAllocs(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		_, sp := StartSpan(ctx, "phase")
		sp.SetAttr("k", nil)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("StartSpan without a root allocates %.1f/op, want 0", allocs)
	}
}

// TestForEachPropagation drives span annotation from parallel.ForEach
// workers sharing one request context; run under -race this proves the
// span is safe for fan-out use.
func TestForEachPropagation(t *testing.T) {
	tr := New(Config{})
	ctx, root := tr.StartRoot(context.Background(), "req", SpanContext{}, TraceID{})
	ctxSearch, search := StartSpan(ctx, "search")

	var mu sync.Mutex
	seen := map[string]bool{}
	err := parallel.ForEach(ctxSearch, 64, 8, 4, func(worker, i int) error {
		sp := SpanFromContext(ctxSearch)
		if sp == nil {
			return errors.New("span lost crossing into worker")
		}
		sp.SetAttr("last_index", i)
		mu.Lock()
		seen[sp.TraceIDString()] = true
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || !seen[root.TraceIDString()] {
		t.Fatalf("workers saw trace IDs %v, want exactly %s", seen, root.TraceIDString())
	}
	search.End()
	root.End()
	got := tr.Traces(0, 0)
	if len(got) != 1 {
		t.Fatalf("ring %d", len(got))
	}
	var sd *SpanData
	for i := range got[0].Spans {
		if got[0].Spans[i].Name == "search" {
			sd = &got[0].Spans[i]
		}
	}
	if sd == nil {
		t.Fatal("search span missing from the trace")
	}
	if v, ok := sd.Attrs["last_index"].(int); !ok || v < 0 || v >= 64 {
		t.Fatalf("search span last_index = %v, want a worker's item index in [0, 64)", sd.Attrs["last_index"])
	}
}

// TestSampleDeterministic: the head decision is a pure function of the
// trace ID, and the rate lands near the configured probability.
func TestSampleDeterministic(t *testing.T) {
	id := TraceIDFromString("req-42")
	for i := 0; i < 3; i++ {
		if sampleTrace(id, 0.5) != sampleTrace(id, 0.5) {
			t.Fatal("sampling decision not deterministic")
		}
	}
	kept := 0
	const n = 4000
	for i := 0; i < n; i++ {
		if sampleTrace(TraceIDFromString(fmt.Sprintf("req-%d", i)), 0.25) {
			kept++
		}
	}
	rate := float64(kept) / n
	if rate < 0.18 || rate > 0.32 {
		t.Fatalf("sample rate %.3f far from 0.25", rate)
	}
}
