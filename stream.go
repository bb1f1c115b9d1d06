package hics

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hics/internal/lof"
	"hics/internal/metrics"
	"hics/internal/registry"
	"hics/internal/trace"
)

// Detector-level instrumentation, shared by every stream in the process
// (the hicsd /stream sessions, `hics -stream` and library streams). The
// refit mode label separates the initial cold fit from steady-state
// sync/async replacements, so a scrape can tell warmup cost from
// drift-following cost.
var (
	mDetectorsActive = metrics.Default.NewGauge("hics_stream_detectors_active",
		"Open streaming detectors (New minus Close).")
	mRows = metrics.Default.NewCounter("hics_stream_rows_total",
		"Rows accepted by streaming detectors (validated arrivals).")
	mRefits = metrics.Default.NewCounterVec("hics_stream_refits_total",
		"Completed streaming model fits by mode: the initial cold fit, inline sync refits, background async refits.",
		"mode")
	mRefitFailures = metrics.Default.NewCounter("hics_stream_refit_failures_total",
		"Streaming model fits that returned an error (cancelled async refits during Close excluded).")
)

// StreamOptions configures a sliding-window streaming detector (NewStream,
// Model.NewStream). The zero value is invalid: Window is required and must
// exceed the scorer's neighborhood size.
type StreamOptions struct {
	// Window is the sliding-window size: the number of most recent rows a
	// (re)fit sees. It must exceed the scorer's neighborhood size
	// (Options.MinPts, default 10) — a smaller window cannot carry a full
	// neighborhood.
	Window int
	// RefitEvery re-fits the model over the current window every this
	// many arrivals (once the window is full); 0 never refits, freezing
	// the initial model forever.
	RefitEvery int
	// Async moves refits onto a background goroutine: scoring continues
	// against the previous model until the new one swaps in, so
	// throughput never stalls on a refit — at the price of a
	// scheduling-dependent swap point. Synchronous refits (the default)
	// make the score sequence bit-for-bit deterministic for a given seed
	// and input order. Requires RefitEvery > 0.
	Async bool
	// Workers bounds the goroutines of refits and batch scoring passes;
	// 0 defers to the fit options (cold streams) or the model's setting
	// (warm streams).
	Workers int
	// Logger receives structured refit events (completion with duration,
	// failures) from the detector, including its background async-refit
	// goroutine. Nil discards them. The hicsd /stream endpoint passes a
	// logger annotated with the session's request ID, so refit events
	// stay attributable to the request that triggered them.
	Logger *slog.Logger
}

// validate rejects out-of-range stream options with the offending field
// named; minPts is the effective neighborhood size of the scorer.
func (o StreamOptions) validate(minPts int) error {
	if o.Window <= minPts {
		return fmt.Errorf("hics: StreamOptions.Window must exceed the scorer's neighborhood size, got Window=%d with MinPts=%d", o.Window, minPts)
	}
	if o.RefitEvery < 0 {
		return fmt.Errorf("hics: StreamOptions.RefitEvery must be non-negative, got %d (0 never refits)", o.RefitEvery)
	}
	if o.Async && o.RefitEvery == 0 {
		return fmt.Errorf("hics: StreamOptions.Async requires RefitEvery > 0")
	}
	if o.Workers < 0 {
		return fmt.Errorf("hics: StreamOptions.Workers must be non-negative, got %d (0 selects one worker per CPU)", o.Workers)
	}
	return nil
}

// StreamResult is one scored arrival of a Stream.
type StreamResult struct {
	// Index is the zero-based arrival number of the row.
	Index int `json:"index"`
	// Score is the outlier score against the model current at scoring
	// time; higher means more outlying.
	Score float64 `json:"score"`
	// Refits counts the completed model replacements at scoring time
	// (a cold stream's initial fit does not count).
	Refits int `json:"refits"`
}

// streamModel is the frozen scoring state a stream scores arrivals
// against. *Model satisfies it; tests substitute fakes. Both methods
// score out of sample and agree bit for bit on a row.
type streamModel interface {
	ScoreBatchContext(ctx context.Context, rows [][]float64) ([]float64, error)
	Score(point []float64) (float64, error)
}

// Stream is an online outlier detector over an unbounded row sequence:
// each pushed row is scored against the current frozen model, the last
// Window rows are retained in a ring buffer, and every RefitEvery
// arrivals the model is re-fitted over the window (FitContext on the
// shared worker pool) and swapped atomically.
//
// Synchronous refits run inline on the pushing goroutine, so the model a
// row is scored against is a pure function of the input order. Async
// refits run on a background goroutine under the stream's own lifecycle
// context, so a request deadline cannot abort them; Drain waits for one.
//
// Push must be called from one goroutine (a stream is an ordered
// sequence); the async refit machinery is coordinated internally. Close
// when done, once pushing has stopped.
//
// Every stream reports into the process metrics registry (the
// hics_stream_* series in docs/metrics.md), and each refit runs under a
// stream.refit span, so inside a served request its wall time lands on
// hics_phase_seconds{phase="stream.refit"}.
type Stream struct {
	opts       Options // refit options
	window     int
	refitEvery int
	async      bool
	dims       int // expected row width; 0 until the first arrival
	log        *slog.Logger
	// refitHook replaces FitContext in tests that inject fake models.
	refitHook func(ctx context.Context, window [][]float64) (streamModel, error)

	model  atomic.Pointer[streamModel]
	refits atomic.Int64 // completed model replacements

	// Single-pusher state: owned by the pushing goroutine.
	count    int         // total arrivals
	sinceFit int         // arrivals since the last refit trigger
	buf      [][]float64 // ring buffer, grows to window then wraps
	next     int         // slot the next row overwrites once full

	mu       sync.Mutex
	inflight bool          // an async refit is running
	done     chan struct{} // closed when the in-flight refit finishes
	err      error         // sticky async refit failure
	closed   bool

	baseCtx context.Context // lifecycle context of async refits
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// NewStream starts a cold streaming detector: the first Window arrivals
// are buffered unscored, then the first model is fitted on them with the
// given options and the whole window's scores are flushed in one Push
// result (bit-identical to that model's training scores). After warmup
// every arrival scores immediately.
//
// The scorer must support the fit/score split (FitScorerNames). With
// synchronous refits (StreamOptions.Async false) the entire score
// sequence is a deterministic function of the options (including Seed)
// and the input order, independent of Workers.
func NewStream(opts Options, sopts StreamOptions) (*Stream, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.MinPts < 1 {
		opts.MinPts = lof.DefaultMinPts
	}
	_, scorer, err := opts.methodNames()
	if err != nil {
		return nil, err
	}
	if !registry.ScorerSupportsFit(scorer) {
		return nil, fmt.Errorf("hics: scorer %q cannot fit a streaming model (supported: %s)",
			scorer, strings.Join(registry.FitScorerNames(), ", "))
	}
	if err := sopts.validate(opts.MinPts); err != nil {
		return nil, err
	}
	return newStream(nil, 0, opts, sopts), nil
}

// NewStream starts a warm streaming detector scoring immediately against
// the already-fitted model m; the window fills as rows arrive. Refits
// (when StreamOptions.RefitEvery > 0) reuse the model's method pair,
// MinPts and aggregation, with the library defaults for the search
// parameters (M, Alpha, seed 0) — fit from explicit Options via NewStream
// to control those.
//
// The stream scores through the model without mutating it: m remains
// valid for concurrent use elsewhere (e.g. the hicsd /score endpoint).
func (m *Model) NewStream(sopts StreamOptions) (*Stream, error) {
	if err := sopts.validate(m.minPts); err != nil {
		return nil, err
	}
	opts := Options{
		Search:      m.search,
		Scorer:      m.scorer,
		MinPts:      m.minPts,
		Aggregation: m.agg.String(),
		Workers:     m.workers,
	}
	return newStream(m, m.fp.D, opts, sopts), nil
}

// newStream builds a stream on validated options. A nil model starts it
// cold; dims 0 infers the row width from the first arrival.
func newStream(model streamModel, dims int, opts Options, sopts StreamOptions) *Stream {
	if sopts.Workers > 0 {
		opts.Workers = sopts.Workers
	}
	log := sopts.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Stream{
		opts:       opts,
		window:     sopts.Window,
		refitEvery: sopts.RefitEvery,
		async:      sopts.Async,
		dims:       dims,
		log:        log,
		buf:        make([][]float64, 0, sopts.Window),
		baseCtx:    ctx,
		cancel:     cancel,
	}
	if model != nil {
		s.model.Store(&model)
	}
	mDetectorsActive.Add(1)
	return s
}

// refit fits a replacement model on a window snapshot, oldest row first,
// under a stream.refit span (whose End times it on hics_phase_seconds)
// with structured logging; mode labels the refit counter, the span and
// the log record.
func (s *Stream) refit(ctx context.Context, mode string, window [][]float64) (streamModel, error) {
	// One span per refit — never per row — so a traced /stream session
	// shows its refits as children without touching the zero-alloc row
	// path. Free (nil span) when the session is not traced.
	ctx, span := trace.StartSpan(ctx, "stream.refit")
	span.SetAttr("mode", mode)
	span.SetAttr("window", len(window))
	defer span.End()
	start := time.Now()
	var m streamModel
	var err error
	if s.refitHook != nil {
		m, err = s.refitHook(ctx, window)
	} else {
		m, err = FitContext(ctx, window, s.opts)
	}
	elapsed := time.Since(start)
	if err != nil {
		// An abort during Close is the expected shutdown path; everything
		// else is a failed fit worth counting and logging.
		if s.baseCtx.Err() == nil {
			mRefitFailures.Inc()
			s.log.Warn("stream refit failed", "mode", mode, "window", len(window),
				"duration", elapsed, "error", err)
			span.SetError(err)
		}
		return nil, err
	}
	mRefits.With(mode).Inc()
	s.log.Debug("stream refit complete", "mode", mode, "window", len(window),
		"duration", elapsed)
	return m, nil
}

// Push feeds one arriving row and returns its scored results: none while
// a cold stream warms up, one per arrival afterwards, and a whole
// window's worth on the warmup flush. Rows are validated at the boundary
// — a wrong width or a non-finite value is rejected with the arrival and
// attribute named, without consuming an arrival index.
//
// A cancelled or deadlined ctx makes Push return ctx.Err() promptly; a
// synchronous refit aborted this way is retried at the next refit
// trigger, so the stream survives a deadline and keeps scoring.
func (s *Stream) Push(ctx context.Context, row []float64) ([]StreamResult, error) {
	return s.PushAppend(ctx, row, nil)
}

// PushAppend is the allocation-free form of Push for serving hot paths:
// results for the arrival are appended to out (which may be nil) and the
// extended slice returned. A warm stream appends at most one result per
// call and allocates nothing beyond out's own growth, so a caller
// reusing out[:0] across calls pays zero steady-state allocations. The
// row slice is copied; callers may reuse it.
//
// On error out is returned unchanged, exactly as passed in. A valid
// arrival is still consumed (it counts and stays in the window), so a
// stream recovers from a deadlined refit by pushing on with a fresh
// context.
func (s *Stream) PushAppend(ctx context.Context, row []float64, out []StreamResult) ([]StreamResult, error) {
	s.mu.Lock()
	closed, sticky := s.closed, s.err
	s.mu.Unlock()
	if closed {
		return out, errors.New("stream: detector is closed")
	}
	if sticky != nil {
		return out, sticky
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	idx := s.count
	if len(row) == 0 {
		return out, fmt.Errorf("stream: row %d is empty", idx)
	}
	if s.dims == 0 {
		s.dims = len(row)
	}
	if len(row) != s.dims {
		return out, fmt.Errorf("stream: row %d has %d attributes, want %d", idx, len(row), s.dims)
	}
	for j, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("stream: row %d attribute %d is %v, want a finite value", idx, j, v)
		}
	}
	s.count++
	mRows.Inc()

	cur := s.model.Load()
	if cur == nil {
		// Cold: buffer until the window fills, then fit the first model
		// and flush the whole window's scores (bit-identical to the
		// model's training scores — the rows are its training set). The
		// model is only installed once the flush has been scored, so a
		// fit or scoring failure (e.g. a deadline) leaves the stream
		// cold and the next push retries the whole warmup — no arrival
		// can lose its promised result.
		s.append(row)
		if len(s.buf) < s.window {
			return out, nil
		}
		win := s.chrono(false)
		m, err := s.refit(ctx, "initial", win)
		if err != nil {
			return out, err
		}
		scores, err := m.ScoreBatchContext(ctx, win)
		if err != nil {
			return out, err
		}
		s.model.Store(&m)
		s.sinceFit = 0
		refits := int(s.refits.Load())
		first := s.count - len(scores)
		for i, sc := range scores {
			out = append(out, StreamResult{Index: first + i, Score: sc, Refits: refits})
		}
		return out, nil
	}

	// The row joins the window before scoring: scoring reads only the
	// frozen model, so the order does not affect the score, and it keeps
	// the documented contract that an arrival consumed by a failing push
	// stays in the window.
	s.append(row)
	base := len(out)
	score, err := (*cur).Score(row)
	if err != nil {
		return out, err
	}
	out = append(out, StreamResult{Index: idx, Score: score, Refits: int(s.refits.Load())})
	s.sinceFit++
	if s.refitEvery > 0 && s.sinceFit >= s.refitEvery && len(s.buf) == s.window {
		// Triggers on a part-filled window are deferred (sinceFit keeps
		// accumulating) until enough rows exist to refit on.
		s.sinceFit = 0
		if s.async {
			s.tryAsyncRefit(ctx)
		} else if err := s.syncRefit(ctx); err != nil {
			// The arrival is consumed but its result is withheld: the
			// caller sees the slice it passed in.
			return out[:base], err
		}
	}
	return out, nil
}

// append copies row into the ring buffer, overwriting the oldest row once
// the window is full (the overwritten slot's backing array is reused).
func (s *Stream) append(row []float64) {
	if len(s.buf) < s.window {
		s.buf = append(s.buf, append([]float64(nil), row...))
		return
	}
	copy(s.buf[s.next], row)
	s.next = (s.next + 1) % s.window
}

// chrono assembles the window in arrival order, oldest first. With
// copyRows the rows are deep-copied (required when the snapshot outlives
// the call, i.e. for async refits — the ring slots get overwritten).
func (s *Stream) chrono(copyRows bool) [][]float64 {
	out := make([][]float64, 0, len(s.buf))
	if len(s.buf) < s.window {
		out = append(out, s.buf...)
	} else {
		out = append(out, s.buf[s.next:]...)
		out = append(out, s.buf[:s.next]...)
	}
	if copyRows {
		for i, r := range out {
			out[i] = append([]float64(nil), r...)
		}
	}
	return out
}

// syncRefit refits inline and swaps the model; the pushing goroutine
// carries the cost, keeping the score sequence deterministic.
func (s *Stream) syncRefit(ctx context.Context) error {
	m, err := s.refit(ctx, "sync", s.chrono(false))
	if err != nil {
		return err
	}
	s.model.Store(&m)
	s.refits.Add(1)
	return nil
}

// tryAsyncRefit launches a background refit over a window snapshot,
// unless one is already running (triggers coalesce: the next chance is
// RefitEvery arrivals later). ctx is the triggering push's context,
// used only to link the refit span into the session's trace — the
// refit itself runs under the stream's lifecycle context, so a request
// deadline cannot abort a background fit.
func (s *Stream) tryAsyncRefit(ctx context.Context) {
	s.mu.Lock()
	if s.inflight || s.closed {
		s.mu.Unlock()
		return
	}
	s.inflight = true
	done := make(chan struct{})
	s.done = done
	s.mu.Unlock()

	snap := s.chrono(true)
	rctx := trace.ContextWithSpan(s.baseCtx, trace.SpanFromContext(ctx))
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		m, err := s.refit(rctx, "async", snap)
		s.mu.Lock()
		defer s.mu.Unlock()
		defer close(done)
		s.inflight = false
		if err != nil {
			// A refit aborted by Close is the expected shutdown path, not
			// a stream failure; any other error poisons the stream and
			// surfaces on the next PushAppend (or Drain/Close).
			if s.baseCtx.Err() == nil && s.err == nil {
				s.err = err
			}
			return
		}
		s.model.Store(&m)
		s.refits.Add(1)
	}()
}

// Drain waits until no refit is in flight and reports any background
// refit failure. A no-op for synchronous streams; after a Drain the next
// Push scores against the newest model, so an async stream drained after
// every Push reproduces the synchronous score sequence exactly.
func (s *Stream) Drain(ctx context.Context) error {
	s.mu.Lock()
	done, inflight, sticky := s.done, s.inflight, s.err
	s.mu.Unlock()
	if sticky != nil {
		return sticky
	}
	if !inflight {
		return nil
	}
	select {
	case <-done:
		s.mu.Lock()
		sticky = s.err
		s.mu.Unlock()
		return sticky
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close aborts any in-flight refit, joins the background goroutine and
// reports any background refit failure. Idempotent; do not call
// concurrently with Push.
func (s *Stream) Close() error {
	s.mu.Lock()
	if s.closed {
		sticky := s.err
		s.mu.Unlock()
		return sticky
	}
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
	// The detector counts as active until its refit goroutine is joined.
	mDetectorsActive.Add(-1)
	s.mu.Lock()
	sticky := s.err
	s.mu.Unlock()
	return sticky
}

// Refits returns the number of completed model replacements (a cold
// stream's initial fit does not count). Safe to call concurrently with
// an async refit.
func (s *Stream) Refits() int { return int(s.refits.Load()) }

// Seen returns the number of rows pushed so far.
func (s *Stream) Seen() int { return s.count }

// Warm reports whether the stream holds a scoring model yet (false only
// for a cold stream still filling its first window).
func (s *Stream) Warm() bool { return s.model.Load() != nil }
