package hics

import (
	"context"
	"fmt"
	"log/slog"
	"strings"

	"hics/internal/lof"
	"hics/internal/registry"
	"hics/internal/stream"
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

// Stream is an online outlier detector over an unbounded row sequence:
// each pushed row is scored against the current frozen model, the last
// Window rows are retained, and every RefitEvery arrivals the model is
// re-fitted over the window (FitContext on the shared worker pool) and
// swapped atomically.
//
// Push must be called from one goroutine (a stream is an ordered
// sequence); the async refit machinery is coordinated internally. Close
// when done.
type Stream struct {
	det *stream.Detector
	// rbuf is the internal result scratch PushAppend scores into before
	// converting to StreamResult. Owned by the Push goroutine (a stream
	// is single-pusher by contract), so reuse across calls is safe.
	rbuf []stream.Result
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
	if sopts.Workers > 0 {
		opts.Workers = sopts.Workers
	}
	det, err := stream.New(stream.Config{
		Refit:      refitFunc(opts),
		Window:     sopts.Window,
		RefitEvery: sopts.RefitEvery,
		Async:      sopts.Async,
		Logger:     sopts.Logger,
	})
	if err != nil {
		return nil, err
	}
	return &Stream{det: det}, nil
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
	if sopts.Workers > 0 {
		opts.Workers = sopts.Workers
	}
	var refit stream.RefitFunc
	if sopts.RefitEvery > 0 {
		refit = refitFunc(opts)
	}
	det, err := stream.New(stream.Config{
		Model:      m,
		Refit:      refit,
		Window:     sopts.Window,
		RefitEvery: sopts.RefitEvery,
		Async:      sopts.Async,
		Dims:       m.fp.D,
		Logger:     sopts.Logger,
	})
	if err != nil {
		return nil, err
	}
	return &Stream{det: det}, nil
}

// refitFunc adapts FitContext to the detector's refit hook.
func refitFunc(opts Options) stream.RefitFunc {
	return func(ctx context.Context, window [][]float64) (stream.Model, error) {
		m, err := FitContext(ctx, window, opts)
		if err != nil {
			return nil, err
		}
		return m, nil
	}
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
// reusing out[:0] across calls pays zero steady-state allocations. On
// error out is returned unchanged, exactly as passed in.
func (s *Stream) PushAppend(ctx context.Context, row []float64, out []StreamResult) ([]StreamResult, error) {
	rs, err := s.det.PushAppend(ctx, row, s.rbuf[:0])
	s.rbuf = rs[:0]
	if err != nil || len(rs) == 0 {
		return out, err
	}
	for _, r := range rs {
		out = append(out, StreamResult{Index: r.Index, Score: r.Score, Refits: r.Refits})
	}
	return out, nil
}

// Drain waits until no refit is in flight and reports any background
// refit failure. A no-op for synchronous streams; an async stream drained
// after every Push reproduces the synchronous score sequence exactly.
func (s *Stream) Drain(ctx context.Context) error { return s.det.Drain(ctx) }

// Close aborts any in-flight refit, joins the background goroutine and
// reports any background refit failure. Idempotent; do not call
// concurrently with Push.
func (s *Stream) Close() error { return s.det.Close() }

// Refits returns the number of completed model replacements.
func (s *Stream) Refits() int { return s.det.Refits() }

// Seen returns the number of rows pushed so far.
func (s *Stream) Seen() int { return s.det.Seen() }

// Warm reports whether the stream holds a scoring model yet (false only
// for a cold stream still filling its first window).
func (s *Stream) Warm() bool { return s.det.Warm() }
