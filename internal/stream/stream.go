package stream

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"hics/internal/metrics"
	"hics/internal/trace"
)

// Detector-level instrumentation, shared by every stream in the process
// (the hicsd /stream sessions and `hics -stream` alike). The refit mode
// label separates the initial cold fit from steady-state sync/async
// replacements, so a scrape can tell warmup cost from drift-following
// cost.
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

// Model is the frozen scoring state a detector scores arrivals against.
// *hics.Model satisfies it; tests substitute fakes. Both methods score
// out of sample, must agree bit for bit on a row, and must be safe for
// concurrent use.
type Model interface {
	// ScoreBatchContext scores a cold detector's whole first window.
	ScoreBatchContext(ctx context.Context, rows [][]float64) ([]float64, error)
	// Score scores one warm arrival.
	Score(point []float64) (float64, error)
}

// RefitFunc fits a replacement model on a window snapshot, oldest row
// first. The slice and its rows are only valid for the duration of the
// call and must not be retained. A deterministic RefitFunc makes a
// synchronous-refit detector bit-for-bit reproducible.
type RefitFunc func(ctx context.Context, window [][]float64) (Model, error)

// Config wires a Detector.
type Config struct {
	// Model is the initial frozen model. Nil starts the detector cold:
	// arrivals are buffered unscored until the window fills, then Refit
	// fits the first model and the buffered rows are scored in one flush.
	Model Model
	// Refit fits a replacement model over the current window. Required
	// when Model is nil (the initial fit) or RefitEvery > 0.
	Refit RefitFunc
	// Window is the ring-buffer capacity: the number of most recent rows
	// a refit sees. Must be positive.
	Window int
	// RefitEvery is the refit cadence in arrivals; 0 never refits after
	// the initial model.
	RefitEvery int
	// Async moves refits onto a background goroutine; scoring continues
	// against the previous model until the swap. Requires RefitEvery > 0.
	Async bool
	// Dims fixes the expected row width; 0 infers it from the first
	// arrival.
	Dims int
	// Logger receives structured refit events (start, completion with
	// duration, failure). Nil discards them. Callers that serve requests
	// pass a logger annotated with the request ID, so events from async
	// refit goroutines stay attributable to the session that spawned
	// them.
	Logger *slog.Logger
}

// Result is one scored arrival.
type Result struct {
	// Index is the zero-based arrival number of the row.
	Index int
	// Score is the outlier score against the model current at scoring
	// time; higher means more outlying.
	Score float64
	// Refits is the number of completed model replacements at scoring
	// time (the initial cold fit does not count).
	Refits int
}

// Detector is the sliding-window online outlier detector. Construct with
// New; push rows with PushAppend from one goroutine; Close when done.
type Detector struct {
	window     int
	refitEvery int
	async      bool
	dims       int
	refit      RefitFunc
	log        *slog.Logger

	model  atomic.Pointer[Model]
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

// New validates the configuration and constructs a Detector.
func New(cfg Config) (*Detector, error) {
	if cfg.Window < 1 {
		return nil, fmt.Errorf("stream: Window must be positive, got %d", cfg.Window)
	}
	if cfg.RefitEvery < 0 {
		return nil, fmt.Errorf("stream: RefitEvery must be non-negative, got %d (0 never refits)", cfg.RefitEvery)
	}
	if cfg.Async && cfg.RefitEvery == 0 {
		return nil, errors.New("stream: Async requires RefitEvery > 0")
	}
	if cfg.Refit == nil && cfg.Model == nil {
		return nil, errors.New("stream: a cold detector (no initial Model) needs a Refit function")
	}
	if cfg.Refit == nil && cfg.RefitEvery > 0 {
		return nil, errors.New("stream: RefitEvery > 0 needs a Refit function")
	}
	if cfg.Dims < 0 {
		return nil, fmt.Errorf("stream: Dims must be non-negative, got %d (0 infers the width from the first row)", cfg.Dims)
	}
	ctx, cancel := context.WithCancel(context.Background())
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	d := &Detector{
		window:     cfg.Window,
		refitEvery: cfg.RefitEvery,
		async:      cfg.Async,
		dims:       cfg.Dims,
		refit:      cfg.Refit,
		log:        log,
		buf:        make([][]float64, 0, cfg.Window),
		baseCtx:    ctx,
		cancel:     cancel,
	}
	if cfg.Model != nil {
		m := cfg.Model
		d.model.Store(&m)
	}
	mDetectorsActive.Add(1)
	return d, nil
}

// timedRefit runs the refit function under a stream.refit span (whose
// End times it on hics_phase_seconds) with structured logging; mode
// labels the refit counter, the span and the log record.
func (d *Detector) timedRefit(ctx context.Context, mode string, window [][]float64) (Model, error) {
	// One span per refit — never per row — so a traced /stream session
	// shows its refits as children without touching the zero-alloc row
	// path. Free (nil span) when the session is not traced.
	ctx, span := trace.StartSpan(ctx, "stream.refit")
	span.SetAttr("mode", mode)
	span.SetAttr("window", len(window))
	defer span.End()
	start := time.Now()
	m, err := d.refit(ctx, window)
	elapsed := time.Since(start)
	if err != nil {
		// An abort during Close is the expected shutdown path; everything
		// else is a failed fit worth counting and logging.
		if d.baseCtx.Err() == nil {
			mRefitFailures.Inc()
			d.log.Warn("stream refit failed", "mode", mode, "window", len(window),
				"duration", elapsed, "error", err)
			span.SetError(err)
		}
		return nil, err
	}
	mRefits.With(mode).Inc()
	d.log.Debug("stream refit complete", "mode", mode, "window", len(window),
		"duration", elapsed)
	return m, nil
}

// PushAppend feeds one arriving row and appends its scored results to
// out, returning the extended slice; serving hot paths pass the same
// backing slice on every call and allocate nothing. The row is
// validated (width and finiteness, errors naming the arrival and
// attribute), scored against the current model, appended to the window,
// and — every RefitEvery arrivals on a full window — the model is
// refitted.
//
// A call appends zero results (cold detector still warming up), one
// result (the common case), or a whole window of results (the flush
// after a cold detector's initial fit). The row slice is copied; callers
// may reuse it.
//
// On error out is returned as passed in, and the arrival is still
// consumed (it counts and stays in the window), so a stream can recover
// from a deadlined refit by pushing on with a fresh context. PushAppend
// must not be called concurrently.
func (d *Detector) PushAppend(ctx context.Context, row []float64, out []Result) ([]Result, error) {
	d.mu.Lock()
	closed, sticky := d.closed, d.err
	d.mu.Unlock()
	if closed {
		return out, errors.New("stream: detector is closed")
	}
	if sticky != nil {
		return out, sticky
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	idx := d.count
	if len(row) == 0 {
		return out, fmt.Errorf("stream: row %d is empty", idx)
	}
	if d.dims == 0 {
		d.dims = len(row)
	}
	if len(row) != d.dims {
		return out, fmt.Errorf("stream: row %d has %d attributes, want %d", idx, len(row), d.dims)
	}
	for j, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("stream: row %d attribute %d is %v, want a finite value", idx, j, v)
		}
	}
	d.count++
	mRows.Inc()

	cur := d.model.Load()
	if cur == nil {
		// Cold: buffer until the window fills, then fit the first model
		// and flush the whole window's scores (bit-identical to the
		// model's training scores — the rows are its training set). The
		// model is only installed once the flush has been scored, so a
		// fit or scoring failure (e.g. a deadline) leaves the detector
		// cold and the next push retries the whole warmup — no arrival
		// can lose its promised result.
		d.append(row)
		if len(d.buf) < d.window {
			return out, nil
		}
		win := d.chrono(false)
		m, err := d.timedRefit(ctx, "initial", win)
		if err != nil {
			return out, err
		}
		scores, err := m.ScoreBatchContext(ctx, win)
		if err != nil {
			return out, err
		}
		d.model.Store(&m)
		d.sinceFit = 0
		refits := int(d.refits.Load())
		first := d.count - len(scores)
		for i, s := range scores {
			out = append(out, Result{Index: first + i, Score: s, Refits: refits})
		}
		return out, nil
	}

	// The row joins the window before scoring: scoring reads only the
	// frozen model, so the order does not affect the score, and it keeps
	// the documented contract that an arrival consumed by a failing push
	// stays in the window.
	d.append(row)
	base := len(out)
	score, err := (*cur).Score(row)
	if err != nil {
		return out, err
	}
	out = append(out, Result{Index: idx, Score: score, Refits: int(d.refits.Load())})
	d.sinceFit++
	if d.refitEvery > 0 && d.sinceFit >= d.refitEvery && len(d.buf) == d.window {
		// Triggers on a part-filled window are deferred (sinceFit keeps
		// accumulating) until enough rows exist to refit on.
		d.sinceFit = 0
		if d.async {
			d.tryAsyncRefit(ctx)
		} else if err := d.syncRefit(ctx); err != nil {
			// The arrival is consumed but its result is withheld: the
			// caller sees the slice it passed in.
			return out[:base], err
		}
	}
	return out, nil
}

// append copies row into the ring buffer, overwriting the oldest row once
// the window is full (the overwritten slot's backing array is reused).
func (d *Detector) append(row []float64) {
	if len(d.buf) < d.window {
		d.buf = append(d.buf, append([]float64(nil), row...))
		return
	}
	copy(d.buf[d.next], row)
	d.next = (d.next + 1) % d.window
}

// chrono assembles the window in arrival order, oldest first. With
// copyRows the rows are deep-copied (required when the snapshot outlives
// the call, i.e. for async refits — the ring slots get overwritten).
func (d *Detector) chrono(copyRows bool) [][]float64 {
	out := make([][]float64, 0, len(d.buf))
	if len(d.buf) < d.window {
		out = append(out, d.buf...)
	} else {
		out = append(out, d.buf[d.next:]...)
		out = append(out, d.buf[:d.next]...)
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
func (d *Detector) syncRefit(ctx context.Context) error {
	m, err := d.timedRefit(ctx, "sync", d.chrono(false))
	if err != nil {
		return err
	}
	d.model.Store(&m)
	d.refits.Add(1)
	return nil
}

// tryAsyncRefit launches a background refit over a window snapshot,
// unless one is already running (triggers coalesce: the next chance is
// RefitEvery arrivals later). ctx is the triggering push's context,
// used only to link the refit span into the session's trace — the
// refit itself runs under the detector's lifecycle context, so a
// request deadline cannot abort a background fit.
func (d *Detector) tryAsyncRefit(ctx context.Context) {
	d.mu.Lock()
	if d.inflight || d.closed {
		d.mu.Unlock()
		return
	}
	d.inflight = true
	done := make(chan struct{})
	d.done = done
	d.mu.Unlock()

	snap := d.chrono(true)
	// Carry the session's span (if any) onto the lifecycle context so
	// the async refit appears in the trace while cancellation still
	// follows the detector, not the triggering push.
	rctx := trace.ContextWithSpan(d.baseCtx, trace.SpanFromContext(ctx))
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		m, err := d.timedRefit(rctx, "async", snap)
		d.mu.Lock()
		defer d.mu.Unlock()
		defer close(done)
		d.inflight = false
		if err != nil {
			// A refit aborted by Close is the expected shutdown path, not
			// a stream failure; any other error poisons the stream and
			// surfaces on the next PushAppend (or Drain/Close).
			if d.baseCtx.Err() == nil && d.err == nil {
				d.err = err
			}
			return
		}
		d.model.Store(&m)
		d.refits.Add(1)
	}()
}

// Drain waits until no refit is in flight (a no-op for synchronous
// detectors) and reports any sticky refit failure. After a Drain the next
// PushAppend scores against the newest model, so an async stream drained
// after every push reproduces the synchronous score sequence exactly.
func (d *Detector) Drain(ctx context.Context) error {
	d.mu.Lock()
	done, inflight, sticky := d.done, d.inflight, d.err
	d.mu.Unlock()
	if sticky != nil {
		return sticky
	}
	if !inflight {
		return nil
	}
	select {
	case <-done:
		d.mu.Lock()
		sticky = d.err
		d.mu.Unlock()
		return sticky
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close aborts any in-flight refit, waits for the background goroutine to
// exit, and reports any sticky refit failure. Idempotent; must not be
// called concurrently with PushAppend.
func (d *Detector) Close() error {
	d.mu.Lock()
	if d.closed {
		sticky := d.err
		d.mu.Unlock()
		return sticky
	}
	d.closed = true
	d.mu.Unlock()
	mDetectorsActive.Add(-1)
	d.cancel()
	d.wg.Wait()
	d.mu.Lock()
	sticky := d.err
	d.mu.Unlock()
	return sticky
}

// Refits returns the number of completed model replacements (the initial
// cold fit does not count). Safe to call concurrently with an async
// refit.
func (d *Detector) Refits() int { return int(d.refits.Load()) }

// Seen returns the number of rows pushed so far.
func (d *Detector) Seen() int { return d.count }

// Warm reports whether the detector holds a model yet (false only for a
// cold detector still filling its first window).
func (d *Detector) Warm() bool { return d.model.Load() != nil }

// WindowLen returns the number of rows currently retained.
func (d *Detector) WindowLen() int { return len(d.buf) }
