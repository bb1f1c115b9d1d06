package hics

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeModel scores a row as gen + sum(row): the generation stamp makes
// model swaps visible in the score sequence.
type fakeModel struct {
	gen float64
}

func (f fakeModel) Score(point []float64) (float64, error) {
	s := f.gen
	for _, v := range point {
		s += v
	}
	return s, nil
}

func (f fakeModel) ScoreBatchContext(_ context.Context, rows [][]float64) ([]float64, error) {
	out := make([]float64, len(rows))
	for i, r := range rows {
		out[i], _ = f.Score(r)
	}
	return out, nil
}

// refitFunc is the signature of Stream.refitHook.
type refitFunc = func(ctx context.Context, window [][]float64) (streamModel, error)

// testStream wires a stream to a fake model (nil starts it cold) and a
// refit hook; dims 0 infers the row width from the first arrival.
func testStream(model streamModel, refit refitFunc, dims int, sopts StreamOptions) *Stream {
	s := newStream(model, dims, Options{}, sopts)
	s.refitHook = refit
	return s
}

// recordingRefit returns a refit hook that captures every window it is
// handed (deep-copied) and produces models with increasing generations.
func recordingRefit(windows *[][][]float64) refitFunc {
	gen := 0.0
	return func(_ context.Context, window [][]float64) (streamModel, error) {
		snap := make([][]float64, len(window))
		for i, r := range window {
			snap[i] = append([]float64(nil), r...)
		}
		*windows = append(*windows, snap)
		gen += 1000
		return fakeModel{gen: gen}, nil
	}
}

func row(v float64) []float64 { return []float64{v, v} }

// TestNewValidation: the stream options are validated once, naming the
// field at fault.
func TestNewValidation(t *testing.T) {
	cases := []struct {
		name  string
		sopts StreamOptions
		want  string
	}{
		{"zero window", StreamOptions{}, "Window"},
		{"negative window", StreamOptions{Window: -3}, "Window"},
		{"negative refit cadence", StreamOptions{Window: 4, RefitEvery: -1}, "RefitEvery"},
		{"async without refits", StreamOptions{Window: 4, Async: true}, "Async"},
	}
	for _, tc := range cases {
		if err := tc.sopts.validate(0); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// TestWarmPushScoresAndSlides checks the basic warm-start flow: one
// result per push, indices counting arrivals, and refits receiving the
// chronologically ordered ring-buffer content.
func TestWarmPushScoresAndSlides(t *testing.T) {
	var windows [][][]float64
	d := testStream(fakeModel{}, recordingRefit(&windows), 0, StreamOptions{Window: 3, RefitEvery: 2})
	defer d.Close()
	ctx := context.Background()
	for i := 0; i < 7; i++ {
		res, err := d.PushAppend(ctx, row(float64(i)), nil)
		if err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
		if len(res) != 1 || res[0].Index != i {
			t.Fatalf("push %d: results %+v", i, res)
		}
	}
	// The trigger at arrival 1 (sinceFit 2) is deferred — the window is
	// not full yet — so the first refit fires at arrival 2 over rows
	// 0..2, then every 2 arrivals: rows 2..4 at arrival 4, rows 4..6 at
	// arrival 6.
	want := [][][]float64{
		{row(0), row(1), row(2)},
		{row(2), row(3), row(4)},
		{row(4), row(5), row(6)},
	}
	if len(windows) != len(want) {
		t.Fatalf("refits = %d windows %v, want %d", len(windows), windows, len(want))
	}
	for k, w := range want {
		for i := range w {
			if windows[k][i][0] != w[i][0] {
				t.Errorf("refit %d window = %v, want %v", k, windows[k], w)
				break
			}
		}
	}
	if d.Refits() != 3 || d.Seen() != 7 || len(d.buf) != 3 {
		t.Errorf("Refits=%d Seen=%d WindowLen=%d", d.Refits(), d.Seen(), len(d.buf))
	}
	// Scores after the third refit carry its generation stamp.
	res, err := d.PushAppend(ctx, row(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Score != 3000 || res[0].Refits != 3 {
		t.Errorf("post-refit result %+v, want score 3000 refits 3", res[0])
	}
}

// TestColdWarmupFlush checks a cold detector buffers silently, then
// flushes the whole first window with scores from the initial fit.
func TestColdWarmupFlush(t *testing.T) {
	var windows [][][]float64
	d := testStream(nil, recordingRefit(&windows), 0, StreamOptions{Window: 3})
	defer d.Close()
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		res, err := d.PushAppend(ctx, row(float64(i)), nil)
		if err != nil || len(res) != 0 {
			t.Fatalf("warmup push %d: res %v err %v, want none", i, res, err)
		}
		if d.Warm() {
			t.Fatalf("detector warm after %d of 3 rows", i+1)
		}
	}
	res, err := d.PushAppend(ctx, row(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("flush = %d results, want 3", len(res))
	}
	for i, r := range res {
		want := 1000 + 2*float64(i) // gen 1000 + sum(row(i))
		if r.Index != i || r.Score != want || r.Refits != 0 {
			t.Errorf("flush[%d] = %+v, want index %d score %v refits 0", i, r, i, want)
		}
	}
	if len(windows) != 1 || !d.Warm() {
		t.Fatalf("initial fit count = %d, warm = %v", len(windows), d.Warm())
	}
	if d.Refits() != 0 {
		t.Errorf("initial cold fit counted as a refit")
	}
}

func TestPushValidation(t *testing.T) {
	d := testStream(fakeModel{}, nil, 2, StreamOptions{Window: 3})
	defer d.Close()
	ctx := context.Background()
	if _, err := d.PushAppend(ctx, nil, nil); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Errorf("empty row: %v", err)
	}
	if _, err := d.PushAppend(ctx, []float64{1}, nil); err == nil || !strings.Contains(err.Error(), "attributes") {
		t.Errorf("short row: %v", err)
	}
	// Rejected rows never enter the stream, so they do not consume an
	// arrival index: this is still row 0.
	if _, err := d.PushAppend(ctx, []float64{1, math.NaN()}, nil); err == nil ||
		!strings.Contains(err.Error(), "row 0") || !strings.Contains(err.Error(), "attribute 1") {
		t.Errorf("NaN row: err = %v, want row/attribute named", err)
	}
	if _, err := d.PushAppend(ctx, []float64{math.Inf(-1), 1}, nil); err == nil || !strings.Contains(err.Error(), "attribute 0") {
		t.Errorf("Inf row: %v", err)
	}
	// A cancelled context never scores.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := d.PushAppend(cctx, row(1), nil); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled push: %v", err)
	}
}

// TestRowCopied verifies the caller can reuse the pushed slice: the ring
// buffer must hold copies.
func TestRowCopied(t *testing.T) {
	var windows [][][]float64
	d := testStream(fakeModel{}, recordingRefit(&windows), 0, StreamOptions{Window: 2, RefitEvery: 2})
	defer d.Close()
	buf := []float64{1, 1}
	for i := 0; i < 2; i++ {
		buf[0], buf[1] = float64(i), float64(i)
		if _, err := d.PushAppend(context.Background(), buf, nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(windows) != 1 {
		t.Fatalf("refits = %d, want 1", len(windows))
	}
	if windows[0][0][0] != 0 || windows[0][1][0] != 1 {
		t.Errorf("refit saw %v: pushed slice was not copied", windows[0])
	}
}

// TestSyncRefitCancellation: a refit that observes its context must
// surface ctx.Err() from PushAppend, and pushing on with a fresh context
// recovers.
func TestSyncRefitCancellation(t *testing.T) {
	blockRefit := func(ctx context.Context, _ [][]float64) (streamModel, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	d := testStream(fakeModel{}, blockRefit, 0, StreamOptions{Window: 2, RefitEvery: 2})
	defer d.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := d.PushAppend(ctx, row(0), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.PushAppend(ctx, row(1), nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("refit-triggering push: err = %v, want deadline exceeded", err)
	}
	// The failed sync refit is not sticky: sinceFit was reset at the
	// trigger, so the next push scores normally with a fresh context.
	if _, err := d.PushAppend(context.Background(), row(2), nil); err != nil {
		t.Fatalf("push after deadlined refit: %v", err)
	}
}

// TestSyncRefitRecovers: after a deadlined refit the stream keeps
// working, and the next trigger with a healthy context succeeds.
func TestSyncRefitRecovers(t *testing.T) {
	fail := true
	refit := func(ctx context.Context, _ [][]float64) (streamModel, error) {
		if fail {
			return nil, context.DeadlineExceeded
		}
		return fakeModel{gen: 1000}, nil
	}
	d := testStream(fakeModel{}, refit, 0, StreamOptions{Window: 2, RefitEvery: 2})
	defer d.Close()
	ctx := context.Background()
	if _, err := d.PushAppend(ctx, row(0), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.PushAppend(ctx, row(1), nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline error from refit, got %v", err)
	}
	fail = false
	// sinceFit was reset at the trigger; two more arrivals re-trigger.
	if _, err := d.PushAppend(ctx, row(2), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.PushAppend(ctx, row(3), nil); err != nil {
		t.Fatal(err)
	}
	if d.Refits() != 1 {
		t.Errorf("Refits = %d after recovery, want 1", d.Refits())
	}
}

// TestAsyncRefitKeepsScoring: with the refit blocked, pushes keep scoring
// against the old model; releasing the refit and draining swaps it in.
func TestAsyncRefitKeepsScoring(t *testing.T) {
	release := make(chan struct{})
	var refitCalls atomic.Int64
	refit := func(ctx context.Context, _ [][]float64) (streamModel, error) {
		refitCalls.Add(1)
		select {
		case <-release:
			return fakeModel{gen: 1000}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	d := testStream(fakeModel{}, refit, 0, StreamOptions{Window: 2, RefitEvery: 2, Async: true})
	defer d.Close()
	ctx := context.Background()
	// Arrival 1 fills the window and triggers the (blocked) async refit;
	// arrivals 2..5 keep scoring on generation 0 (two more triggers
	// coalesce into the in-flight refit).
	for i := 0; i < 6; i++ {
		res, err := d.PushAppend(ctx, row(float64(i)), nil)
		if err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
		if res[0].Score != 2*float64(i) || res[0].Refits != 0 {
			t.Fatalf("push %d scored %+v, want old model (gen 0)", i, res[0])
		}
	}
	// The launch happens on a background goroutine; wait for it, then
	// check the two later triggers coalesced into the in-flight refit.
	for i := 0; i < 500 && refitCalls.Load() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := refitCalls.Load(); n != 1 {
		t.Fatalf("refit launched %d times while blocked, want 1 (coalesced)", n)
	}
	close(release)
	if err := d.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := d.PushAppend(ctx, row(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Score != 1000 || res[0].Refits != 1 {
		t.Errorf("post-drain result %+v, want gen-1000 model, refits 1", res[0])
	}
}

// TestAsyncRefitErrorPoisons: a failed async refit surfaces on the next
// PushAppend and on Close.
func TestAsyncRefitErrorPoisons(t *testing.T) {
	boom := errors.New("refit exploded")
	refit := func(context.Context, [][]float64) (streamModel, error) { return nil, boom }
	d := testStream(fakeModel{}, refit, 0, StreamOptions{Window: 2, RefitEvery: 2, Async: true})
	ctx := context.Background()
	if _, err := d.PushAppend(ctx, row(0), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.PushAppend(ctx, row(1), nil); err != nil { // triggers the failing refit
		t.Fatal(err)
	}
	if err := d.Drain(ctx); !errors.Is(err, boom) {
		t.Fatalf("Drain = %v, want the refit error", err)
	}
	if _, err := d.PushAppend(ctx, row(2), nil); !errors.Is(err, boom) {
		t.Fatalf("PushAppend after failed refit = %v, want the refit error", err)
	}
	if err := d.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want the refit error", err)
	}
}

// TestCloseAbortsInflightRefit: Close cancels a blocked async refit and
// joins its goroutine without recording a sticky error, and no goroutine
// outlives the detector.
func TestCloseAbortsInflightRefit(t *testing.T) {
	before := runtime.NumGoroutine()
	refit := func(ctx context.Context, _ [][]float64) (streamModel, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	d := testStream(fakeModel{}, refit, 0, StreamOptions{Window: 2, RefitEvery: 2, Async: true})
	ctx := context.Background()
	if _, err := d.PushAppend(ctx, row(0), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.PushAppend(ctx, row(1), nil); err != nil { // blocked refit in flight
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close after aborting a refit = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return; the refit was not cancelled")
	}
	if _, err := d.PushAppend(ctx, row(2), nil); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("PushAppend after Close = %v, want closed error", err)
	}
	if err := d.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
	// Give any stray goroutine a moment, then compare counts.
	for i := 0; i < 50 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines %d -> %d: detector leaked", before, after)
	}
}

// TestAsyncDrainedMatchesSync: draining after every push makes the async
// score sequence bit-identical to the synchronous one.
func TestAsyncDrainedMatchesSync(t *testing.T) {
	input := make([][]float64, 20)
	for i := range input {
		input[i] = []float64{float64(i), float64(2 * i)}
	}
	run := func(async bool) []float64 {
		var windows [][][]float64
		d := testStream(fakeModel{}, recordingRefit(&windows), 0, StreamOptions{Window: 4, RefitEvery: 3, Async: async})
		defer d.Close()
		var scores []float64
		for _, r := range input {
			res, err := d.PushAppend(context.Background(), r, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, rr := range res {
				scores = append(scores, rr.Score)
			}
			if async {
				if err := d.Drain(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
		}
		return scores
	}
	sync, asyncDrained := run(false), run(true)
	if len(sync) != len(asyncDrained) {
		t.Fatalf("sync scored %d rows, drained async %d", len(sync), len(asyncDrained))
	}
	for i := range sync {
		if sync[i] != asyncDrained[i] {
			t.Fatalf("score %d: sync %v, drained async %v", i, sync[i], asyncDrained[i])
		}
	}
}

// TestDimsInferredFromFirstRow: without a fixed width (a cold stream has
// none) the first arrival fixes it.
func TestDimsInferredFromFirstRow(t *testing.T) {
	d := testStream(fakeModel{}, nil, 0, StreamOptions{Window: 2})
	defer d.Close()
	if _, err := d.PushAppend(context.Background(), []float64{1, 2, 3}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.PushAppend(context.Background(), []float64{1}, nil); err == nil || !strings.Contains(err.Error(), "want 3") {
		t.Errorf("width mismatch after inference: %v", err)
	}
}

func TestZeroRowStream(t *testing.T) {
	d := testStream(fakeModel{}, nil, 0, StreamOptions{Window: 2})
	if err := d.Drain(context.Background()); err != nil {
		t.Errorf("Drain on idle detector: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Errorf("Close with zero rows: %v", err)
	}
}

// ExampleStream_PushAppend demonstrates the warm-start flow: a stream
// built on a fitted model scores each arrival as soon as it is pushed.
func ExampleStream_PushAppend() {
	d := testStream(fakeModel{}, nil, 0, StreamOptions{Window: 4})
	defer d.Close()
	res, _ := d.PushAppend(context.Background(), []float64{1, 2}, nil)
	fmt.Println(res[0].Index, res[0].Score)
	// Output: 0 3
}
