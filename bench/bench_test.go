package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"hics"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want bool
	}{{999, false}, {1000, true}, {1009, true}, {100, false}, {5000, true}} {
		if got := tailValid(c.n); got != c.want {
			t.Errorf("tailValid(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p := percentile(xs, 99); p != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten samples beyond it)", p)
	}
	// statistics.quantiles(range(1, 11), n=4) in Python.
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// fakeStream is a /stream handler answering each row with its index and
// the sum of its values as the score, after an optional stall.
type fakeStream struct {
	stallAt   int
	stall     time.Duration
	skipOdd   bool
	refuseAll bool
	// endAfter ends the session with an error record after that many
	// rows; 0 answers every row.
	endAfter int
}

func (f fakeStream) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.refuseAll {
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"quota"}`, http.StatusTooManyRequests)
		return
	}
	rc := http.NewResponseController(w)
	if err := rc.EnableFullDuplex(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusOK)
	sc := bufio.NewScanner(r.Body)
	for i := 0; sc.Scan(); i++ {
		if f.endAfter > 0 && i == f.endAfter {
			fmt.Fprintln(w, `{"error":"context deadline exceeded"}`)
			return
		}
		var row []float64
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			fmt.Fprintf(w, "{\"error\":%q}\n", err.Error())
			return
		}
		if i == f.stallAt {
			time.Sleep(f.stall)
		}
		if f.skipOdd && i%2 == 1 {
			continue
		}
		sum := 0.0
		for _, v := range row {
			sum += v
		}
		fmt.Fprintf(w, "{\"index\":%d,\"score\":%v,\"refits\":0}\n", i, sum)
		_ = rc.Flush()
	}
}

func testSessions(url string, n int, interval time.Duration) []session {
	rows := make([][]float64, n)
	due := make([]time.Duration, n)
	for i := range rows {
		rows[i] = []float64{float64(i), 0.1}
		due[i] = time.Duration(i) * interval
	}
	return []session{{url: url, rows: rows, due: due}}
}

func TestDueTimeLatencyUnderStall(t *testing.T) {
	const (
		n        = 30
		interval = 5 * time.Millisecond
		stallAt  = 10
		stall    = 150 * time.Millisecond
	)
	srv := httptest.NewServer(fakeStream{stallAt: stallAt, stall: stall})
	defer srv.Close()
	sess := testSessions(srv.URL, n, interval)
	results := runSessions(context.Background(), srv.Client(), sess, time.Now().Add(10*time.Millisecond))
	rep := summarize(results, sess, 0)
	if rep.failed != 0 || rep.records != n {
		t.Fatalf("records %d, failed %d; want %d and 0", rep.records, rep.failed, n)
	}
	// The rows written during the stall were sent on time; timed from when
	// they were due, each waited for the rest of the stall.
	for i := stallAt + 1; i < stallAt+5; i++ {
		waited := stall - time.Duration(i-stallAt)*interval
		if got := rep.latencyMS[i]; got < ms(waited)*0.9 {
			t.Errorf("row %d latency %.1f ms, want at least %.1f ms from its due time", i, got, ms(waited))
		}
	}
	if late := slices.Max(rep.lateMS); late > ms(stall)/2 {
		t.Errorf("generator %.1f ms late: the stall held back the writes", late)
	}
	for i, s := range results[0].scores {
		if s != float64(i)+0.1 {
			t.Fatalf("row %d scored %v, want %v", i, s, float64(i)+0.1)
		}
	}
}

func TestRefusedAndMissingAccounting(t *testing.T) {
	refuse := httptest.NewServer(fakeStream{refuseAll: true})
	defer refuse.Close()
	skip := httptest.NewServer(fakeStream{skipOdd: true, stallAt: -1})
	defer skip.Close()
	sess := append(testSessions(refuse.URL, 4, time.Millisecond), testSessions(skip.URL, 10, time.Millisecond)...)
	results := runSessions(context.Background(), http.DefaultClient, sess, time.Now())
	rep := summarize(results, sess, 0)
	if rep.refused != 1 || rep.missing != 5 || rep.records != 5 {
		t.Errorf("refused %d, missing %d, records %d; want 1, 5, 5", rep.refused, rep.missing, rep.records)
	}
	// The refused session's rows were never admitted: the session counts
	// as one failed operation, its rows as none.
	if rep.attempted != 11 || rep.failed != 6 {
		t.Errorf("attempted %d, failed %d; want 11 and 6", rep.attempted, rep.failed)
	}
}

func TestEndedSessionCountsEveryDueRow(t *testing.T) {
	srv := httptest.NewServer(fakeStream{endAfter: 4, stallAt: -1})
	defer srv.Close()
	sess := testSessions(srv.URL, 40, 5*time.Millisecond)
	results := runSessions(context.Background(), srv.Client(), sess, time.Now())
	rep := summarize(results, sess, 0)
	// The server stopped after four rows, so most rows were never written;
	// they are due all the same and count as attempted and missing.
	if results[0].written >= 40 {
		t.Fatalf("the client wrote all %d rows into an ended session", results[0].written)
	}
	if rep.attempted != 40 || rep.records != 4 || rep.missing != 36 || rep.errorRecords != 1 || rep.failed != 37 {
		t.Errorf("attempted %d, records %d, missing %d, error records %d, failed %d; want 40, 4, 36, 1, 37",
			rep.attempted, rep.records, rep.missing, rep.errorRecords, rep.failed)
	}
}

func TestMetricNames(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range catalog {
		// BENCHMARK.json also wants at most 64 characters, the first a
		// letter or a digit.
		if !name.MatchString(d.name) || len(d.name) > 64 || strings.IndexAny(d.name[:1], "_.-") == 0 {
			t.Errorf("metric name %q is malformed", d.name)
		}
		if !unit.MatchString(d.unit) {
			t.Errorf("metric %s has malformed unit %q", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
	}
}

func TestBenchmarkJSONDeclaresCatalog(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var (
		raw map[string]json.RawMessage
		bf  benchmarkFile
	)
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !slices.Equal(keys, want) {
		t.Fatalf("BENCHMARK.json keys %v, want %v", keys, want)
	}
	var e2e, layer []metricDef
	for _, d := range catalog {
		if d.endToEnd {
			e2e = append(e2e, d)
		} else {
			layer = append(layer, d)
		}
	}
	check := func(kind string, got []declaredMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark emits %d", kind, len(got), len(want))
		}
		for i := range min(len(got), len(want)) {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: declared %s (%s), emitted %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
			if got[i].Better != "lower" && got[i].Better != "higher" {
				t.Errorf("%s: better is %q", got[i].Name, got[i].Better)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, e2e)
	check("per_layer", bf.PerLayer, layer)
	var setup float64
	for _, d := range bf.EndToEnd {
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", d.Name)
			continue
		}
		if d.Name == "setup_s" {
			setup = *d.Bound
		}
	}
	for _, d := range bf.EndToEnd {
		if d.Bound != nil && *d.Bound > setup {
			t.Errorf("%s has a larger bound than setup_s", d.Name)
		}
	}
	for _, d := range bf.PerLayer {
		if d.Bound != nil {
			t.Errorf("per-layer metric %s has a bound", d.Name)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q (%q), benchmark %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
	}
}

// tinyFit is a fit workload small enough for a unit test.
var tinyFit = &workload{
	name: "tiny-fit",
	data: dataSpec{train: 300, pool: 40, dims: 4, minDim: 2, maxDim: 2, outliers: 5, seed: 3},
	opts: hics.Options{M: 10, Seed: 1, TopK: 4, Workers: 1},
}

func TestEmittedMetricsAreDeclared(t *testing.T) {
	e, err := newEnvAt("..", t.TempDir(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := runFit(ctx, e, tinyFit, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.metrics.report(true); err != nil || len(res.failures) > 0 {
		t.Errorf("fit run: %v %v", err, res.failures)
	}
	res, err = runFitTraced(ctx, e, tinyFit, 1, newRecorder(tinyFit.name))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.metrics.report(false); err != nil {
		t.Errorf("traced fit run: %v", err)
	}
	// A stream run's own metrics, on a synthetic load.
	load := &loadRun{cpu: time.Second, frontCPU: time.Millisecond, rssMB: 20,
		report: loadReport{latencyMS: []float64{1, 2, 3}, lateMS: []float64{0.1}, openMS: []float64{1}}}
	for _, traced := range []bool{false, true} {
		m := metrics{}
		if traced {
			m = res.metrics
		}
		streamMetrics(m, traced, true, []float64{0.1}, load, 0.9)
		if _, err := m.report(!traced); err != nil {
			t.Errorf("stream run, traced %v: %v", traced, err)
		}
	}
	if _, err := (metrics{"setup_s": 1, "undeclared": 1}).report(true); err == nil {
		t.Error("report accepted an undeclared metric and missing ones")
	}
	if _, err := (metrics{"setup_s": math.NaN()}).report(true); err == nil {
		t.Error("report accepted NaN")
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100}
	for _, c := range []struct {
		change []float64
		better string
		want   string
	}{
		{[]float64{104, 105, 103, 104}, "lower", "same"},
		{[]float64{130, 131, 129, 130}, "lower", "worse"},
		{[]float64{70, 71, 69, 70}, "lower", "better"},
		{[]float64{70, 71, 69, 70}, "higher", "worse"},
		{[]float64{60, 140, 100, 100}, "lower", "unresolved"},
	} {
		if got := judge(base, c.change, c.better, 0.1); got != c.want {
			t.Errorf("judge(%v, %s) = %s, want %s", c.change, c.better, got, c.want)
		}
	}
}
