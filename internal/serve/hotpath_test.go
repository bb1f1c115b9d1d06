package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"hics"
	"hics/internal/race"
	"hics/internal/rng"
	"hics/internal/trace"
)

// TestAppendRowMatchesJSON: every canonical row the fast parser accepts
// must decode to exactly the values encoding/json produces — including
// awkward magnitudes, long mantissas and exponent forms that exercise
// the strconv fallback inside parseNumber.
func TestAppendRowMatchesJSON(t *testing.T) {
	cases := []string{
		"[1,2,3]\n",
		"[0.1, -0.2, 3.25]\n",
		"[-0,0,1e3,1E+3,1e-3]\n",
		"[1.7976931348623157e308,5e-324,2.2250738585072014e-308]\n",
		"[0.30000000000000004,123456789012345678901234567890,1e100]\n",
		"[3.141592653589793, 2.718281828459045]\n",
		"[9007199254740993,9007199254740992]\n", // above/at 2^53: strconv fallback
		"[1e22,1e23,-1e-22,1e-23]\n",
		"[42]\n",
		"  [1,2]  \r\n",
	}
	r := rng.New(7)
	for i := 0; i < 200; i++ {
		row := make([]float64, 1+int(r.Float64()*8))
		for j := range row {
			switch {
			case r.Float64() < 0.2:
				row[j] = math.Trunc(r.NormalScaled(0, 1e6))
			case r.Float64() < 0.5:
				row[j] = r.NormalScaled(0, 1) * math.Pow(10, math.Trunc(r.Float64()*60-30))
			default:
				row[j] = r.Float64()
			}
		}
		data, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, string(data)+"\n")
	}
	for _, line := range cases {
		var want []float64
		if err := json.Unmarshal([]byte(strings.TrimSpace(line)), &want); err != nil {
			t.Fatalf("bad case %q: %v", line, err)
		}
		got, ok := appendRow(nil, []byte(line))
		if !ok {
			t.Fatalf("appendRow rejected canonical line %q", line)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("appendRow(%q) = %v, want %v", line, got, want)
		}
	}
}

// TestAppendRowRejects: inputs that are not canonical single-row lines
// must be refused (so the session falls back to the decoder), never
// mis-parsed.
func TestAppendRowRejects(t *testing.T) {
	for _, line := range []string{
		"", "\n", "[]\n", "[1,]\n", "[,1]\n", "[1 2]\n", "[01]\n", "[-01.5]\n",
		"[1,2] [3]\n", "[1,2],\n", "{\"a\":1}\n", "[\"x\"]\n", "[nan]\n",
		"[NaN]\n", "[Infinity]\n", "[1.]\n", "[.5]\n", "[+1]\n", "[1e]\n",
		"[1,2", "\t[1,2]\n", "[1,2]x\n", "null\n", "[null]\n", "[1,,2]\n",
	} {
		if got, ok := appendRow(nil, []byte(line)); ok {
			t.Errorf("appendRow accepted %q as %v, want rejection", line, got)
		}
	}
}

// TestStreamParserFallback: non-canonical input — pretty-printed arrays,
// several values per line, rows split across lines — must still decode
// with json.Decoder semantics after the permanent fallback, and syntax
// errors must carry the decoder's exact message.
func TestStreamParserFallback(t *testing.T) {
	in := "[1,2]\n[\n  3,\n  4\n]\n[5,6][7,8]\n[9,10]\n"
	p := newStreamParser(strings.NewReader(in))
	var got [][]float64
	for {
		row, err := p.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, append([]float64(nil), row...))
	}
	want := [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, 10}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}

	// A syntax error must be reported with encoding/json's own text.
	bad := "[1,2]\n{\"not\":\"a row\"}\n"
	p = newStreamParser(strings.NewReader(bad))
	if _, err := p.next(); err != nil {
		t.Fatal(err)
	}
	_, gotErr := p.next()
	dec := json.NewDecoder(strings.NewReader(bad))
	var row []float64
	_ = dec.Decode(&row)
	wantErr := dec.Decode(&row)
	if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("fallback error = %v, want json.Decoder's %v", gotErr, wantErr)
	}
}

// TestStreamParserUnterminatedFinalRow: a complete row with no trailing
// newline (EOF cuts the line) still scores, like json.Decoder.
func TestStreamParserUnterminatedFinalRow(t *testing.T) {
	p := newStreamParser(strings.NewReader("[1,2]\n[3,4]"))
	r1, err := p.next()
	if err != nil || !reflect.DeepEqual(r1, []float64{1, 2}) {
		t.Fatalf("first row = %v, %v", r1, err)
	}
	r2, err := p.next()
	if err != nil || !reflect.DeepEqual(r2, []float64{3, 4}) {
		t.Fatalf("final unterminated row = %v, %v", r2, err)
	}
	if _, err := p.next(); err != io.EOF {
		t.Fatalf("after final row: %v, want io.EOF", err)
	}
}

// TestAppendStreamRecordMatchesMarshal: the wire bytes of the append
// encoder must be byte-identical to json.Marshal for every score
// magnitude, including the 'e'-form thresholds and exponent cleanup.
func TestAppendStreamRecordMatchesMarshal(t *testing.T) {
	scores := []float64{
		0, 1, -1, 0.5, 1.75, math.Pi, 1e-6, 9.999e-7, 1e-7, 5e-324,
		1e21, 9.99e20, 1e22, 1.7976931348623157e308, -2.5e-9, 3.3e9,
		0.1, 0.30000000000000004, 123456.789, -0.000125,
	}
	r := rng.New(11)
	for i := 0; i < 500; i++ {
		scores = append(scores, r.NormalScaled(0, 1)*math.Pow(10, math.Trunc(r.Float64()*60-30)))
	}
	var buf []byte
	for i, s := range scores {
		rec := hics.StreamResult{Index: i, Score: s, Refits: i % 3}
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf, err = appendStreamRecord(buf[:0], rec)
		if err != nil {
			t.Fatalf("score %v: %v", s, err)
		}
		if got := strings.TrimSuffix(string(buf), "\n"); got != string(want) {
			t.Fatalf("score %v: encoded %s, want %s", s, got, want)
		}
	}
	// Non-representable scores report json.Marshal's error text.
	for _, s := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		_, gotErr := appendStreamRecord(nil, hics.StreamResult{Score: s})
		_, wantErr := json.Marshal(hics.StreamResult{Score: s})
		if gotErr == nil || wantErr == nil || !strings.Contains(wantErr.Error(), gotErr.Error()) {
			t.Fatalf("score %v: error %q, want json.Marshal's %q", s, gotErr, wantErr)
		}
	}
}

// TestStreamHotPathAllocs: the full per-row cycle — parse the line,
// score through the warm stream, encode the record — must not allocate
// in steady state. This is the allocation budget that makes /stream
// worth sharding: the serving loop adds zero GC pressure per row.
func TestStreamHotPathAllocs(t *testing.T) {
	runHotPathAllocs(t, context.Background())
}

// TestStreamHotPathAllocsTraced: the same budget holds inside a traced
// request. Spans are per-session and per-refit, never per-row, so a
// live sampled span in the context must not cost the hot path a single
// allocation.
func TestStreamHotPathAllocsTraced(t *testing.T) {
	tr := trace.New(trace.Config{})
	ctx, span := tr.StartRoot(context.Background(), "test.hotpath", trace.SpanContext{}, trace.TraceID{})
	defer span.End()
	if trace.SpanFromContext(ctx) == nil {
		t.Fatal("context does not carry the root span")
	}
	runHotPathAllocs(t, ctx)
}

func runHotPathAllocs(t *testing.T, ctx context.Context) {
	t.Helper()
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under -race; the 0-alloc pin runs in non-race builds")
	}
	m := fitModel(t)
	st, err := m.NewStream(hics.StreamOptions{Window: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	line := []byte("[0.31,0.29,0.55,0.45]\n")
	var (
		row     []float64
		results []hics.StreamResult
		encBuf  []byte
	)
	// Warm every reused buffer (ring slots, pools, scratch) first.
	for i := 0; i < 100; i++ {
		var ok bool
		row, ok = appendRow(row[:0], line)
		if !ok {
			t.Fatal("appendRow rejected the warmup line")
		}
		if results, err = st.PushAppend(ctx, row, results[:0]); err != nil {
			t.Fatal(err)
		}
		for _, res := range results {
			if encBuf, err = appendStreamRecord(encBuf[:0], res); err != nil {
				t.Fatal(err)
			}
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		row, _ = appendRow(row[:0], line)
		results, err = st.PushAppend(ctx, row, results[:0])
		if err != nil {
			t.Fatal(err)
		}
		encBuf = encBuf[:0]
		for _, res := range results {
			encBuf, _ = appendStreamRecord(encBuf, res)
		}
	})
	if allocs > 0 {
		t.Fatalf("hot row path allocates %.1f times per row, want 0", allocs)
	}
}

// streamSession drives one /stream session of n rows against srv and
// returns the number of scored lines.
func streamSession(b *testing.B, url string, body []byte, wantLines int) {
	b.Helper()
	resp, err := http.Post(url+"/stream?window=60", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		b.Fatal(err)
	}
	if n := bytes.Count(data, []byte{'\n'}); n != wantLines {
		b.Fatalf("%d lines, want %d (tail: %q)", n, wantLines, tail(data))
	}
}

func tail(b []byte) []byte {
	if len(b) > 200 {
		return b[len(b)-200:]
	}
	return b
}

// BenchmarkStreamServe measures the /stream endpoint end to end over
// real HTTP: one session per iteration, 500 rows per session, reporting
// per-row cost. The refactor target is the per-row serving overhead on
// top of scoring (parse + push + encode + write).
func BenchmarkStreamServe(b *testing.B) {
	r := rng.New(1)
	rows := make([][]float64, 200)
	for i := range rows {
		c := 0.3
		if r.Float64() < 0.5 {
			c = 0.7
		}
		rows[i] = []float64{r.NormalScaled(c, 0.04), r.NormalScaled(c, 0.04), r.Float64(), r.Float64()}
	}
	m, err := hics.Fit(rows, hics.Options{M: 10, Seed: 1, TopK: 5})
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(New(Config{Model: m, RequestTimeout: time.Minute}))
	defer srv.Close()

	const sessionRows = 500
	var body bytes.Buffer
	for i := 0; i < sessionRows; i++ {
		fmt.Fprintf(&body, "[%.6f,%.6f,%.6f,%.6f]\n",
			r.NormalScaled(0.5, 0.1), r.NormalScaled(0.5, 0.1), r.Float64(), r.Float64())
	}
	payload := body.Bytes()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		streamSession(b, srv.URL, payload, sessionRows)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sessionRows), "ns/row")
}

// BenchmarkStreamRowCodec isolates the serving row codec: "hot" is the
// reused-buffer parser + append encoder.
func BenchmarkStreamRowCodec(b *testing.B) {
	line := []byte("[0.312345,0.291234,0.557654,0.443210]\n")
	rec := hics.StreamResult{Index: 123456, Score: 1.0481924561236412, Refits: 3}
	b.Run("hot", func(b *testing.B) {
		b.ReportAllocs()
		var (
			row []float64
			buf []byte
		)
		for i := 0; i < b.N; i++ {
			row, _ = appendRow(row[:0], line)
			buf, _ = appendStreamRecord(buf[:0], rec)
		}
		_, _ = row, buf
	})
}
