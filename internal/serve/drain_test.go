package serve

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hics"
)

// TestStreamDrainMidSession: Drain on a server with an open /stream
// session ends the session with the terminal draining error record —
// after, never instead of, the records already scored — turns /healthz
// into a 503 "draining", and refuses new sessions with Retry-After.
func TestStreamDrainMidSession(t *testing.T) {
	m := fitModel(t)
	srv := New(Config{Model: m, RequestTimeout: time.Minute})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/stream?window=60", pr)
	if err != nil {
		t.Fatal(err)
	}
	respc := make(chan *http.Response, 1)
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			errc <- err
			return
		}
		respc <- resp
	}()

	const scored = 3
	for i := 0; i < scored; i++ {
		if _, err := io.WriteString(pw, "[0.5,0.5,0.5,0.5]\n"); err != nil {
			t.Fatal(err)
		}
	}
	var resp *http.Response
	select {
	case resp = <-respc:
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(10 * time.Second):
		t.Fatal("no streaming response")
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	linec := make(chan string, 8)
	go func() {
		for sc.Scan() {
			linec <- sc.Text()
		}
		close(linec)
	}()
	readLine := func() (string, bool) {
		select {
		case l, ok := <-linec:
			return l, ok
		case <-time.After(10 * time.Second):
			t.Fatal("timed out waiting for a streamed line")
			return "", false
		}
	}
	for i := 0; i < scored; i++ {
		line, ok := readLine()
		if !ok {
			t.Fatalf("stream closed after %d records, want %d", i, scored)
		}
		var rec hics.StreamResult
		if err := json.Unmarshal([]byte(line), &rec); err != nil || rec.Index != i {
			t.Fatalf("record %d: %q (err %v)", i, line, err)
		}
	}

	// Drain with the session blocked mid-read: the terminal record must
	// arrive without the client writing anything further.
	srv.Drain()
	line, ok := readLine()
	if !ok {
		t.Fatal("stream closed without a terminal draining record")
	}
	var rec errorResponse
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("terminal line %q: %v", line, err)
	}
	if rec.Error != DrainingStreamError {
		t.Fatalf("terminal error = %q, want %q", rec.Error, DrainingStreamError)
	}
	if _, ok := <-linec; ok {
		t.Error("line after the terminal draining record")
	}
	pw.Close()

	// Health flips to draining 503 with a Retry-After.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), `"draining"`) {
		t.Fatalf("healthz while draining: %d %s", hr.StatusCode, body)
	}
	if hr.Header.Get("Retry-After") == "" {
		t.Error("healthz while draining: no Retry-After")
	}

	// New sessions are refused up front.
	nr, err := http.Post(ts.URL+"/stream", "application/x-ndjson", strings.NewReader("[0.5,0.5,0.5,0.5]\n"))
	if err != nil {
		t.Fatal(err)
	}
	nbody, _ := io.ReadAll(nr.Body)
	nr.Body.Close()
	if nr.StatusCode != http.StatusServiceUnavailable || nr.Header.Get("Retry-After") == "" {
		t.Fatalf("new stream while draining: %d (Retry-After %q) %s", nr.StatusCode, nr.Header.Get("Retry-After"), nbody)
	}

	// Unary endpoints keep serving through the drain.
	sr, err := http.Post(ts.URL+"/score", "application/json", strings.NewReader(`{"point":[0.5,0.5,0.5,0.5]}`))
	if err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if sr.StatusCode != http.StatusOK {
		t.Fatalf("score while draining: %d, want 200", sr.StatusCode)
	}

	// Drain is idempotent.
	srv.Drain()
}

// TestStreamMaxBytesConfigurable: the session byte cap follows
// Config.StreamMaxBytes, a client ?max_bytes= can lower but not raise
// it, and the exhausted session still self-reports with the explicit
// limit-naming error record.
func TestStreamMaxBytesConfigurable(t *testing.T) {
	m := fitModel(t)
	row := "[0.5,0.5,0.5,0.5]\n"
	srv := httptest.NewServer(New(Config{Model: m, RequestTimeout: time.Minute, StreamMaxBytes: 64}))
	defer srv.Close()

	// Three rows exceed 64 bytes: the session scores what fits and ends
	// with the limit record.
	resp, records, lines := postStream(t, srv, "/stream?window=60", strings.Repeat(row, 6))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	last := lines[len(lines)-1]
	if !strings.Contains(last, "64-byte session limit") {
		t.Fatalf("limit record %q does not name the 64-byte limit", last)
	}
	if len(records) == 0 {
		t.Fatal("no rows scored before the limit")
	}

	// ?max_bytes lowers the cap below the configured limit.
	resp2, _, lines2 := postStream(t, srv, "/stream?window=60&max_bytes=20", strings.Repeat(row, 6))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp2.StatusCode)
	}
	if !strings.Contains(lines2[len(lines2)-1], "20-byte session limit") {
		t.Fatalf("lowered limit record %q does not name the 20-byte limit", lines2[len(lines2)-1])
	}

	// ?max_bytes cannot raise the cap above the configured limit.
	resp3, _, lines3 := postStream(t, srv, "/stream?window=60&max_bytes=1000000", strings.Repeat(row, 6))
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp3.StatusCode)
	}
	if !strings.Contains(lines3[len(lines3)-1], "64-byte session limit") {
		t.Fatalf("raised-cap record %q should still hit the 64-byte limit", lines3[len(lines3)-1])
	}

	// Malformed max_bytes is a 400 before any streaming starts.
	resp4, err := http.Post(srv.URL+"/stream?max_bytes=nope", "application/x-ndjson", strings.NewReader(row))
	if err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusBadRequest {
		t.Fatalf("max_bytes=nope: status %d, want 400", resp4.StatusCode)
	}
}
