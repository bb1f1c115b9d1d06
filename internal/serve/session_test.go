package serve

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hics/internal/fleet"
)

// openStream starts a /stream request whose body is a pipe, writes rows
// rows into it in the background, and returns the response once its
// status has arrived, with the pipe for further rows. With rows = 0 the
// status must come before any body byte is sent: that is what lets the
// shard front hold a session's body back until a shard has answered.
func openStream(t *testing.T, client *http.Client, url string, rows int) (*http.Response, *io.PipeWriter) {
	t.Helper()
	pr, pw := io.Pipe()
	t.Cleanup(func() { pw.Close() })
	req, err := http.NewRequest(http.MethodPost, url, pr)
	if err != nil {
		t.Fatal(err)
	}
	respc := make(chan *http.Response, 1)
	errc := make(chan error, 1)
	go func() {
		resp, err := client.Do(req)
		if err != nil {
			errc <- err
			return
		}
		respc <- resp
	}()
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		io.WriteString(pw, strings.Repeat("[0.5,0.5,0.5,0.5]\n", rows))
	}()
	select {
	case resp := <-respc:
		t.Cleanup(func() { resp.Body.Close() })
		<-wrote
		return resp, pw
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: no status after %d rows", url, rows)
	}
	return nil, nil
}

// TestStreamStatusBeforeBody: an accepted session and every refusal
// answer with the body still unsent. A refusal written before full
// duplex is enabled makes net/http read up to 256 KiB of the body before
// it sends the header, which would hang a client that waits for the
// status first.
func TestStreamStatusBeforeBody(t *testing.T) {
	fl := fleet.New(fleet.Config{})
	if err := fl.Restore(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := fl.Put("alpha", fitModelSized(t, 1, 60), fleet.Quota{MaxStreams: 1}, true); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Fleet: fl, RequestTimeout: time.Minute})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close) // runs after the held bodies close

	open, _ := openStream(t, http.DefaultClient, ts.URL+"/stream?window=30", 0)
	if open.StatusCode != http.StatusOK {
		t.Fatalf("held session: status %d, want 200", open.StatusCode)
	}
	for _, c := range []struct {
		query string
		want  int
	}{
		{"max_bytes=nope", http.StatusBadRequest},
		{"model=nosuch", http.StatusNotFound},
		{"window=30", http.StatusTooManyRequests},
	} {
		resp, _ := openStream(t, http.DefaultClient, ts.URL+"/stream?"+c.query, 0)
		if resp.StatusCode != c.want {
			t.Errorf("?%s: status %d, want %d", c.query, resp.StatusCode, c.want)
		}
	}
	srv.Drain()
	resp, _ := openStream(t, http.DefaultClient, ts.URL+"/stream", 0)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("while draining: status %d, want 503", resp.StatusCode)
	}
}

// TestStreamRefusalEagerClient: a client that sends its whole body at
// once still reads a refusal and its JSON error, never a connection
// reset. A refused session's connection closes after the answer, and a
// socket closed with unread bytes is reset, so the server lingers on the
// body first.
func TestStreamRefusalEagerClient(t *testing.T) {
	srv := New(Config{Model: fitModel(t), RequestTimeout: time.Minute})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)                                 // runs after the held bodies close
	body := strings.Repeat("[0.5,0.5,0.5,0.5]\n", 6000) // about 108 KB
	refuse := func(path string, want int) {
		t.Helper()
		for i := 0; i < 10; i++ {
			resp, err := http.Post(ts.URL+path, "application/x-ndjson", strings.NewReader(body))
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			msg, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("%s: reading the refusal: %v", path, err)
			}
			if resp.StatusCode != want || !strings.Contains(string(msg), `"error"`) {
				t.Fatalf("%s: %d %s, want %d with a JSON error", path, resp.StatusCode, msg, want)
			}
		}
	}
	refuse("/stream?max_bytes=nope", http.StatusBadRequest)
	srv.Drain()
	refuse("/stream", http.StatusServiceUnavailable)
}

// TestStreamRequestAfterDrainKick: a keep-alive client's next request
// after a drain-kicked session gets its own answer. The kick leaves the
// session's body unread; a server that kept the connection would parse
// the client's remaining body bytes as the next request and answer it
// 400, and the front's next health probe on a pooled connection read
// exactly that. The client here speaks HTTP/1.1 by hand, so the bytes on
// the wire are fixed: it sends its next request on the same connection
// unless the session's response closed it.
func TestStreamRequestAfterDrainKick(t *testing.T) {
	srv := New(Config{Model: fitModel(t), RequestTimeout: time.Minute})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	row := "[0.5,0.5,0.5,0.5]\n"
	chunk := fmt.Sprintf("%x\r\n%s\r\n", len(row), row)
	fmt.Fprintf(conn, "POST /stream?window=60 HTTP/1.1\r\nHost: hics\r\nTransfer-Encoding: chunked\r\n\r\n%s%s", chunk, chunk)
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	records := bufio.NewReader(resp.Body)
	for i := 0; i < 2; i++ {
		if _, err := records.ReadString('\n'); err != nil {
			t.Fatal(err)
		}
	}
	srv.Drain()
	last, err := records.ReadString('\n')
	if err != nil || !strings.Contains(last, DrainingStreamError) {
		t.Fatalf("terminal line %q (err %v), want the draining record", last, err)
	}
	if _, err := io.Copy(io.Discard, records); err != nil {
		t.Fatal(err)
	}

	// The rest of the body, which the kicked session never reads, then
	// the next request.
	next := "GET /healthz HTTP/1.1\r\nHost: hics\r\n\r\n"
	var hr *http.Response
	if resp.Close {
		hr, err = http.Get(ts.URL + "/healthz")
	} else {
		fmt.Fprintf(conn, "%s0\r\n\r\n%s", chunk, next)
		hr, err = http.ReadResponse(br, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), `"draining"`) {
		t.Fatalf("healthz after the kicked session: %d %s, want 503 draining", hr.StatusCode, body)
	}
}

// TestStreamExpectContinue: a client that holds its body back for
// 100-continue gets it and completes its session. The session's 200
// carries Connection: close, and on a final status with Connection: close
// Go's client drops a body it held back, so the 100 must come first.
func TestStreamExpectContinue(t *testing.T) {
	ts := httptest.NewServer(New(Config{Model: fitModel(t), RequestTimeout: time.Minute}))
	t.Cleanup(ts.Close)
	tr := &http.Transport{ExpectContinueTimeout: time.Minute}
	defer tr.CloseIdleConnections()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/stream?window=60",
		strings.NewReader(strings.Repeat("[0.5,0.5,0.5,0.5]\n", 3)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Expect", "100-continue")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := (&http.Client{Transport: tr}).Do(req.WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("session: %v after %q", err, body)
	}
	if resp.StatusCode != http.StatusOK || strings.Count(string(body), `"score"`) != 3 {
		t.Fatalf("session: %d %s, want 200 with 3 records", resp.StatusCode, body)
	}
}
