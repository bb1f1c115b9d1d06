package shard

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestFrontStreamFailsOverDrainedOwner: a session opened after its owner
// started draining, before any probe saw it, completes on the survivor
// with every row. The owner's 503 arrives before any byte of the body
// reached it, so the front moves the session on, like a unary request.
func TestFrontStreamFailsOverDrainedOwner(t *testing.T) {
	m := testModel(t)
	b1, b2 := newBackend(t, m), newBackend(t, m)
	_, router, ts := newFront(t, b1, b2)
	key := "drained-before-open"
	owning, other := b1, b2
	if router.Owner(key) == b2.addr {
		owning, other = b2, b1
	}
	owning.srv.Drain()

	before := other.streams()
	records, errs := streamRows(t, ts.URL, "session="+key, 12)
	if len(errs) > 0 || len(records) != 12 {
		t.Fatalf("session past the drained owner: %d/12 records, errs %v", len(records), errs)
	}
	for j, rec := range records {
		if rec.Index != j {
			t.Fatalf("record %d has index %d", j, rec.Index)
		}
	}
	if other.streams() != before+1 {
		t.Fatalf("the survivor saw %d sessions, want %d", other.streams(), before+1)
	}
}

// TestFrontSessionEndsBeforeBody: a shard ends a session (here at its
// byte cap) while the client still holds its body open, so the front's
// request to the shard is blocked reading the client's body when the
// shard's answer ends. The client gets the terminal record, newFront's
// server logs no panic, and the same client then gets its own answers,
// unary and streamed.
func TestFrontSessionEndsBeforeBody(t *testing.T) {
	b := newBackend(t, testModel(t))
	_, _, ts := newFront(t, b)
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	pr, pw := io.Pipe()
	defer pw.Close()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/stream?window=60&max_bytes=40&session=cap", pr)
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
	// Three rows pass the 40-byte cap; the client then sends nothing more
	// and keeps its body open.
	if _, err := io.WriteString(pw, strings.Repeat("[0.5,0.5,0.5,0.5]\n", 3)); err != nil {
		t.Fatal(err)
	}
	var resp *http.Response
	select {
	case resp = <-respc:
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(10 * time.Second):
		t.Fatal("no response through the front")
	}
	records, errs := readSession(t, resp.Body)
	resp.Body.Close()
	if len(records) != 2 || len(errs) != 1 || !strings.Contains(errs[0], "40-byte session limit") {
		t.Fatalf("capped session: %d records, errs %v; want 2 and the limit record", len(records), errs)
	}
	pw.Close()

	sr, err := client.Post(ts.URL+"/score?session=cap", "application/json", strings.NewReader(`{"point":[0.5,0.5,0.5,0.5]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(sr.Body)
	sr.Body.Close()
	if sr.StatusCode != http.StatusOK || !strings.Contains(string(body), `"score"`) {
		t.Fatalf("score after the capped session: %d %s", sr.StatusCode, body)
	}
	for i := 0; i < 3; i++ {
		nr, err := client.Post(ts.URL+"/stream?window=60&session=cap", "application/x-ndjson",
			strings.NewReader(strings.Repeat("[0.5,0.5,0.5,0.5]\n", 4)))
		if err != nil {
			t.Fatal(err)
		}
		records, errs := readSession(t, nr.Body)
		nr.Body.Close()
		if nr.StatusCode != http.StatusOK || len(records) != 4 || len(errs) != 0 {
			t.Fatalf("session %d after the capped one: %d, %d records, errs %v", i, nr.StatusCode, len(records), errs)
		}
	}
}

// TestFrontExpectContinue: a client that holds its body back for
// 100-continue completes its session through the front. Both hops answer
// 200 with Connection: close, on which Go's client drops a body it held
// back, so each must send the 100 first.
func TestFrontExpectContinue(t *testing.T) {
	_, _, ts := newFront(t, newBackend(t, testModel(t)))
	tr := &http.Transport{ExpectContinueTimeout: time.Minute}
	defer tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/stream?window=60&session=expect",
		strings.NewReader(strings.Repeat("[0.5,0.5,0.5,0.5]\n", 3)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Expect", "100-continue")
	resp, err := (&http.Client{Transport: tr}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	records, errs := readSession(t, resp.Body)
	if resp.StatusCode != http.StatusOK || len(records) != 3 || len(errs) != 0 {
		t.Fatalf("session: %d, %d records, errs %v; want 200 and 3 records", resp.StatusCode, len(records), errs)
	}
}

// TestFrontRequestID: the front honors a token-shaped inbound
// X-Request-Id and echoes it; anything else is replaced by a minted ID,
// never echoed.
func TestFrontRequestID(t *testing.T) {
	_, _, ts := newFront(t, newBackend(t, testModel(t)))
	get := func(id string) string {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/info", nil)
		if err != nil {
			t.Fatal(err)
		}
		if id != "" {
			req.Header.Set("X-Request-Id", id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/info: status %d", resp.StatusCode)
		}
		return resp.Header.Get("X-Request-Id")
	}
	if got := get("client-req.7_A"); got != "client-req.7_A" {
		t.Errorf("token-shaped inbound ID came back as %q", got)
	}
	for _, bad := range []string{"", "has space", "semi;colon", strings.Repeat("a", 80)} {
		if got := get(bad); got == bad || len(got) != 16 {
			t.Errorf("inbound %q: response ID %q, want a fresh 16-digit ID", bad, got)
		}
	}
}
