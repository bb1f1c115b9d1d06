package trace

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestRequestID: a token-shaped inbound X-Request-Id is kept; anything
// else, or none, is replaced by a fresh 16-hex-digit ID.
func TestRequestID(t *testing.T) {
	for _, good := range []string{"a", "req-1.x_Y", strings.Repeat("z", 64)} {
		if got := RequestID(http.Header{"X-Request-Id": {good}}); got != good {
			t.Errorf("inbound %q: got %q", good, got)
		}
	}
	seen := map[string]bool{}
	for _, bad := range []string{"", "has space", "semi;colon", "ünï", strings.Repeat("a", 65)} {
		got := RequestID(http.Header{"X-Request-Id": {bad}})
		if got == bad || len(got) != 16 || !lowerHex(got) || seen[got] {
			t.Errorf("inbound %q: got %q, want a fresh 16-hex-digit ID", bad, got)
		}
		seen[got] = true
	}
}

// TestStatusWriter: the first final status is recorded, a body write
// without one records 200, and informational 1xx headers pass through
// unrecorded.
func TestStatusWriter(t *testing.T) {
	rec := httptest.NewRecorder()
	w := &StatusWriter{ResponseWriter: rec}
	w.WriteHeader(http.StatusContinue)
	if w.Status != 0 {
		t.Fatalf("1xx recorded as status %d", w.Status)
	}
	w.WriteHeader(http.StatusTeapot)
	w.WriteHeader(http.StatusOK)
	if w.Status != http.StatusTeapot {
		t.Fatalf("status %d, want the first final status", w.Status)
	}
	w2 := &StatusWriter{ResponseWriter: httptest.NewRecorder()}
	w2.Write([]byte("x"))
	if w2.Status != http.StatusOK {
		t.Fatalf("implicit status %d, want 200", w2.Status)
	}
	if w.Unwrap() != rec {
		t.Fatal("Unwrap does not return the wrapped writer")
	}
}
