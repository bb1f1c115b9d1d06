package trace

import (
	cryptorand "crypto/rand"
	"encoding/hex"
	"net/http"
)

// RequestID returns the ID of the request with header h: its inbound
// X-Request-Id when that is 1..64 characters of [0-9A-Za-z._-], so the
// front's ID (or a client's own) survives the hop and every process's
// logs join on one value; a fresh 16-hex-digit ID otherwise. Inbound IDs
// land verbatim in logs and response headers, so arbitrary client bytes
// never pass.
func RequestID(h http.Header) string {
	if id := h.Get("X-Request-Id"); validRequestID(id) {
		return id
	}
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(b[:])
}

func validRequestID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		switch c := id[i]; {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// StatusWriter records the final status a handler wrote, for the
// serving middlewares' request log, span and counters. Informational
// 1xx headers are passed on but not recorded. Unwrap keeps
// http.ResponseController (full duplex, flushing, deadlines) working
// through the wrapper.
type StatusWriter struct {
	http.ResponseWriter
	// Status is the final status written, or 0 when the handler wrote
	// nothing (net/http then sends 200).
	Status int
}

func (w *StatusWriter) WriteHeader(code int) {
	if w.Status == 0 && code >= 200 {
		w.Status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *StatusWriter) Write(b []byte) (int, error) {
	if w.Status == 0 {
		w.Status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *StatusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }
