// Package serve implements the HTTP scoring interface behind the
// cmd/hicsd server: a trained hics.Model exposed as a JSON endpoint. It
// lives outside the command so the examples (and tests) can embed the
// exact handler the daemon serves.
//
// Endpoints:
//
//	GET  /healthz     liveness plus model shape (objects, attributes,
//	                  subspaces)
//	GET  /info        the served model's method pair (searcher, scorer),
//	                  subspace count, persistence format version, and the
//	                  server version string
//	POST /score       score one point ({"point": [...]}) or a batch
//	                  ({"points": [[...], ...]}) against the model
//	POST /rank        run a full deadlined HiCS ranking on posted rows
//	                  ({"rows": [[...], ...], "options": {...}})
//	POST /stream      NDJSON streaming scoring: one JSON row per line in,
//	                  one {"index","score","refits"} record per line out,
//	                  flushed as each row is scored
//	GET  /metrics     Prometheus text exposition (format 0.0.4) of the
//	                  process metrics registry: per-endpoint request
//	                  counters, per-phase span timings, stream and refit
//	                  instrumentation, worker-pool saturation, model
//	                  metadata gauges — every series is documented in
//	                  docs/metrics.md
//
// # Observability
//
// A middleware wraps every endpoint: each request gets a random 16-hex
// request ID (RequestID reads it from the context), a request-scoped
// slog.Logger carrying that ID, a root span named serve.<endpoint> (its
// End is the request's hics_phase_seconds observation), and — on
// completion — a per-endpoint counter increment and one structured log
// record. /stream sessions hand the request-scoped
// logger to their detector, so refit events (including ones emitted by
// a background async-refit goroutine after the triggering push
// returned) remain attributable to the session's request ID.
//
// # Execution policy
//
// Every compute endpoint runs under the request's context: a client
// disconnect cancels the in-flight work (including an open stream), and
// Config.RequestTimeout adds a server-side deadline — a request over
// budget gets 504 (or a terminal NDJSON error record once a stream has
// started) and its Monte Carlo workers stop within one chunk of work.
// The deadline is observed between rows; a stream idling inside a body
// read is bounded by the server's read timeout instead (hicsd derives it
// from the same budget).
//
// The model is immutable after load and Model.Score is safe for
// concurrent use, so the handler needs no locking; each /stream request
// gets its own detector wrapped around the shared model.
package serve
