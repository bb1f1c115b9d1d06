// Package stream implements the sliding-window online outlier detector
// behind hics.NewStream, the hicsd /stream endpoint and `hics -stream`:
// every arriving row is scored against the current frozen model, the last
// Window rows are retained in a ring buffer, and every RefitEvery
// arrivals the model is refitted over the window and swapped atomically.
//
// The package is deliberately model-agnostic: it scores through the Model
// interface and refits through a RefitFunc, so the detector logic is unit
// testable without running the Monte Carlo pipeline, and the hics root
// package can wire it to hics.Model/hics.FitContext without an import
// cycle.
//
// # Refit modes
//
//   - synchronous (Config.Async = false): the refit runs inline on the
//     pushing goroutine, so the model a row is scored against is a pure
//     function of the input order — for a deterministic RefitFunc the
//     whole score sequence is bit-for-bit reproducible.
//   - asynchronous (Config.Async = true): the refit runs on a background
//     goroutine while scoring continues against the previous model;
//     throughput never stalls on a refit, at the price of a
//     scheduling-dependent swap point. Drain waits for an in-flight
//     refit, restoring the synchronous sequence when called after every
//     push.
//
// # Concurrency
//
// PushAppend is single-producer: a stream is an ordered sequence, so
// calls must not be concurrent (the async refit goroutine is coordinated
// internally). Close aborts any in-flight refit and must only be called
// once pushing has stopped.
//
// # Observability
//
// Every detector reports into the process metrics registry
// (internal/metrics): active-detector and accepted-row counts, completed
// refits by mode (initial cold fit, inline sync, background async) and
// refit failures — see docs/metrics.md for the full series reference.
// Each refit runs under a stream.refit span, so inside a served request
// its wall time lands on hics_phase_seconds{phase="stream.refit"}. Config.Logger (optional) receives one
// structured record per refit; callers that serve requests pass a logger
// annotated with the request ID so events from async refit goroutines
// stay attributable to the session that spawned them.
package stream
