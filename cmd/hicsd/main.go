// Command hicsd serves a fleet of trained HiCS models over HTTP —
// standalone, or scaled out horizontally as a shard behind one or more
// routing fronts.
//
// Usage:
//
//	hicsd -model model.hics [-addr :8080] [-request-timeout 1m] [-workers N]
//	      [-stream-window N] [-stream-refit-every N] [-stream-async]
//	      [-stream-max-bytes N] [-max-streams N] [-debug-addr :6060]
//	      [-trace-sample P] [-trace-slow-ms N] [-trace-export FILE]
//	      [-log-format text|json] [-log-level debug|info|warn|error]
//	hicsd -models-dir DIR [-manifest FILE] [-admin-token TOKEN] [...]
//	hicsd -role shard -model model.hics [-drain-announce 3s] [...]
//	hicsd -role front -shards host:port,host:port [-session-key session]
//	      [-probe-interval 2s] [-addr :8080] [-debug-addr :6060] [...]
//	hicsd -version
//
// Roles:
//
//	standalone  (default) one process serves everything — byte-for-byte
//	            the pre-sharding protocol, nothing changes for existing
//	            clients.
//	shard       identical serving behavior, but SIGTERM drains gracefully
//	            for scale-out: /healthz flips to "draining" (503), new
//	            /stream sessions are refused with Retry-After, open
//	            sessions receive a terminal error record after the rows
//	            already scored, and the process waits -drain-announce so
//	            every front's next health probe observes the drain before
//	            the listener closes.
//	front       a stateless routing tier holding no models: it proxies
//	            /stream (full-duplex NDJSON pass-through), /score, /rank
//	            and /info to the shard owning each request's session key
//	            (rendezvous hashing over -shards — deterministic, so any
//	            number of fronts agree without coordination), probes
//	            shard /healthz every -probe-interval, circuit-breaks
//	            failing shards, and reroutes around draining ones. Its
//	            own /healthz aggregates the shard states.
//
// Model files are produced by hics.Model.Save — most conveniently via
// `hics -save-model model.hics data.csv`. With -model the server loads
// one model at startup and serves it under the name "default"; with
// -models-dir it restores the whole fleet recorded in the directory's
// manifest (written by earlier PUT /models/{name} calls) and persists
// runtime model loads there, so a restart restores the fleet. The two
// compose: -model seeds the default before the manifest restore runs.
//
//	GET  /healthz     liveness, readiness (503 while the manifest restore
//	                  is in flight, or while a shard drains) and
//	                  per-model load states
//	GET  /info        method pair (searcher, scorer), subspace count,
//	                  format version, server version; ?model= routes
//	POST /score       {"point": [...]} or {"points": [[...], ...]};
//	                  ?model= routes, default model otherwise
//	POST /rank        {"rows": [[...], ...], "options": {...}} — a full
//	                  deadlined HiCS ranking on the posted rows, admitted
//	                  against the routed model's quota
//	POST /stream      NDJSON streaming scoring: one JSON row per line in,
//	                  one {"index","score","refits"} record per line out,
//	                  flushed as each row is scored; ?window=, ?refit_every=
//	                  and ?async= override the -stream-* defaults; ?model=
//	                  routes; ?max_bytes= lowers (never raises) the
//	                  session byte cap set by -stream-max-bytes
//	GET  /models      the fleet: every model's state, shape and quota
//	GET  /models/{name}    one model's status
//	PUT  /models/{name}    load or hot-swap a model (body = saved model
//	                  file; ?max_concurrent=, ?max_streams=, ?workers=
//	                  set its admission quota, ?default=true routes
//	                  unnamed requests here); in-flight requests finish
//	                  on the old version, new ones see the new
//	DELETE /models/{name}  unload: new requests 404 immediately, in-flight
//	                  ones drain, then the persisted file is removed
//	GET  /metrics     Prometheus text exposition: per-endpoint request
//	                  counters, per-phase span timings, stream/refit
//	                  counters, worker-pool saturation,
//	                  per-model metadata gauges, shard routing state on
//	                  fronts (see docs/metrics.md)
//	GET  /debug/traces  recently completed distributed traces as JSON,
//	                  newest first; ?min_ms= filters by duration,
//	                  ?limit= bounds the count (see docs/operations.md)
//
// -debug-addr starts net/http/pprof on a separate listener — profiling
// never shares the serving port, so it can stay firewalled to operators
// while hicsload drives the public one.
//
// -admin-token locks the mutating management endpoints (PUT/DELETE)
// behind "Authorization: Bearer <token>"; without it they are open,
// which is only appropriate behind a trusted control plane.
//
// Logging is structured (log/slog) on stderr: one record per completed
// request carrying a generated request ID that also tags every event
// the request spawns, including background stream-refit fits.
// -log-format selects text or json, -log-level the minimum severity.
//
// Scoring is out-of-sample against the frozen training state — the
// Monte Carlo subspace search never runs at serving time, so a /score
// round trip costs a handful of neighbor queries per selected subspace.
// /rank does run the full search, which is why every request carries a
// deadline: -request-timeout bounds the server-side compute, a client
// disconnect cancels the in-flight work (including an open stream), and
// -workers caps how many CPUs one request may occupy.
//
// On SIGINT/SIGTERM the server stops accepting connections, drains
// in-flight requests for up to the shutdown grace period, and exits
// cleanly — deploy targets can roll the daemon without dropping accepted
// work. The shard role adds the drain-announce handshake above so a
// front never routes a new session at a closing listener.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hics"
	"hics/internal/fleet"
	"hics/internal/serve"
	"hics/internal/shard"
	"hics/internal/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hicsd:", err)
		os.Exit(1)
	}
}

// shutdownGrace bounds how long a SIGTERM waits for in-flight requests
// before the remaining connections are closed forcefully.
const shutdownGrace = 15 * time.Second

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("hicsd", flag.ContinueOnError)
	var (
		role        = fs.String("role", "standalone", "process role: standalone, shard or front")
		shards      = fs.String("shards", "", "comma-separated shard addresses (host:port,...) the front routes over; required with -role front")
		sessionKey  = fs.String("session-key", "session", "query parameter carrying the routing key on a front (falls back to ?model, then the client IP)")
		probeEvery  = fs.Duration("probe-interval", 2*time.Second, "front health-probe cadence against each shard")
		drainWindow = fs.Duration("drain-announce", shard.DrainAnnounceWindow, "how long a draining shard advertises \"draining\" before closing its listener (shard role)")
		debugAddr   = fs.String("debug-addr", "", "listen address for net/http/pprof on a separate listener (empty = no profiling endpoint)")
		modelPath   = fs.String("model", "", "path to a saved model file, served as the default model")
		modelsDir   = fs.String("models-dir", "", "model fleet directory: restore the manifest at startup, persist runtime model loads")
		manifest    = fs.String("manifest", "", "manifest path override (default <models-dir>/manifest.json)")
		adminToken  = fs.String("admin-token", "", "bearer token required by PUT/DELETE /models/{name} (empty = open)")
		addr        = fs.String("addr", ":8080", "listen address")
		reqTimeout  = fs.Duration("request-timeout", time.Minute, "server-side compute budget per /score, /rank and /stream request (0 = unlimited)")
		workers     = fs.Int("workers", 0, "max goroutines one request may fan out over (0 = one per CPU)")
		streamWin   = fs.Int("stream-window", 0, "default /stream sliding-window size (0 = the model's training-set size)")
		streamRefit = fs.Int("stream-refit-every", 0, "default /stream refit cadence in arrivals (0 = never refit)")
		streamAsync = fs.Bool("stream-async", false, "refit /stream models in the background instead of inline")
		streamMaxB  = fs.Int64("stream-max-bytes", 0, "cumulative input byte cap per /stream session (0 = 64 MiB); clients may lower it with ?max_bytes=")
		maxStreams  = fs.Int("max-streams", 0, "admission cap on concurrently open /stream sessions for the -model default model (0 = unlimited); excess sessions get 429 + Retry-After")
		logFormat   = fs.String("log-format", "text", "structured log encoding on stderr: text or json")
		logLevel    = fs.String("log-level", "info", "minimum log severity: debug, info, warn or error")
		traceSample = fs.Float64("trace-sample", 1, "head-sampling probability for distributed traces in [0,1]; 0 keeps only errored and slow traces; sampled traces are served at GET /debug/traces")
		traceSlowMS = fs.Int("trace-slow-ms", 500, "always keep a trace whose root span runs at least this many milliseconds, regardless of sampling (0 = no slow keep)")
		traceExport = fs.String("trace-export", "", "append every kept span to this file as NDJSON, one JSON object per line (empty = no export)")
		version     = fs.Bool("version", false, "print the version and exit")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: hicsd [-role standalone|shard|front] -model <model file> | -models-dir <dir> | -shards host:port,... [-manifest FILE] [-admin-token TOKEN] [-addr :8080] [-debug-addr :6060] [-request-timeout 1m] [-workers N] [-stream-window N] [-stream-refit-every N] [-stream-async] [-stream-max-bytes N] [-max-streams N] [-session-key session] [-probe-interval 2s] [-drain-announce 3s] [-log-format text|json] [-log-level debug|info|warn|error]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Println("hicsd", hics.Version)
		return nil
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	logger, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		return err
	}
	closeTrace, err := configureTracing(*traceSample, *traceSlowMS, *traceExport)
	if err != nil {
		return err
	}
	defer closeTrace()
	if *debugAddr != "" {
		stopDebug, err := serveDebug(*debugAddr, logger)
		if err != nil {
			return err
		}
		defer stopDebug()
	}
	switch *role {
	case "front":
		if *modelPath != "" || *modelsDir != "" {
			return fmt.Errorf("-role front holds no models: drop -model/-models-dir (shards own them)")
		}
		if *shards == "" {
			return fmt.Errorf("-role front requires -shards host:port,...")
		}
		return runFront(ctx, frontOptions{
			addr:       *addr,
			shards:     splitShards(*shards),
			sessionKey: *sessionKey,
			probeEvery: *probeEvery,
			logger:     logger,
		})
	case "standalone", "shard":
		if *shards != "" {
			return fmt.Errorf("-shards is only meaningful with -role front")
		}
		return runServe(ctx, serveOptions{
			drain:       *role == "shard",
			drainWindow: *drainWindow,
			modelPath:   *modelPath,
			modelsDir:   *modelsDir,
			manifest:    *manifest,
			adminToken:  *adminToken,
			addr:        *addr,
			reqTimeout:  *reqTimeout,
			workers:     *workers,
			streamWin:   *streamWin,
			streamRefit: *streamRefit,
			streamAsync: *streamAsync,
			streamMaxB:  *streamMaxB,
			maxStreams:  *maxStreams,
			logger:      logger,
			usage:       fs.Usage,
		})
	default:
		return fmt.Errorf("-role must be standalone, shard or front, got %q", *role)
	}
}

// configureTracing applies the -trace-* flags to the process tracer.
// The flag surface maps onto trace.Config's sentinels: -trace-sample 0
// means "never head-sample" (Config needs a negative for that; its own
// zero means the sample-everything default), and -trace-slow-ms 0
// disables the slow keep the same way. The returned closer flushes and
// closes the export file, if any.
func configureTracing(sample float64, slowMS int, export string) (func(), error) {
	if sample < 0 || sample > 1 {
		return nil, fmt.Errorf("-trace-sample must be in [0,1], got %v", sample)
	}
	if slowMS < 0 {
		return nil, fmt.Errorf("-trace-slow-ms must be non-negative, got %d (0 disables the slow keep)", slowMS)
	}
	cfg := trace.Config{Sample: sample, SlowThreshold: time.Duration(slowMS) * time.Millisecond}
	if sample == 0 {
		cfg.Sample = -1
	}
	if slowMS == 0 {
		cfg.SlowThreshold = -1
	}
	closer := func() {}
	if export != "" {
		f, err := os.OpenFile(export, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("-trace-export: %w", err)
		}
		cfg.Export = f
		closer = func() { _ = f.Close() }
	}
	trace.Default.Configure(cfg)
	return closer, nil
}

// splitShards parses the -shards list, dropping empty segments.
func splitShards(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// serveDebug starts the pprof endpoint on its own listener and returns
// a closer. A dedicated mux keeps the profiling surface off the serving
// port entirely.
func serveDebug(addr string, logger *slog.Logger) (func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("-debug-addr: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	logger.Info("pprof debug listener up", "addr", ln.Addr().String())
	return func() { _ = srv.Close() }, nil
}

// frontOptions carries the validated front-role configuration.
type frontOptions struct {
	addr       string
	shards     []string
	sessionKey string
	probeEvery time.Duration
	logger     *slog.Logger
}

// runFront serves the stateless routing tier until ctx is cancelled.
func runFront(ctx context.Context, opt frontOptions) error {
	router, err := shard.NewRouter(shard.RouterConfig{
		Shards:        opt.shards,
		ProbeInterval: opt.probeEvery,
		Logger:        opt.logger,
	})
	if err != nil {
		return err
	}
	router.Start()
	defer router.Close()
	front := shard.NewFront(shard.FrontConfig{
		Router:          router,
		SessionKeyParam: opt.sessionKey,
		Logger:          opt.logger,
	})
	ln, err := net.Listen("tcp", opt.addr)
	if err != nil {
		return err
	}
	opt.logger.Info("hicsd front listening",
		"version", hics.Version, "addr", ln.Addr().String(),
		"shards", strings.Join(opt.shards, ","), "probe_interval", opt.probeEvery)
	// No read/write timeouts: proxied /stream sessions are long-lived by
	// design, and the shards enforce their own compute budgets. The
	// header and idle bounds still fence off stuck clients.
	srv := &http.Server{
		Handler:           front,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		opt.logger.Info("shutdown signal received, draining proxied sessions", "grace", shutdownGrace)
		sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			srv.Close()
			return fmt.Errorf("graceful shutdown: %w", err)
		}
		<-errc
		opt.logger.Info("drained, exiting")
		return nil
	}
}

// serveOptions carries the validated standalone/shard-role configuration.
type serveOptions struct {
	drain       bool // shard role: announce the drain before shutdown
	drainWindow time.Duration
	modelPath   string
	modelsDir   string
	manifest    string
	adminToken  string
	addr        string
	reqTimeout  time.Duration
	workers     int
	streamWin   int
	streamRefit int
	streamAsync bool
	streamMaxB  int64
	maxStreams  int
	logger      *slog.Logger
	usage       func()
}

// runServe serves models (standalone or shard role) until ctx is
// cancelled.
func runServe(ctx context.Context, opt serveOptions) error {
	if opt.modelPath == "" && opt.modelsDir == "" {
		opt.usage()
		return fmt.Errorf("at least one of -model and -models-dir is required")
	}
	if opt.manifest != "" && opt.modelsDir == "" {
		return fmt.Errorf("-manifest requires -models-dir")
	}
	if opt.reqTimeout < 0 {
		return fmt.Errorf("-request-timeout must be non-negative, got %v", opt.reqTimeout)
	}
	if opt.workers < 0 {
		return fmt.Errorf("-workers must be non-negative, got %d (0 selects one per CPU)", opt.workers)
	}
	if opt.streamWin < 0 {
		return fmt.Errorf("-stream-window must be non-negative, got %d (0 selects the model's training-set size)", opt.streamWin)
	}
	if opt.streamRefit < 0 {
		return fmt.Errorf("-stream-refit-every must be non-negative, got %d (0 never refits)", opt.streamRefit)
	}
	if opt.streamAsync && opt.streamRefit == 0 {
		return fmt.Errorf("-stream-async requires -stream-refit-every > 0")
	}
	if opt.streamMaxB < 0 {
		return fmt.Errorf("-stream-max-bytes must be non-negative, got %d (0 selects the 64 MiB default)", opt.streamMaxB)
	}
	if opt.maxStreams < 0 {
		return fmt.Errorf("-max-streams must be non-negative, got %d (0 is unlimited)", opt.maxStreams)
	}
	if opt.maxStreams > 0 && opt.modelPath == "" {
		return fmt.Errorf("-max-streams applies to the -model default model; set quotas per model via PUT /models/{name}?max_streams= for a fleet")
	}
	// The fleet behind every endpoint: persisted when -models-dir is set,
	// in-memory otherwise. An explicit -model loads synchronously before
	// anything else — it must be servable by the first request — and wins
	// over a same-named manifest entry.
	fl := fleet.New(fleet.Config{
		Dir:            opt.modelsDir,
		Manifest:       opt.manifest,
		DefaultWorkers: opt.workers,
		Logger:         opt.logger,
	})
	if opt.modelPath != "" {
		m, err := loadModel(opt.modelPath)
		if err != nil {
			return err
		}
		if err := fl.Put(fleet.DefaultName, m, fleet.Quota{MaxStreams: opt.maxStreams}, true); err != nil {
			return err
		}
	}
	if opt.modelsDir != "" {
		// The manifest restore runs behind the listener so a large fleet
		// does not delay the bind; /healthz reports 503 "starting" until
		// it completes. Errors degrade single models, not the server —
		// only a broken manifest is fatal to the restore itself.
		go func() {
			if err := fl.Restore(ctx); err != nil {
				opt.logger.Error("fleet restore failed", "error", err)
				return
			}
			opt.logger.Info("fleet restored", "models", fl.Len(), "default", fl.DefaultModel())
		}()
	} else {
		if err := fl.Restore(ctx); err != nil {
			return err
		}
	}
	ln, err := net.Listen("tcp", opt.addr)
	if err != nil {
		return err
	}
	role := "standalone"
	if opt.drain {
		role = "shard"
	}
	opt.logger.Info("hicsd listening",
		"version", hics.Version, "role", role, "addr", ln.Addr().String(),
		"model", opt.modelPath, "models_dir", opt.modelsDir,
		"admin_auth", opt.adminToken != "")

	// The write and read timeouts must outlast the compute budget, or a
	// request that legitimately uses its whole budget is cut off
	// mid-response — and a /stream session, whose request body is the
	// live NDJSON feed, would be cut off mid-read. An unlimited budget
	// (0) therefore disables both bounds — the header and idle timeouts
	// still fence off slow clients.
	writeTimeout := time.Duration(0)
	if opt.reqTimeout > 0 {
		writeTimeout = opt.reqTimeout + 10*time.Second
		if writeTimeout < time.Minute {
			writeTimeout = time.Minute
		}
	}
	readTimeout := writeTimeout
	handler := serve.New(serve.Config{
		Fleet:            fl,
		AdminToken:       opt.adminToken,
		RequestTimeout:   opt.reqTimeout,
		RankWorkers:      opt.workers,
		StreamWindow:     opt.streamWin,
		StreamRefitEvery: opt.streamRefit,
		StreamAsync:      opt.streamAsync,
		StreamMaxBytes:   opt.streamMaxB,
		Logger:           opt.logger,
	})
	srv := &http.Server{
		Handler: handler,
		// Slow or idle clients must not pin goroutines and descriptors
		// forever: bound the header read, the body read, the response
		// write, and keep-alive idling. The body/response bounds follow
		// the request budget so streams live exactly as long as -request-
		// timeout allows.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		if opt.drain {
			// Shard drain handshake: advertise "draining" on /healthz (so
			// every front's next probe reroutes new sessions), end open
			// streams with their terminal error record, and hold the
			// listener open through the announce window before the real
			// shutdown — a front never routes at a closing listener.
			opt.logger.Info("drain signal received: refusing new sessions, ending open streams", "announce", opt.drainWindow)
			handler.Drain()
			select {
			case <-time.After(opt.drainWindow):
			case err := <-errc:
				return err
			}
		}
		opt.logger.Info("shutdown signal received, draining in-flight requests", "grace", shutdownGrace)
		sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			srv.Close()
			return fmt.Errorf("graceful shutdown: %w", err)
		}
		<-errc // Serve has returned http.ErrServerClosed
		opt.logger.Info("drained, exiting")
		return nil
	}
}

// newLogger builds the process logger from the -log-format and
// -log-level flags; unknown values are rejected naming the flag.
func newLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch level {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("-log-level must be debug, info, warn or error, got %q", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("-log-format must be text or json, got %q", format)
	}
}

// loadModel reads and reassembles a saved model.
func loadModel(path string) (*hics.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := hics.LoadModel(f)
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", path, err)
	}
	return m, nil
}
