// Command hicsload drives synthetic scoring load at a hicsd deployment
// and reports what it sustained: per-row latency percentiles (p50, p90,
// p99, max), throughput in rows per second, error and admission-retry
// counts.
//
// Usage:
//
//	hicsload -target http://host:8080 [-mode stream|score] [-sessions N]
//	         [-rows N] [-rate R] [-dim D] [-model NAME] [-session-key session]
//	         [-key-prefix load] [-seed N] [-max-retries N] [-timeout 5m]
//	         [-trace]
//	hicsload -version
//
// The human summary prints to stderr; stdout carries exactly one JSON
// record of the same numbers, so runs compose into comparison files:
//
//	hicsload -target http://a:8080 ... >> BENCH_baseline.json
//	hicsload -target http://b:8080 ... >> BENCH_candidate.json
//
// In stream mode each of -sessions concurrent NDJSON /stream sessions
// feeds -rows rows (optionally paced to -rate rows/sec) and every row
// is timed from line written to scored record received — the end-to-end
// number a live feed experiences. In score mode each worker issues
// -rows sequential unary /score requests. Sessions bounced with 429
// (an admission quota at work) back off for the server's Retry-After
// and retry under a rotated session key, which a front spreads across
// the shard map; bounces are counted separately from errors, and rows
// written into a bounced attempt are reported as rows_bounced, never as
// rows_sent.
//
// The target may be a standalone hicsd, one shard, or a front — the
// session keys hicsload generates are exactly what the front's
// rendezvous router hashes, so a multi-shard topology spreads the
// sessions without any extra flags.
//
// With -trace every session (stream mode) or request (score mode)
// carries a W3C traceparent minted deterministically from -seed, and
// the summary lists the distinct trace IDs behind the p99-slowest
// measurements — paste one into the target's GET /debug/traces to see
// span-by-span where the time went. Tracing never changes the rows: the
// trace identities draw from a separate random stream.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hics"
	"hics/internal/loadgen"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "hicsload:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr *os.File) error {
	fs := flag.NewFlagSet("hicsload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		target     = fs.String("target", "", "base URL of the hicsd deployment under load (required)")
		mode       = fs.String("mode", "stream", "load shape: stream (concurrent NDJSON sessions) or score (unary requests)")
		sessions   = fs.Int("sessions", 4, "concurrent sessions (stream) or workers (score)")
		rows       = fs.Int("rows", 500, "rows per session (stream) or requests per worker (score)")
		rate       = fs.Float64("rate", 0, "rows per second per session (0 = as fast as the server accepts)")
		dim        = fs.Int("dim", 3, "row width; must match the served model")
		model      = fs.String("model", "", "route to a named model (?model=)")
		sessionKey = fs.String("session-key", "session", "query parameter carrying the session key (what a front routes on)")
		keyPrefix  = fs.String("key-prefix", "load", "prefix of generated session keys")
		seed       = fs.Uint64("seed", 1, "row-generation seed (reproducible load)")
		maxRetries = fs.Int("max-retries", 50, "429 admission retries per session before counting an error")
		timeout    = fs.Duration("timeout", 5*time.Minute, "overall run budget (0 = none)")
		traceOn    = fs.Bool("trace", false, "send a W3C traceparent per session/request and report the p99-slowest trace IDs (look them up at the server's GET /debug/traces)")
		version    = fs.Bool("version", false, "print the version and exit")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: hicsload -target http://host:8080 [-mode stream|score] [-sessions N] [-rows N] [-rate R] [-dim D] [-model NAME] [-session-key session] [-key-prefix load] [-seed N] [-max-retries N] [-timeout 5m] [-trace]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(stdout, "hicsload", hics.Version)
		return nil
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *target == "" {
		fs.Usage()
		return fmt.Errorf("-target is required")
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	rep, err := loadgen.Run(ctx, loadgen.Config{
		Target:     *target,
		Mode:       *mode,
		Sessions:   *sessions,
		Rows:       *rows,
		Rate:       *rate,
		Dim:        *dim,
		Model:      *model,
		KeyParam:   *sessionKey,
		KeyPrefix:  *keyPrefix,
		Seed:       *seed,
		MaxRetries: *maxRetries,
		Trace:      *traceOn,
	})
	if err != nil {
		return err
	}
	fmt.Fprint(stderr, rep.Human())
	enc := json.NewEncoder(stdout)
	return enc.Encode(rep)
}
