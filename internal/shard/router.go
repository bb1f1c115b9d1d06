package shard

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hics/internal/metrics"
)

// Shard-layer instrumentation. The shard label is an operator-supplied
// backend address — bounded by configuration, never by traffic — so the
// cardinality stays fixed.
var (
	mShardHealthy = metrics.Default.NewGaugeVec("hicsd_shard_healthy",
		"1 while the shard answers its health probe, 0 after the circuit opens (consecutive failures or failed probes).", "shard")
	mShardDraining = metrics.Default.NewGaugeVec("hicsd_shard_draining",
		"1 while the shard reports draining from /healthz, 0 otherwise.", "shard")
	mShardProxied = metrics.Default.NewCounterVec("hicsd_shard_proxied_total",
		"Requests the front proxied, by owning shard and endpoint.", "shard", "endpoint")
	mShardProxyErrors = metrics.Default.NewCounterVec("hicsd_shard_proxy_errors_total",
		"Proxied requests that failed in transport (connection refused, reset mid-stream), by shard.", "shard")
	mShardReroutes = metrics.Default.NewCounter("hicsd_shard_reroutes_total",
		"Sessions routed past the rendezvous owner because it was unhealthy or draining.")
	mShardProbes = metrics.Default.NewCounterVec("hicsd_shard_probes_total",
		"Health probes by shard and result (ok, draining, error).", "shard", "result")
)

// RouterConfig wires a Router.
type RouterConfig struct {
	// Shards are the backend addresses (host:port) of the shard map.
	Shards []string
	// Client performs probe and proxy requests; nil uses a dedicated
	// client with sane streaming defaults (no global timeout — /stream
	// sessions are long-lived).
	Client *http.Client
	// ProbeInterval is the health-probe cadence (default 2s).
	ProbeInterval time.Duration
	// FailThreshold opens a shard's circuit after this many consecutive
	// proxy/transport failures (default 3). A successful probe or proxy
	// closes it again.
	FailThreshold int
	// Logger receives shard state transitions. Nil discards them.
	Logger *slog.Logger
}

// shardState is one backend's tracked health.
type shardState struct {
	healthy  atomic.Bool
	draining atomic.Bool
	fails    atomic.Int64 // consecutive transport failures
}

// Router owns the shard map plus live per-shard health. The front walks
// a key's rendezvous rank order past the shards that are not available:
// those whose circuit is open or that report draining.
type Router struct {
	m      *Map
	client *http.Client
	cfg    RouterConfig
	log    *slog.Logger

	states map[string]*shardState

	mu     sync.Mutex
	cancel context.CancelFunc
	done   chan struct{}
}

// NewRouter builds a router over the given shards. All shards start
// healthy (optimistic: the first probe or failure corrects it); call
// Start to run the background prober.
func NewRouter(cfg RouterConfig) (*Router, error) {
	m, err := NewMap(cfg.Shards)
	if err != nil {
		return nil, err
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 3
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	r := &Router{m: m, client: client, cfg: cfg, log: log, states: map[string]*shardState{}}
	for _, s := range m.Shards() {
		st := &shardState{}
		st.healthy.Store(true)
		r.states[s] = st
		mShardHealthy.With(s).Set(1)
		mShardDraining.With(s).Set(0)
	}
	return r, nil
}

// Map returns the underlying shard map.
func (r *Router) Map() *Map { return r.m }

// Owner returns the rendezvous owner of key, health ignored.
func (r *Router) Owner(key string) string { return r.m.Owner(key) }

// available reports whether shard takes new requests: its circuit is
// closed and it has not reported draining.
func (r *Router) available(shard string) bool {
	st := r.states[shard]
	return st.healthy.Load() && !st.draining.Load()
}

// ReportSuccess records a successful proxied exchange with shard,
// closing its circuit.
func (r *Router) ReportSuccess(shard string) {
	st, ok := r.states[shard]
	if !ok {
		return
	}
	st.fails.Store(0)
	if !st.healthy.Swap(true) {
		mShardHealthy.With(shard).Set(1)
		r.log.Info("shard recovered", "shard", shard)
	}
}

// ReportFailure records a transport failure with shard; FailThreshold
// consecutive failures open the circuit until a probe or success closes
// it.
func (r *Router) ReportFailure(shard string) {
	st, ok := r.states[shard]
	if !ok {
		return
	}
	mShardProxyErrors.With(shard).Inc()
	if st.fails.Add(1) >= int64(r.cfg.FailThreshold) && st.healthy.Swap(false) {
		mShardHealthy.With(shard).Set(0)
		r.log.Warn("shard circuit opened", "shard", shard, "consecutive_failures", st.fails.Load())
	}
}

// MarkDraining records that shard reported draining (from a probe or a
// proxied 503); new sessions route past it until a probe clears it.
func (r *Router) MarkDraining(shard string) {
	st, ok := r.states[shard]
	if !ok {
		return
	}
	if !st.draining.Swap(true) {
		mShardDraining.With(shard).Set(1)
		r.log.Info("shard draining", "shard", shard)
	}
}

// ShardStatus is one backend's health snapshot for the front /healthz.
type ShardStatus struct {
	Shard    string `json:"shard"`
	Healthy  bool   `json:"healthy"`
	Draining bool   `json:"draining"`
}

// Status snapshots every shard's health, sorted by shard name.
func (r *Router) Status() []ShardStatus {
	out := make([]ShardStatus, 0, r.m.Len())
	for _, s := range r.m.Shards() {
		st := r.states[s]
		out = append(out, ShardStatus{Shard: s, Healthy: st.healthy.Load(), Draining: st.draining.Load()})
	}
	return out
}

// Start launches the background health prober. Stop with Close.
func (r *Router) Start() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cancel != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	r.done = make(chan struct{})
	go func() {
		defer close(r.done)
		t := time.NewTicker(r.cfg.ProbeInterval)
		defer t.Stop()
		r.probeAll(ctx)
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				r.probeAll(ctx)
			}
		}
	}()
}

// Close stops the prober.
func (r *Router) Close() {
	r.mu.Lock()
	cancel, done := r.cancel, r.done
	r.cancel = nil
	r.mu.Unlock()
	if cancel != nil {
		cancel()
		<-done
	}
}

// ProbeNow probes every shard once, synchronously, without waiting for
// the next tick.
func (r *Router) ProbeNow(ctx context.Context) { r.probeAll(ctx) }

func (r *Router) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, s := range r.m.Shards() {
		wg.Add(1)
		go func(shard string) {
			defer wg.Done()
			r.probe(ctx, shard)
		}(s)
	}
	wg.Wait()
}

// healthzBody is the slice of the shard /healthz response the prober
// reads.
type healthzBody struct {
	Status string `json:"status"`
}

func (r *Router) probe(ctx context.Context, shard string) {
	ctx, cancel := context.WithTimeout(ctx, r.cfg.ProbeInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+shard+"/healthz", nil)
	if err != nil {
		return
	}
	resp, err := r.client.Do(req)
	if err != nil {
		mShardProbes.With(shard, "error").Inc()
		r.ReportFailure(shard)
		return
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	var h healthzBody
	_ = json.Unmarshal(body, &h)
	st := r.states[shard]
	switch {
	case h.Status == "draining":
		mShardProbes.With(shard, "draining").Inc()
		r.MarkDraining(shard)
		// A draining shard is still alive: transport works, so the
		// circuit stays closed for the sessions it is finishing.
		st.fails.Store(0)
	case resp.StatusCode == http.StatusOK:
		mShardProbes.With(shard, "ok").Inc()
		if st.draining.Swap(false) {
			mShardDraining.With(shard).Set(0)
			r.log.Info("shard drain cleared", "shard", shard)
		}
		r.ReportSuccess(shard)
	default:
		// Alive but not ready (starting, degraded): treat as a probe
		// failure so new sessions avoid it, without the immediacy of a
		// transport error.
		mShardProbes.With(shard, "error").Inc()
		r.ReportFailure(shard)
	}
}
