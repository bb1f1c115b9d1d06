// Package metrics is the repository's dependency-free instrumentation
// registry: counters, gauges and fixed-bucket latency histograms,
// registered once at package init and rendered in the Prometheus text
// exposition format (version 0.0.4) by the hicsd GET /metrics endpoint.
//
// The package deliberately implements the minimal subset of the
// Prometheus data model the serving layer needs — no client_golang
// dependency, no push, no exemplars:
//
//   - Counter / CounterVec: monotonically increasing int64, optionally
//     partitioned by a fixed label set (e.g. per endpoint and status
//     code).
//   - Gauge: a float64 that goes up and down (active streams, model
//     metadata).
//   - Histogram / HistogramVec: cumulative fixed buckets plus _sum and
//     _count, for span phase timings and client-side row latency.
//
// Every constructor registers into the given Registry and panics on a
// duplicate or malformed name — registration is init-time programmer
// intent, not runtime input. The package-level Default registry is the
// one process-wide instance every instrumented layer (internal/serve,
// the root package's streams, internal/parallel) registers into and
// /metrics serves; tests that need isolation construct their own
// Registry.
//
// All metric types are safe for concurrent use; updates are lock-free
// atomics on the hot path.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Default is the process-wide registry: every instrumented layer
// registers into it at package init, and the hicsd /metrics endpoint
// renders it.
var Default = NewRegistry()

// validName matches the Prometheus metric and label name grammar.
var validName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// DefBuckets are the default latency histogram bounds in seconds,
// matching the Prometheus client convention: sub-10ms resolution for the
// frozen-model scoring path through multi-second buckets for full
// rankings and refits.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// Desc describes one registered metric family — the enumeration the
// docs/metrics.md cross-check test walks.
type Desc struct {
	// Name is the family name as exposed on /metrics.
	Name string
	// Kind is the TYPE line value: "counter", "gauge" or "histogram".
	Kind string
	// Help is the HELP line text.
	Help string
	// Labels are the family's label names, in declaration order (empty
	// for unlabelled metrics).
	Labels []string
}

// Registry holds a set of metric families and renders them in
// registration-independent sorted order.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// family is one named metric with its (possibly labelled) series.
type family struct {
	desc    Desc
	buckets []float64 // histograms only

	mu     sync.Mutex
	series map[string]*series // key: joined label values
	order  []string           // series keys in creation order
}

// series is one (label values → value) cell of a family.
type series struct {
	labels []string // label values, aligned with family.desc.Labels

	count atomic.Int64  // counter value / histogram observation count
	bits  atomic.Uint64 // gauge value / histogram sum, as float64 bits

	bucketN []atomic.Int64 // histogram: per-bucket (non-cumulative) counts
}

// NewRegistry constructs an empty registry. Most callers want Default.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register adds a family, panicking on duplicates or malformed names —
// registration happens at package init, so a failure is a programming
// error the first test run catches.
func (r *Registry) register(desc Desc, buckets []float64) *family {
	if !validName.MatchString(desc.Name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", desc.Name))
	}
	for _, l := range desc.Labels {
		if !validName.MatchString(l) || strings.HasPrefix(l, "__") {
			panic(fmt.Sprintf("metrics: invalid label name %q on %q", l, desc.Name))
		}
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q buckets must increase strictly", desc.Name))
		}
	}
	f := &family{desc: desc, buckets: buckets, series: make(map[string]*series)}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[desc.Name]; dup {
		panic(fmt.Sprintf("metrics: duplicate metric name %q", desc.Name))
	}
	r.families[desc.Name] = f
	return f
}

// delete drops the series for the given label values, so a scrape no
// longer carries it. Used when the labelled object (e.g. a fleet model)
// is unloaded; deleting a nonexistent series is a no-op.
func (f *family) delete(values ...string) {
	if len(values) != len(f.desc.Labels) {
		panic(fmt.Sprintf("metrics: %q takes %d label values, got %d",
			f.desc.Name, len(f.desc.Labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.series[key]; !ok {
		return
	}
	delete(f.series, key)
	for i, k := range f.order {
		if k == key {
			f.order = append(f.order[:i], f.order[i+1:]...)
			break
		}
	}
}

// get returns (creating if needed) the series for the given label values.
func (f *family) get(values ...string) *series {
	if len(values) != len(f.desc.Labels) {
		panic(fmt.Sprintf("metrics: %q takes %d label values, got %d",
			f.desc.Name, len(f.desc.Labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: append([]string(nil), values...)}
		if f.desc.Kind == "histogram" {
			s.bucketN = make([]atomic.Int64, len(f.buckets)+1) // +1: the +Inf bucket
		}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// Counter is a monotonically increasing value.
type Counter struct{ s *series }

// Add increments the counter; negative deltas panic (counters only go
// up — use a Gauge for anything that can fall).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("metrics: counter decrement")
	}
	c.s.count.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.s.count.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.s.count.Load() }

// NewCounter registers an unlabelled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	f := r.register(Desc{Name: name, Kind: "counter", Help: help}, nil)
	return &Counter{s: f.get()}
}

// CounterVec is a counter family partitioned by a fixed label set.
type CounterVec struct{ f *family }

// NewCounterVec registers a labelled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("metrics: counter vec %q needs at least one label (use NewCounter)", name))
	}
	return &CounterVec{f: r.register(Desc{Name: name, Kind: "counter", Help: help, Labels: labels}, nil)}
}

// With returns the counter for the given label values, creating the
// series on first use.
func (v *CounterVec) With(values ...string) *Counter { return &Counter{s: v.f.get(values...)} }

// Delete drops the series for the given label values from the scrape;
// a subsequent With recreates it at zero.
func (v *CounterVec) Delete(values ...string) { v.f.delete(values...) }

// Total sums the family across all label values; tests take deltas
// of it around the traffic they drive.
func (v *CounterVec) Total() int64 {
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	var sum int64
	for _, s := range v.f.series {
		sum += s.count.Load()
	}
	return sum
}

// Gauge is a value that can go up and down.
type Gauge struct{ s *series }

// NewGauge registers an unlabelled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	f := r.register(Desc{Name: name, Kind: "gauge", Help: help}, nil)
	return &Gauge{s: f.get()}
}

// Set stores the value.
func (g *Gauge) Set(v float64) { g.s.bits.Store(math.Float64bits(v)) }

// Add shifts the value by delta (negative to decrement).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.s.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.s.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.s.bits.Load()) }

// GaugeVec is a gauge family partitioned by a fixed label set (e.g. one
// series per served model).
type GaugeVec struct{ f *family }

// NewGaugeVec registers a labelled gauge family.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("metrics: gauge vec %q needs at least one label (use NewGauge)", name))
	}
	return &GaugeVec{f: r.register(Desc{Name: name, Kind: "gauge", Help: help, Labels: labels}, nil)}
}

// With returns the gauge for the given label values, creating the series
// on first use.
func (v *GaugeVec) With(values ...string) *Gauge { return &Gauge{s: v.f.get(values...)} }

// Delete drops the series for the given label values from the scrape;
// a subsequent With recreates it at zero.
func (v *GaugeVec) Delete(values ...string) { v.f.delete(values...) }

// Total sums the family across all label values; tests take deltas
// of it around the traffic they drive.
func (v *GaugeVec) Total() float64 {
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	var sum float64
	for _, s := range v.f.series {
		sum += math.Float64frombits(s.bits.Load())
	}
	return sum
}

// Histogram accumulates observations into cumulative fixed buckets plus
// a running sum and count.
type Histogram struct {
	s       *series
	buckets []float64
}

// NewHistogram registers an unlabelled histogram with the given strictly
// increasing upper bounds (nil selects DefBuckets). A +Inf bucket is
// implicit.
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.register(Desc{Name: name, Kind: "histogram", Help: help}, buckets)
	return &Histogram{s: f.get(), buckets: f.buckets}
}

// HistogramVec is a histogram family partitioned by a fixed label set.
type HistogramVec struct{ f *family }

// NewHistogramVec registers a labelled histogram family (nil buckets
// selects DefBuckets).
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	if len(labels) == 0 {
		panic(fmt.Sprintf("metrics: histogram vec %q needs at least one label (use NewHistogram)", name))
	}
	return &HistogramVec{f: r.register(Desc{Name: name, Kind: "histogram", Help: help, Labels: labels}, buckets)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return &Histogram{s: v.f.get(values...), buckets: v.f.buckets}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.buckets, v) // first bound >= v; len(buckets) = +Inf
	h.s.bucketN[i].Add(1)
	h.s.count.Add(1)
	for {
		old := h.s.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.s.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.s.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.s.bits.Load()) }

// Describe enumerates every registered family, sorted by name.
func (r *Registry) Describe() []Desc {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Desc, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f.desc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format, version 0.0.4: families sorted by name, HELP and TYPE lines,
// one sample line per series (histograms expand to cumulative _bucket
// lines plus _sum and _count). Series order within a family is creation
// order, which is stable for a fixed traffic shape.
func (r *Registry) WritePrometheus(w io.Writer) {
	for _, desc := range r.Describe() {
		r.mu.RLock()
		f := r.families[desc.Name]
		r.mu.RUnlock()
		if desc.Help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", desc.Name, escapeHelp(desc.Help))
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", desc.Name, desc.Kind)
		f.mu.Lock()
		snapshot := make([]*series, 0, len(f.order))
		for _, key := range f.order {
			snapshot = append(snapshot, f.series[key])
		}
		f.mu.Unlock()
		for _, s := range snapshot {
			switch desc.Kind {
			case "counter":
				fmt.Fprintf(w, "%s%s %d\n", desc.Name, labelString(desc.Labels, s.labels, "", 0), s.count.Load())
			case "gauge":
				fmt.Fprintf(w, "%s%s %s\n", desc.Name, labelString(desc.Labels, s.labels, "", 0), formatFloat(math.Float64frombits(s.bits.Load())))
			case "histogram":
				var cum int64
				for i, bound := range f.buckets {
					cum += s.bucketN[i].Load()
					fmt.Fprintf(w, "%s_bucket%s %d\n", desc.Name, labelString(desc.Labels, s.labels, "le", bound), cum)
				}
				cum += s.bucketN[len(f.buckets)].Load()
				fmt.Fprintf(w, "%s_bucket%s %d\n", desc.Name, labelString(desc.Labels, s.labels, "le", math.Inf(1)), cum)
				fmt.Fprintf(w, "%s_sum%s %s\n", desc.Name, labelString(desc.Labels, s.labels, "", 0), formatFloat(math.Float64frombits(s.bits.Load())))
				fmt.Fprintf(w, "%s_count%s %d\n", desc.Name, labelString(desc.Labels, s.labels, "", 0), s.count.Load())
			}
		}
	}
}

// Handler serves the registry as a Prometheus scrape target.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		var b strings.Builder
		r.WritePrometheus(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(b.String()))
	})
}

// labelString renders the {k="v",...} clause, appending an le bound for
// histogram bucket lines (leBound is ignored when leName is empty).
func labelString(names, values []string, leName string, leBound float64) string {
	if len(names) == 0 && leName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		// %q escapes backslash, quote and newline — exactly the
		// exposition-format label-value escaping rules.
		fmt.Fprintf(&b, "%s=%q", n, values[i])
	}
	if leName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", leName, formatFloat(leBound))
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a float the way Prometheus expects: shortest
// round-trip form, with infinities spelled +Inf / -Inf.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp keeps HELP text on one line.
func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}
