// Package fleet is the named-model store behind a multi-model hicsd: a
// concurrency-safe registry of trained hics.Model instances that can be
// loaded, hot-swapped and unloaded at runtime, with per-model admission
// quotas and a persisted JSON manifest so a restart restores the fleet.
//
// # Swap discipline
//
// Every request path resolves its model through Acquire, which returns a
// Handle snapshotting one coherent *hics.Model pointer. Replacing a
// model (Put on an existing name) stores a new pointer atomically — the
// same discipline the streaming refit path uses — so in-flight requests
// keep scoring against the model they started with while new requests
// see the replacement. A response is therefore always computed by
// exactly one model version, old or new, never a torn mix.
//
// # Drain discipline
//
// Each entry carries a reference count of outstanding Handles. Delete
// removes the name from the table immediately (new Acquires fail with
// NotFoundError) and then waits, bounded by its context, for the
// reference count to drain before removing the persisted model file —
// an unload never races in-flight requests.
//
// # Persistence
//
// With Config.Dir set, Put saves the model to <dir>/<name>.hics and
// rewrites <dir>/manifest.json (both atomically: temp file + rename).
// Restore reads the manifest and loads each recorded model; entries
// appear in "loading" state while their files are read, so a readiness
// probe can report a cold fleet, and a file that fails to load leaves a
// "failed" entry that names the error instead of taking the whole fleet
// down.
package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"hics"
	"hics/internal/metrics"
)

// Per-model metadata gauges, labelled by model name. The series for a
// model is deleted when the model is unloaded, so a scrape reflects the
// live fleet.
var (
	mFleetModels = metrics.Default.NewGauge("hicsd_fleet_models",
		"Models currently loaded and ready to serve.")
	mFleetReady = metrics.Default.NewGauge("hicsd_fleet_ready",
		"1 once the manifest restore has completed (the fleet may still be empty), 0 while it is in flight.")
	mModelSubspaces = metrics.Default.NewGaugeVec("hicsd_model_subspaces",
		"Frozen subspace projections per served model.", "model")
	mModelFormatVersion = metrics.Default.NewGaugeVec("hicsd_model_format_version",
		"Persistence format version each served model was loaded from.", "model")
)

// DefaultName is the model name the single-model surface aliases: a
// server started with a lone -model flag serves it under this name, and
// requests that do not route by name resolve to the fleet's default.
const DefaultName = "default"

// validName bounds model names to one path- and label-safe component:
// they become file names under Config.Dir and metric label values.
var validName = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9_.-]{0,63}$`)

// ValidName reports whether name is an acceptable model name: 1-64
// characters, alphanumeric plus "_", ".", "-", starting alphanumeric.
func ValidName(name string) bool { return validName.MatchString(name) }

// Use is the admission class of an Acquire: which quota dimension the
// caller consumes.
type Use int

const (
	// UseMeta reads model metadata (/info, /healthz, listings) — never
	// quota-limited, but still refcounted so unloads drain it.
	UseMeta Use = iota
	// UseRequest is one bounded compute request (/score, /rank),
	// admitted against Quota.MaxConcurrent.
	UseRequest
	// UseStream is one streaming session, admitted against
	// Quota.MaxStreams.
	UseStream
)

// Quota is a model's admission policy. Zero values impose no bound.
type Quota struct {
	// MaxConcurrent caps in-flight compute requests (/score, /rank)
	// against the model; the request over the cap is rejected with a
	// QuotaError (HTTP 429), not queued.
	MaxConcurrent int `json:"max_concurrent,omitempty"`
	// MaxStreams caps concurrently open streaming sessions.
	MaxStreams int `json:"max_streams,omitempty"`
	// Workers bounds the goroutines one request on this model may fan
	// out over (/rank rankings, stream refits, batch scoring); 0 defers
	// to the server-wide bound.
	Workers int `json:"workers,omitempty"`
}

// NotFoundError reports a model name with no fleet entry.
type NotFoundError struct{ Name string }

func (e *NotFoundError) Error() string {
	if e.Name == "" {
		return "fleet: no default model is configured"
	}
	return fmt.Sprintf("fleet: model %q not found", e.Name)
}

// NotReadyError reports an entry that exists but cannot serve: its file
// is still loading, or its last load failed.
type NotReadyError struct {
	Name string
	// State is the entry state ("loading" or "failed").
	State string
	// Err is the load failure for failed entries, nil while loading.
	Err error
}

func (e *NotReadyError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("fleet: model %q failed to load: %v", e.Name, e.Err)
	}
	return fmt.Sprintf("fleet: model %q is still loading", e.Name)
}

// QuotaError reports an admission rejection: the model's quota for the
// requested use is exhausted.
type QuotaError struct {
	Name string
	// Kind is the exhausted dimension: "request" or "stream".
	Kind string
	// Limit is the configured cap that was hit.
	Limit int
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("fleet: model %q is at its %s quota (%d)", e.Name, e.Kind, e.Limit)
}

// Entry states.
const (
	StateLoading = "loading"
	StateReady   = "ready"
	StateFailed  = "failed"
)

// entry is one named slot of the fleet. The model pointer is swapped
// atomically on replacement; counters are atomics so admission never
// takes the fleet lock on the hot path.
type entry struct {
	name string

	model atomic.Pointer[hics.Model]
	quota atomic.Pointer[Quota]

	state   atomic.Pointer[string] // StateLoading / StateReady / StateFailed
	loadErr atomic.Pointer[error]  // set when state is StateFailed

	refs     atomic.Int64 // outstanding Handles
	requests atomic.Int64 // admitted UseRequest handles
	streams  atomic.Int64 // admitted UseStream handles

	removed atomic.Bool
	drainMu sync.Mutex
	drained chan struct{} // closed once removed and refs == 0
}

func newEntry(name, state string) *entry {
	e := &entry{name: name, drained: make(chan struct{})}
	e.setState(state, nil)
	e.quota.Store(&Quota{})
	return e
}

func (e *entry) setState(state string, err error) {
	e.state.Store(&state)
	if err != nil {
		e.loadErr.Store(&err)
	}
}

// maybeDrain closes the drained channel once the entry is removed and
// no Handles remain. Called from Release and from markRemoved, so
// whichever observes the final state completes the drain.
func (e *entry) maybeDrain() {
	if !e.removed.Load() || e.refs.Load() != 0 {
		return
	}
	e.drainMu.Lock()
	defer e.drainMu.Unlock()
	select {
	case <-e.drained:
	default:
		close(e.drained)
	}
}

func (e *entry) markRemoved() {
	e.removed.Store(true)
	e.maybeDrain()
}

// Handle is one acquired reference to a coherent model snapshot. Release
// it when the request completes; the model pointer stays valid (and the
// entry undrained) until then, even across hot swaps and unloads.
type Handle struct {
	e        *entry
	m        *hics.Model
	use      Use
	released atomic.Bool
}

// Model returns the snapshot the handle was acquired with — one coherent
// model version for the whole request.
func (h *Handle) Model() *hics.Model { return h.m }

// Name returns the fleet name the handle resolved to (the concrete name
// even when acquired via the default alias).
func (h *Handle) Name() string { return h.e.name }

// Workers returns the model's per-quota worker bound, or fallback when
// the quota imposes none.
func (h *Handle) Workers(fallback int) int {
	if q := h.e.quota.Load(); q.Workers > 0 {
		return q.Workers
	}
	return fallback
}

// Release returns the reference. Idempotent.
func (h *Handle) Release() {
	if !h.released.CompareAndSwap(false, true) {
		return
	}
	switch h.use {
	case UseRequest:
		h.e.requests.Add(-1)
	case UseStream:
		h.e.streams.Add(-1)
	}
	h.e.refs.Add(-1)
	h.e.maybeDrain()
}

// Config wires a Fleet.
type Config struct {
	// Dir is the persistence root: Put saves models here and Restore
	// loads them back. Empty disables persistence (an in-memory fleet).
	Dir string
	// Manifest overrides the manifest path (default <Dir>/manifest.json).
	// Ignored when Dir is empty.
	Manifest string
	// DefaultWorkers is applied via Model.SetWorkers to every model a
	// quota does not bound tighter; 0 leaves the model's own setting.
	DefaultWorkers int
	// Logger receives restore and persistence events. Nil discards.
	Logger *slog.Logger
}

// Fleet is the concurrency-safe named-model store. Construct with New,
// then call Restore exactly once (it is what marks the fleet ready, even
// for in-memory fleets).
type Fleet struct {
	dir            string
	manifestPath   string
	defaultWorkers int
	log            *slog.Logger

	mu          sync.RWMutex
	models      map[string]*entry
	defaultName string

	ready atomic.Bool
}

// New constructs an empty, not-yet-ready fleet.
func New(cfg Config) *Fleet {
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	manifest := cfg.Manifest
	if manifest == "" && cfg.Dir != "" {
		manifest = filepath.Join(cfg.Dir, "manifest.json")
	}
	mFleetReady.Set(0)
	mFleetModels.Set(0)
	return &Fleet{
		dir:            cfg.Dir,
		manifestPath:   manifest,
		defaultWorkers: cfg.DefaultWorkers,
		log:            log,
		models:         make(map[string]*entry),
	}
}

// Ready reports whether the manifest restore has completed. A ready
// fleet may still be empty.
func (f *Fleet) Ready() bool { return f.ready.Load() }

// DefaultModel returns the current default model name ("" when unset).
func (f *Fleet) DefaultModel() string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.defaultName
}

// manifest is the persisted fleet state.
type manifest struct {
	Version int             `json:"version"`
	Default string          `json:"default,omitempty"`
	Models  []manifestEntry `json:"models"`
}

type manifestEntry struct {
	Name string `json:"name"`
	// File is the model file name, relative to the manifest's directory.
	File  string `json:"file"`
	Quota Quota  `json:"quota,omitempty"`
}

const manifestVersion = 1

// Restore loads the persisted fleet from the manifest and marks the
// fleet ready. Call it once, after New — concurrently with serving if
// startup latency matters (readiness probes report the in-flight
// restore). A model file that fails to load leaves a failed entry and a
// log record; only an unreadable or malformed manifest is returned as an
// error (the fleet is still marked ready, empty, so the server is not
// wedged). Names already present — loaded explicitly before Restore ran
// — win over their manifest entry.
func (f *Fleet) Restore(ctx context.Context) error {
	defer func() {
		f.ready.Store(true)
		mFleetReady.Set(1)
	}()
	if f.manifestPath == "" {
		return nil
	}
	raw, err := os.ReadFile(f.manifestPath)
	if os.IsNotExist(err) {
		return nil // first boot: empty fleet
	}
	if err != nil {
		return fmt.Errorf("fleet: reading manifest: %w", err)
	}
	var mf manifest
	if err := json.Unmarshal(raw, &mf); err != nil {
		return fmt.Errorf("fleet: parsing manifest %s: %w", f.manifestPath, err)
	}
	if mf.Version != manifestVersion {
		return fmt.Errorf("fleet: manifest %s has version %d, want %d", f.manifestPath, mf.Version, manifestVersion)
	}

	// Register every entry as loading first, so a readiness probe sees
	// the whole cold fleet immediately.
	dir := filepath.Dir(f.manifestPath)
	var toLoad []manifestEntry
	f.mu.Lock()
	for _, me := range mf.Models {
		if !ValidName(me.Name) {
			f.log.Warn("fleet restore: skipping invalid model name", "name", me.Name)
			continue
		}
		if _, exists := f.models[me.Name]; exists {
			continue // an explicit runtime load beat the manifest
		}
		e := newEntry(me.Name, StateLoading)
		q := me.Quota
		e.quota.Store(&q)
		f.models[me.Name] = e
		toLoad = append(toLoad, me)
	}
	if f.defaultName == "" && mf.Default != "" {
		f.defaultName = mf.Default
	}
	f.mu.Unlock()

	for _, me := range toLoad {
		if err := ctx.Err(); err != nil {
			return err
		}
		path := filepath.Join(dir, me.File)
		m, err := loadModelFile(path)
		f.mu.Lock()
		e := f.models[me.Name]
		if e == nil || e.removed.Load() {
			f.mu.Unlock()
			continue // deleted while we were loading
		}
		if err != nil {
			e.setState(StateFailed, err)
			f.mu.Unlock()
			f.log.Error("fleet restore: model failed to load", "model", me.Name, "path", path, "error", err)
			continue
		}
		f.applyWorkers(m, e.quota.Load())
		e.model.Store(m)
		e.setState(StateReady, nil)
		f.updateModelMetricsLocked(me.Name, m)
		f.mu.Unlock()
		f.log.Info("fleet restore: model loaded", "model", me.Name,
			"objects", m.N(), "attributes", m.D(), "subspaces", len(m.Subspaces()))
	}
	return nil
}

func loadModelFile(path string) (*hics.Model, error) {
	r, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return hics.LoadModel(r)
}

// applyWorkers bounds the model's batch-scoring parallelism by the
// quota, falling back to the fleet-wide default.
func (f *Fleet) applyWorkers(m *hics.Model, q *Quota) {
	switch {
	case q != nil && q.Workers > 0:
		m.SetWorkers(q.Workers)
	case f.defaultWorkers > 0:
		m.SetWorkers(f.defaultWorkers)
	}
}

// Put loads (or hot-swaps) a model under the given name and persists it
// when the fleet has a directory. Existing Handles keep the old model;
// new Acquires see the replacement — the swap is atomic, never torn.
// makeDefault additionally routes unnamed requests to this model.
func (f *Fleet) Put(name string, m *hics.Model, q Quota, makeDefault bool) error {
	if !ValidName(name) {
		return fmt.Errorf("fleet: invalid model name %q (want 1-64 chars of [a-zA-Z0-9_.-], starting alphanumeric)", name)
	}
	if m == nil {
		return fmt.Errorf("fleet: model %q: nil model", name)
	}
	if q.MaxConcurrent < 0 || q.MaxStreams < 0 || q.Workers < 0 {
		return fmt.Errorf("fleet: model %q: quota values must be non-negative, got %+v", name, q)
	}
	f.applyWorkers(m, &q)

	// Persist outside the lock: the save is the slow part, and a rename
	// is atomic. The manifest is rewritten under the lock afterwards so
	// concurrent Puts serialize on a consistent snapshot.
	if f.dir != "" {
		if err := f.saveModelFile(name, m); err != nil {
			return err
		}
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	e, exists := f.models[name]
	if !exists || e.removed.Load() {
		e = newEntry(name, StateReady)
		f.models[name] = e
	}
	q2 := q
	e.quota.Store(&q2)
	e.model.Store(m)
	e.setState(StateReady, nil)
	if makeDefault || f.defaultName == "" {
		f.defaultName = name
	}
	f.updateModelMetricsLocked(name, m)
	if f.dir != "" {
		if err := f.writeManifestLocked(); err != nil {
			return err
		}
	}
	f.log.Info("fleet: model loaded", "model", name, "default", f.defaultName == name,
		"objects", m.N(), "attributes", m.D(), "subspaces", len(m.Subspaces()))
	return nil
}

// Delete unloads the named model: the name disappears immediately (new
// Acquires fail), in-flight Handles drain — bounded by ctx — and then
// the persisted model file is removed. A drain cut short by ctx still
// completes the unload; the in-flight requests keep their (memory-held)
// model snapshot and the file removal proceeds.
func (f *Fleet) Delete(ctx context.Context, name string) error {
	f.mu.Lock()
	e, ok := f.models[name]
	if !ok {
		f.mu.Unlock()
		return &NotFoundError{Name: name}
	}
	delete(f.models, name)
	if f.defaultName == name {
		f.defaultName = ""
	}
	mModelSubspaces.Delete(name)
	mModelFormatVersion.Delete(name)
	mFleetModels.Set(float64(f.readyCountLocked()))
	var manifestErr error
	if f.dir != "" {
		manifestErr = f.writeManifestLocked()
	}
	f.mu.Unlock()

	e.markRemoved()
	select {
	case <-e.drained:
	case <-ctx.Done():
		f.log.Warn("fleet: unload drain cut short", "model", name, "error", ctx.Err(),
			"outstanding", e.refs.Load())
	}
	if f.dir != "" {
		if err := os.Remove(f.modelPath(name)); err != nil && !os.IsNotExist(err) {
			f.log.Error("fleet: removing model file", "model", name, "error", err)
		}
	}
	f.log.Info("fleet: model unloaded", "model", name)
	return manifestErr
}

// Acquire resolves a model name ("" = the default) to a Handle holding a
// coherent model snapshot, admitted against the model's quota for the
// given use. Callers must Release the handle.
func (f *Fleet) Acquire(name string, use Use) (*Handle, error) {
	f.mu.RLock()
	resolved := name
	if resolved == "" {
		resolved = f.defaultName
	}
	e := f.models[resolved]
	f.mu.RUnlock()
	if e == nil || resolved == "" {
		return nil, &NotFoundError{Name: name}
	}
	if state := *e.state.Load(); state != StateReady {
		var err error
		if p := e.loadErr.Load(); p != nil {
			err = *p
		}
		return nil, &NotReadyError{Name: resolved, State: state, Err: err}
	}
	// In-flight work is always counted (Status reports it); a bounded
	// quota additionally rejects the admission that would exceed it.
	q := e.quota.Load()
	switch use {
	case UseRequest:
		if n := e.requests.Add(1); q.MaxConcurrent > 0 && n > int64(q.MaxConcurrent) {
			e.requests.Add(-1)
			return nil, &QuotaError{Name: resolved, Kind: "request", Limit: q.MaxConcurrent}
		}
	case UseStream:
		if n := e.streams.Add(1); q.MaxStreams > 0 && n > int64(q.MaxStreams) {
			e.streams.Add(-1)
			return nil, &QuotaError{Name: resolved, Kind: "stream", Limit: q.MaxStreams}
		}
	}
	e.refs.Add(1)
	m := e.model.Load()
	if e.removed.Load() || m == nil {
		// Lost the race with Delete: back out as if never admitted.
		h := &Handle{e: e, use: use}
		h.Release()
		return nil, &NotFoundError{Name: name}
	}
	return &Handle{e: e, m: m, use: use}, nil
}

// ModelStatus is one model's externally visible state.
type ModelStatus struct {
	Name    string `json:"name"`
	State   string `json:"state"`
	Error   string `json:"error,omitempty"`
	Default bool   `json:"default"`

	Objects       int    `json:"objects,omitempty"`
	Attributes    int    `json:"attributes,omitempty"`
	Subspaces     int    `json:"subspaces,omitempty"`
	Search        string `json:"search,omitempty"`
	Scorer        string `json:"scorer,omitempty"`
	FormatVersion int    `json:"format_version,omitempty"`

	Quota          Quota `json:"quota"`
	ActiveRequests int64 `json:"active_requests"`
	ActiveStreams  int64 `json:"active_streams"`
}

// Status reports every model, sorted by name.
func (f *Fleet) Status() []ModelStatus {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]ModelStatus, 0, len(f.models))
	for name, e := range f.models {
		out = append(out, f.statusLocked(name, e))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ModelStatus reports one model by name.
func (f *Fleet) ModelStatus(name string) (ModelStatus, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	e, ok := f.models[name]
	if !ok {
		return ModelStatus{}, &NotFoundError{Name: name}
	}
	return f.statusLocked(name, e), nil
}

func (f *Fleet) statusLocked(name string, e *entry) ModelStatus {
	st := ModelStatus{
		Name:           name,
		State:          *e.state.Load(),
		Default:        name == f.defaultName,
		Quota:          *e.quota.Load(),
		ActiveRequests: e.requests.Load(),
		ActiveStreams:  e.streams.Load(),
	}
	if p := e.loadErr.Load(); p != nil && st.State == StateFailed {
		st.Error = (*p).Error()
	}
	if m := e.model.Load(); m != nil && st.State == StateReady {
		st.Objects = m.N()
		st.Attributes = m.D()
		st.Subspaces = len(m.Subspaces())
		st.Search = m.SearchMethod()
		st.Scorer = m.ScorerMethod()
		st.FormatVersion = m.FormatVersion()
	}
	return st
}

// Len returns the number of ready models.
func (f *Fleet) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.readyCountLocked()
}

func (f *Fleet) readyCountLocked() int {
	n := 0
	for _, e := range f.models {
		if *e.state.Load() == StateReady {
			n++
		}
	}
	return n
}

func (f *Fleet) updateModelMetricsLocked(name string, m *hics.Model) {
	mModelSubspaces.With(name).Set(float64(len(m.Subspaces())))
	mModelFormatVersion.With(name).Set(float64(m.FormatVersion()))
	mFleetModels.Set(float64(f.readyCountLocked()))
}

func (f *Fleet) modelPath(name string) string {
	return filepath.Join(f.dir, name+".hics")
}

// saveModelFile persists a model atomically: write a temp file in the
// same directory, fsync-free rename over the target.
func (f *Fleet) saveModelFile(name string, m *hics.Model) error {
	if err := os.MkdirAll(f.dir, 0o755); err != nil {
		return fmt.Errorf("fleet: creating models dir: %w", err)
	}
	tmp, err := os.CreateTemp(f.dir, "."+name+".tmp-*")
	if err != nil {
		return fmt.Errorf("fleet: saving model %q: %w", name, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := m.Save(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("fleet: saving model %q: %w", name, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("fleet: saving model %q: %w", name, err)
	}
	if err := os.Rename(tmp.Name(), f.modelPath(name)); err != nil {
		return fmt.Errorf("fleet: saving model %q: %w", name, err)
	}
	return nil
}

// writeManifestLocked rewrites the manifest atomically from the current
// table. Caller holds f.mu.
func (f *Fleet) writeManifestLocked() error {
	mf := manifest{Version: manifestVersion, Default: f.defaultName}
	names := make([]string, 0, len(f.models))
	for name := range f.models {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		e := f.models[name]
		mf.Models = append(mf.Models, manifestEntry{
			Name:  name,
			File:  name + ".hics",
			Quota: *e.quota.Load(),
		})
	}
	if mf.Models == nil {
		mf.Models = []manifestEntry{}
	}
	data, err := json.MarshalIndent(mf, "", "  ")
	if err != nil {
		return fmt.Errorf("fleet: encoding manifest: %w", err)
	}
	dir := filepath.Dir(f.manifestPath)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("fleet: creating manifest dir: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".manifest.tmp-*")
	if err != nil {
		return fmt.Errorf("fleet: writing manifest: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		return fmt.Errorf("fleet: writing manifest: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("fleet: writing manifest: %w", err)
	}
	if err := os.Rename(tmp.Name(), f.manifestPath); err != nil {
		return fmt.Errorf("fleet: writing manifest: %w", err)
	}
	return nil
}

// String renders the fleet for logs.
func (f *Fleet) String() string {
	sts := f.Status()
	names := make([]string, len(sts))
	for i, st := range sts {
		names[i] = st.Name + "(" + st.State + ")"
	}
	return "fleet[" + strings.Join(names, " ") + "]"
}
