package hics

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"strings"

	"hics/internal/dataset"
	"hics/internal/lof"
	"hics/internal/neighbors"
	"hics/internal/parallel"
	"hics/internal/ranking"
	"hics/internal/registry"
	"hics/internal/subspace"
)

// Model is a trained HiCS outlier detector: the outcome of running the
// Monte Carlo subspace search once and freezing the per-subspace scoring
// state (a neighbor index per selected projection plus the fitted LOF
// k-distances and local reachability densities, or the kNN-distance
// state). A Model scores out-of-sample points without refitting, can be
// persisted with Save and restored with LoadModel, and is safe for
// concurrent Score/ScoreBatch calls.
type Model struct {
	fp *ranking.FittedPipeline
	ds *dataset.Dataset // training data, retained for Save

	search  string // registry name of the subspace searcher
	scorer  string // registry name of the density scorer
	minPts  int    // effective neighborhood size
	version uint32 // persistence format the model was loaded from
	workers int    // ScoreBatch parallelism bound (0 = one per CPU)

	// train finds a training row by its exact bit pattern, so scoring a
	// training row reproduces its batch score: the query is treated as
	// that object (leave-one-out), not as an extra point that would
	// shadow itself at distance zero.
	train rowTable
}

// Fit runs the subspace search selected by opts.Search once on row-major
// training data and freezes a reusable scoring model. The scorer must
// support the fit/score split (FitScorerNames lists the valid names). The
// model's training scores are bit-for-bit the Rank scores for the same
// data and options.
func Fit(rows [][]float64, opts Options) (*Model, error) {
	return FitContext(context.Background(), rows, opts)
}

// FitContext is Fit with cooperative cancellation: the subspace search
// observes ctx throughout its Monte Carlo loops and the per-subspace
// fitting passes check it between subspaces. A cancelled or deadlined
// context makes the call return ctx.Err() promptly; an uncancelled fit
// is bit-for-bit identical to Fit.
func FitContext(ctx context.Context, rows [][]float64, opts Options) (*Model, error) {
	ds, err := toDataset(rows)
	if err != nil {
		return nil, err
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	// Resolve the effective neighborhood size up front so the persisted
	// model is self-describing.
	if opts.MinPts < 1 {
		opts.MinPts = lof.DefaultMinPts
	}
	search, scorer, err := opts.methodNames()
	if err != nil {
		return nil, err
	}
	if registry.KnownScorer(scorer) && !registry.ScorerSupportsFit(scorer) {
		return nil, fmt.Errorf("hics: scorer %q does not support the fit/score split (supported: %s)",
			scorer, strings.Join(registry.FitScorerNames(), ", "))
	}
	pipe, err := opts.pipeline()
	if err != nil {
		return nil, err
	}
	fp, err := pipe.Fit(ctx, ds)
	if err != nil {
		return nil, err
	}
	m := &Model{
		fp:      fp,
		ds:      ds,
		search:  search,
		scorer:  scorer,
		minPts:  opts.MinPts,
		version: modelFormatVersion,
		workers: opts.Workers,
	}
	m.train = newRowTable(ds)
	return m, nil
}

// rowTable is an open-addressing hash table over a dataset's rows, keyed
// by their exact float64 bit patterns, so NaN payloads match exactly and
// −0 does not match +0. A slot holds row id + 1 (0 marks an empty slot),
// and there are at least twice as many slots as rows, so a probe ends at
// an empty slot. The rows themselves stay in the dataset: a probe compares
// the candidate row's bits there. The hash is seeded per table, so crafted
// rows cannot force collisions. Row ids must fit an int32.
type rowTable struct {
	ds    *dataset.Dataset
	seed  maphash.Seed
	slots []int32
}

// newRowTable indexes the rows of ds. Rows are inserted in ascending order
// and an exact duplicate of an earlier row is skipped, so the first of
// several identical rows wins; identical rows receive equal batch scores
// (up to summation order), so the choice is immaterial.
func newRowTable(ds *dataset.Dataset) rowTable {
	size := 2
	for size < 2*ds.N() {
		size <<= 1
	}
	t := rowTable{ds: ds, seed: maphash.MakeSeed(), slots: make([]int32, size)}
	buf := make([]float64, 0, ds.D())
	for i := 0; i < ds.N(); i++ {
		buf = ds.Row(i, buf)
		if s, found := t.probe(buf); !found {
			t.slots[s] = int32(i + 1)
		}
	}
	return t
}

// find returns the index of the first training row whose bits equal
// point's. It allocates nothing.
func (t *rowTable) find(point []float64) (int, bool) {
	s, found := t.probe(point)
	return int(t.slots[s]) - 1, found
}

// probe returns the slot holding the row equal to p, or the empty slot
// where p would be inserted.
func (t *rowTable) probe(p []float64) (slot int, found bool) {
	var h maphash.Hash
	h.SetSeed(t.seed)
	var b [8]byte
	for _, v := range p {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	mask := uint64(len(t.slots) - 1)
	for s := h.Sum64() & mask; ; s = (s + 1) & mask {
		id := int(t.slots[s]) - 1
		if id < 0 {
			return int(s), false
		}
		if t.rowEquals(id, p) {
			return int(s), true
		}
	}
}

// rowEquals reports whether row id of the dataset has exactly p's bits.
func (t *rowTable) rowEquals(id int, p []float64) bool {
	for j, v := range p {
		if math.Float64bits(t.ds.Value(id, j)) != math.Float64bits(v) {
			return false
		}
	}
	return true
}

// D returns the number of attributes the model was fitted on; Score
// expects points of this length.
func (m *Model) D() int { return m.fp.D }

// N returns the number of training objects.
func (m *Model) N() int { return len(m.fp.Train) }

// SearchMethod returns the registry name of the subspace searcher the
// model was fitted with ("hics", "enclus", ...).
func (m *Model) SearchMethod() string { return m.search }

// ScorerMethod returns the registry name of the density scorer the model
// was fitted with ("lof" or "knn").
func (m *Model) ScorerMethod() string { return m.scorer }

// FormatVersion returns the persistence format version the model was
// loaded from; freshly fitted models report the current format.
func (m *Model) FormatVersion() int { return int(m.version) }

// MinPts returns the effective neighborhood size of the fitted scorer —
// the lower bound a streaming window must exceed (StreamOptions.Window).
func (m *Model) MinPts() int { return m.minPts }

// Subspaces returns the high-contrast projections the model scores in,
// in descending contrast order.
func (m *Model) Subspaces() []Subspace {
	out := make([]Subspace, len(m.fp.Subspaces))
	for i, sc := range m.fp.Subspaces {
		out[i] = Subspace{Dims: append([]int(nil), sc.S...), Contrast: sc.Score}
	}
	return out
}

// TrainingScores returns the aggregated outlier scores of the training
// objects — bit-for-bit the Rank result for the same data and options.
func (m *Model) TrainingScores() []float64 {
	return append([]float64(nil), m.fp.Train...)
}

// Score computes the outlier score of a single point against the trained
// model: every fitted subspace scores the point's projection out of
// sample, and the per-subspace scores aggregate exactly like Rank. A
// point whose bit pattern equals a training row is scored as that object
// (leave-one-out), so training rows reproduce their batch scores exactly.
// Among bit-identical duplicate training rows the first row's score is
// returned; duplicates' batch scores can differ only in the final ulp
// (their neighborhoods hold the same values, summed in a different
// order). Safe for concurrent use.
func (m *Model) Score(point []float64) (float64, error) {
	if len(point) != m.fp.D {
		return 0, fmt.Errorf("hics: point has %d attributes, model expects %d", len(point), m.fp.D)
	}
	// The training-row lookup runs first so that training rows reproduce
	// their batch scores whatever their values — models loaded from files
	// written before the boundary rejected non-finite training data may
	// still carry such rows.
	if i, ok := m.train.find(point); ok {
		return m.fp.Train[i], nil
	}
	for j, v := range point {
		// A NaN coordinate empties every neighborhood and would come back
		// as a perfectly average-looking score; reject non-finite
		// out-of-sample input instead of masking it.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("hics: point attribute %d is %v, want a finite value", j, v)
		}
	}
	return m.fp.ScorePoint(point)
}

// ScoreBatch scores every row, parallelized over at most SetWorkers
// goroutines (default one per CPU), with Score's semantics per row:
// genuinely new points score out of sample, rows bit-identical to a
// training row reproduce that row's batch score.
func (m *Model) ScoreBatch(rows [][]float64) ([]float64, error) {
	return m.ScoreBatchContext(context.Background(), rows)
}

// batchChunk is the ScoreBatch work-claim granularity: small enough that
// cancellation is observed within a few milliseconds of scoring work per
// worker, large enough that the atomic claim counter stays cold.
const batchChunk = 8

// ScoreBatchContext is ScoreBatch with cooperative cancellation: workers
// check ctx every few rows, so a cancelled or deadlined context makes
// the call return ctx.Err() within a bounded amount of per-worker work
// and with every worker goroutine joined. An already-cancelled context
// never starts scoring. Uncancelled results are identical to ScoreBatch.
func (m *Model) ScoreBatchContext(ctx context.Context, rows [][]float64) ([]float64, error) {
	for i, row := range rows {
		if len(row) != m.fp.D {
			return nil, fmt.Errorf("hics: row %d has %d attributes, model expects %d", i, len(row), m.fp.D)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				// Rows bit-identical to a training row keep Score's
				// leave-one-out semantics (legacy models may carry
				// non-finite training rows); everything else is rejected
				// up front with the row named, before any scoring work.
				if _, ok := m.train.find(row); ok {
					break
				}
				return nil, fmt.Errorf("hics: row %d attribute %d is %v, want a finite value", i, j, v)
			}
		}
	}
	out := make([]float64, len(rows))
	err := parallel.ForEach(ctx, len(rows), m.workers, batchChunk, func(_, i int) error {
		s, err := m.Score(rows[i])
		if err != nil {
			return err
		}
		out[i] = s
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SetWorkers bounds the goroutines ScoreBatch and ScoreBatchContext fan
// out over; n <= 0 restores the default of one worker per CPU. Freshly
// fitted models inherit Options.Workers; loaded models default to all
// CPUs. Not safe to call concurrently with scoring — configure once at
// startup.
func (m *Model) SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	m.workers = n
}

// Model persistence: a magic string and a little-endian uint32 format
// version followed by a gob-encoded payload. Floats round-trip exactly
// through gob, so a loaded model scores bit-for-bit like the original.
const modelMagic = "HICSMODEL"

// modelFormatVersion identifies the payload layout; bump on incompatible
// changes so old readers fail loudly instead of misinterpreting state.
// Version 2 records the (searcher, scorer) registry-name pair; version 1
// (HiCS search, UseKNN flag) is still read.
const modelFormatVersion uint32 = 2

// savedSubspace is the persisted per-subspace state (identical layout in
// formats 1 and 2).
type savedSubspace struct {
	Dims     []int
	Contrast float64
	// IndexKind is the resolved neighbor-index backend ("brute"/"kdtree");
	// index construction is deterministic, so the structure is rebuilt at
	// load time instead of being serialized.
	IndexKind string
	// KDist and LRD are the fitted LOF statistics; nil for the kNN scorer.
	KDist []float64
	LRD   []float64
}

// modelFileV1 is the persisted model of format version 1: always the HiCS
// search, the scorer reduced to a LOF-or-kNN flag.
type modelFileV1 struct {
	UseKNN bool
	MinPts int
	Agg    string
	N, D   int
	// Cols is the training data in the column-major internal layout.
	Cols        [][]float64
	Subspaces   []savedSubspace
	TrainScores []float64
}

// modelFileV2 is the persisted model of format version 2, recording the
// (searcher, scorer) registry-name pair the model was fitted with.
type modelFileV2 struct {
	Search string
	Scorer string
	MinPts int
	Agg    string
	N, D   int
	// Cols is the training data in the column-major internal layout.
	Cols        [][]float64
	Subspaces   []savedSubspace
	TrainScores []float64
}

// Save writes the model to w in the versioned binary format (current
// version 2). The file records the (searcher, scorer) method pair, the
// training data, the selected subspaces with their fitted scoring
// statistics, and the training scores; neighbor indices are rebuilt
// deterministically on load.
func (m *Model) Save(w io.Writer) error {
	if _, err := io.WriteString(w, modelMagic); err != nil {
		return fmt.Errorf("hics: saving model: %w", err)
	}
	if err := binary.Write(w, binary.LittleEndian, modelFormatVersion); err != nil {
		return fmt.Errorf("hics: saving model: %w", err)
	}
	mf := modelFileV2{
		Search:      m.search,
		Scorer:      m.scorer,
		MinPts:      m.minPts,
		Agg:         m.fp.Agg.String(),
		N:           m.ds.N(),
		D:           m.ds.D(),
		Cols:        make([][]float64, m.ds.D()),
		Subspaces:   make([]savedSubspace, len(m.fp.Scorers)),
		TrainScores: m.fp.Train,
	}
	for d := range mf.Cols {
		mf.Cols[d] = m.ds.Col(d)
	}
	for i, f := range m.fp.Scorers {
		sv := savedSubspace{Dims: f.Subspace, Contrast: m.fp.Subspaces[i].Score, IndexKind: f.State.Kind().String()}
		switch st := f.State.(type) {
		case *lof.Fitted:
			sv.KDist = st.KDist()
			sv.LRD = st.LRD()
		case *lof.FittedKNN:
			// The kNN state is its index, rebuilt on load.
		default:
			return fmt.Errorf("hics: cannot persist scorer type %T", st)
		}
		mf.Subspaces[i] = sv
	}
	if err := gob.NewEncoder(w).Encode(&mf); err != nil {
		return fmt.Errorf("hics: saving model: %w", err)
	}
	return nil
}

// LoadModel reads a model previously written by Save and reassembles the
// scoring state. Both format versions load: version 1 files are mapped to
// the (hics, lof/knn) method pair they implied. Files recording a method
// pair the registry cannot rebuild a fitted scorer for are rejected. The
// loaded model's Score is bit-for-bit identical to the original's.
func LoadModel(r io.Reader) (*Model, error) {
	header := make([]byte, len(modelMagic)+4)
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, fmt.Errorf("hics: loading model: %w", err)
	}
	if !bytes.Equal(header[:len(modelMagic)], []byte(modelMagic)) {
		return nil, errors.New("hics: not a HiCS model file")
	}
	version := binary.LittleEndian.Uint32(header[len(modelMagic):])
	var mf modelFileV2
	switch version {
	case 1:
		var v1 modelFileV1
		if err := gob.NewDecoder(r).Decode(&v1); err != nil {
			return nil, fmt.Errorf("hics: loading model: %w", err)
		}
		mf = modelFileV2{
			Search:      registry.DefaultSearcher,
			Scorer:      "lof",
			MinPts:      v1.MinPts,
			Agg:         v1.Agg,
			N:           v1.N,
			D:           v1.D,
			Cols:        v1.Cols,
			Subspaces:   v1.Subspaces,
			TrainScores: v1.TrainScores,
		}
		if v1.UseKNN {
			mf.Scorer = "knn"
		}
	case 2:
		if err := gob.NewDecoder(r).Decode(&mf); err != nil {
			return nil, fmt.Errorf("hics: loading model: %w", err)
		}
	default:
		return nil, fmt.Errorf("hics: unsupported model format version %d (want 1 or 2)", version)
	}
	return assembleModel(mf, version)
}

// assembleModel validates a decoded model file and rebuilds the frozen
// scoring state.
func assembleModel(mf modelFileV2, version uint32) (*Model, error) {
	if !registry.KnownSearcher(mf.Search) {
		return nil, fmt.Errorf("hics: model file records unknown searcher %q (valid: %s)",
			mf.Search, strings.Join(registry.SearcherNames(), ", "))
	}
	if !registry.ScorerSupportsFit(mf.Scorer) {
		return nil, fmt.Errorf("hics: model file records scorer %q, which cannot be rebuilt (supported: %s)",
			mf.Scorer, strings.Join(registry.FitScorerNames(), ", "))
	}
	if len(mf.Cols) != mf.D || mf.D == 0 {
		return nil, fmt.Errorf("hics: model file has %d columns, header says %d", len(mf.Cols), mf.D)
	}
	for d, col := range mf.Cols {
		if len(col) != mf.N {
			return nil, fmt.Errorf("hics: model column %d has %d values, header says %d", d, len(col), mf.N)
		}
	}
	if len(mf.TrainScores) != mf.N {
		return nil, fmt.Errorf("hics: model file has %d training scores for %d objects", len(mf.TrainScores), mf.N)
	}
	if len(mf.Subspaces) == 0 {
		return nil, errors.New("hics: model file has no subspaces")
	}
	agg, err := ranking.ParseAggregation(mf.Agg)
	if err != nil {
		return nil, fmt.Errorf("hics: loading model: %w", err)
	}
	ds, err := dataset.New(nil, mf.Cols)
	if err != nil {
		return nil, fmt.Errorf("hics: loading model: %w", err)
	}
	fp := &ranking.FittedPipeline{
		Subspaces: make([]subspace.Scored, len(mf.Subspaces)),
		Scorers:   make([]ranking.FittedSubspace, len(mf.Subspaces)),
		Agg:       agg,
		Train:     mf.TrainScores,
		D:         mf.D,
	}
	m := &Model{
		fp:      fp,
		ds:      ds,
		search:  mf.Search,
		scorer:  mf.Scorer,
		minPts:  mf.MinPts,
		version: version,
	}
	// The indexes are rebuilt one subspace per claim on all CPUs, each
	// tree on the claiming goroutine. A claim writes only its own slots
	// and an index does not depend on the goroutine that built it, so the
	// model is the one a serial loop builds. Claims are handed out in
	// index order and every claimed index runs, so of several bad
	// subspaces the error names the lowest-numbered one.
	err = parallel.ForEach(context.Background(), len(mf.Subspaces), 0, 1, func(_, i int) error {
		sv := mf.Subspaces[i]
		// Rebuilding an approximate-index model on an exact index would
		// silently change its scores, so such files are refused.
		if sv.IndexKind == "lsh" {
			return fmt.Errorf("hics: loading model subspace %d: the approximate lsh neighbor index is no longer supported; refit the model", i)
		}
		kind, err := neighbors.ParseKind(sv.IndexKind)
		if err != nil {
			return fmt.Errorf("hics: loading model subspace %d: %w", i, err)
		}
		// Fit writes each subspace's dims strictly ascending. Repeated or
		// unordered dims would build an index over a subspace other than
		// the recorded one; neighbors.NewWorkers checks the range.
		for k := 1; k < len(sv.Dims); k++ {
			if sv.Dims[k] <= sv.Dims[k-1] {
				return fmt.Errorf("hics: loading model subspace %d: dims %v are not strictly ascending", i, sv.Dims)
			}
		}
		idx, err := neighbors.NewWorkers(ds, sv.Dims, kind, 1)
		if err != nil {
			return fmt.Errorf("hics: loading model subspace %d: %w", i, err)
		}
		var st ranking.FittedState
		switch mf.Scorer {
		case "knn":
			st, err = lof.NewFittedKNN(idx, mf.MinPts)
		case "lof":
			st, err = lof.NewFitted(idx, mf.MinPts, sv.KDist, sv.LRD)
		default:
			// Unreachable: ScorerSupportsFit admitted only lof and knn. A
			// newly registered FitScorer must extend this switch.
			return fmt.Errorf("hics: model file records scorer %q with no rebuild path", mf.Scorer)
		}
		if err != nil {
			return fmt.Errorf("hics: loading model subspace %d: %w", i, err)
		}
		fp.Scorers[i] = ranking.FittedSubspace{Subspace: sv.Dims, State: st}
		fp.Subspaces[i] = subspace.Scored{S: subspace.New(sv.Dims...), Score: sv.Contrast}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m.train = newRowTable(ds)
	return m, nil
}
