// Package core implements the paper's primary contribution: the HiCS
// subspace contrast measure (Sec. III) and the Apriori-style subspace
// search framework built on it (Sec. IV).
//
// The contrast of a subspace S is estimated with a Monte Carlo loop of M
// statistical tests. Each iteration draws a random "subspace slice": for
// all but one randomly chosen attribute of S, a contiguous block of the
// per-attribute sorted index of expected size N·α^{1/|S|} is selected, and
// the conjunction of the blocks forms the conditional sample. The
// deviation between the conditional distribution of the remaining
// attribute and its marginal distribution is measured with either Welch's
// t-test (HiCS_WT, deviation = 1−p) or the two-sample Kolmogorov–Smirnov
// statistic (HiCS_KS, deviation = D), and the contrast is the mean
// deviation over the M iterations (Definition 5).
package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"hics/internal/dataset"
	"hics/internal/rng"
	"hics/internal/stats"
	"hics/internal/subspace"
)

// Test selects the statistical deviation function.
type Test int

const (
	// WelchT is HiCS_WT: deviation = 1 − p of Welch's unequal-variance
	// t-test between marginal and conditional sample. The paper's default.
	WelchT Test = iota
	// KolmogorovSmirnov is HiCS_KS: deviation = the two-sample KS statistic.
	KolmogorovSmirnov
	// MannWhitney is an extension beyond the paper's two instantiations:
	// deviation = 1 − p of the rank-based Mann–Whitney U test. Like KS it
	// is distribution-free; like Welch it targets location shifts.
	MannWhitney
	// CramerVonMises is a second extension: the normalized two-sample
	// Cramér–von Mises criterion, which integrates the squared ECDF gap
	// instead of taking its supremum (KS) and is therefore more sensitive
	// to distributed shape differences.
	CramerVonMises
)

func (t Test) String() string {
	switch t {
	case WelchT:
		return "welch"
	case KolmogorovSmirnov:
		return "ks"
	case MannWhitney:
		return "mw"
	case CramerVonMises:
		return "cvm"
	default:
		return fmt.Sprintf("Test(%d)", int(t))
	}
}

// ParseTest converts a test name ("welch"/"wt", "ks", "mw", "cvm") into a
// Test value.
func ParseTest(s string) (Test, error) {
	switch s {
	case "welch", "wt", "t":
		return WelchT, nil
	case "ks", "kolmogorov-smirnov":
		return KolmogorovSmirnov, nil
	case "mw", "mann-whitney", "u":
		return MannWhitney, nil
	case "cvm", "cramer-von-mises":
		return CramerVonMises, nil
	default:
		return 0, fmt.Errorf("core: unknown statistical test %q (want welch, ks, mw or cvm)", s)
	}
}

// Defaults from the paper's parameter study (Sec. V-A3).
const (
	DefaultM      = 50  // Monte Carlo iterations (Fig. 7)
	DefaultAlpha  = 0.1 // slice size ratio (Fig. 8)
	DefaultCutoff = 400 // candidate cutoff (Fig. 5/9)
	DefaultTopK   = 100 // subspaces handed to the outlier ranking (Sec. V)
)

// Params configures the HiCS contrast computation and subspace search.
// The zero value means "paper defaults" for every field.
type Params struct {
	// M is the number of Monte Carlo iterations per subspace.
	M int
	// Alpha is the expected fraction of the data in a conditional sample.
	Alpha float64
	// Cutoff bounds the number of candidates retained per Apriori level.
	Cutoff int
	// TopK bounds the final number of subspaces returned by SearchContext.
	// Set to -1 to return all.
	TopK int
	// Test selects HiCS_WT (default) or HiCS_KS.
	Test Test
	// Seed makes the Monte Carlo loop reproducible. Derived streams are
	// keyed by subspace, so results are independent of evaluation order.
	Seed uint64
	// Workers bounds the number of concurrent contrast evaluations during
	// SearchContext; 0 means one per available CPU.
	Workers int
	// MaxDim optionally caps the dimensionality of generated candidates;
	// 0 means unbounded (the Apriori loop stops by itself).
	MaxDim int
	// DisablePruning turns off the redundancy pruning post-processing
	// (used by the pruning ablation; the paper always prunes).
	DisablePruning bool
	// AdaptiveM is ignored: every candidate spends the full M iterations.
	AdaptiveM bool
	// MaxSampleRows bounds the number of rows a contrast estimate may
	// touch: when 0 < MaxSampleRows < N, each subspace is estimated on a
	// deterministic per-subspace subsample of MaxSampleRows objects
	// (seeded from the subspace's stream), so per-candidate cost stops
	// growing linearly in N. 0 (the default) estimates on all rows.
	MaxSampleRows int
}

func (p Params) withDefaults() Params {
	if p.M <= 0 {
		p.M = DefaultM
	}
	if p.Alpha <= 0 || p.Alpha >= 1 {
		p.Alpha = DefaultAlpha
	}
	if p.Cutoff <= 0 {
		p.Cutoff = DefaultCutoff
	}
	if p.TopK == 0 {
		p.TopK = DefaultTopK
	}
	return p
}

// Evaluator computes subspace contrasts for one dataset. It precomputes,
// once, the one-dimensional structures the configured Monte Carlo slices
// read (Sec. IV-A), and only those: per attribute the marginal moments
// (the Welch marginal), the sorted value array when the test compares
// against the whole marginal distribution (KS, MW and CvM), and, when
// estimates run on all rows, rank[a][id], the position of object id in
// dataset.SortedIndex(a). A rank turns "is id inside this condition's
// index block" into one comparison, so the Monte Carlo loop finds a
// conditional sample by filtering one block through the other conditions
// (see ContrastContext). A subsampled Welch estimate sorts its own sample
// and reads neither, so it never builds the dataset's sorted indexes.
// An Evaluator is safe for concurrent Contrast calls as long as each call
// uses its own *rng.RNG and scratch (see NewScratch).
type Evaluator struct {
	ds     *dataset.Dataset
	params Params

	sortedVals [][]float64 // per attribute, ascending; nil for Welch's test
	margMean   []float64
	margVar    []float64
	rank       [][]int32 // per attribute; nil when estimates are subsampled
}

// NewEvaluator prepares contrast evaluation for ds. It builds the
// dataset's sorted index of an attribute only when the evaluator reads it:
// for the full-data ranks or the KS/MW/CvM marginal.
func NewEvaluator(ds *dataset.Dataset, p Params) *Evaluator {
	p = p.withDefaults()
	d := ds.D()
	e := &Evaluator{
		ds:       ds,
		params:   p,
		margMean: make([]float64, d),
		margVar:  make([]float64, d),
	}
	if p.Test != WelchT {
		e.sortedVals = make([][]float64, d)
	}
	if !e.subsampled() {
		e.rank = make([][]int32, d)
	}
	for j := 0; j < d; j++ {
		col := ds.Col(j)
		e.margMean[j], e.margVar[j] = stats.MeanVar(col)
		if e.sortedVals == nil && e.rank == nil {
			continue
		}
		idx := ds.SortedIndex(j)
		if e.sortedVals != nil {
			sv := make([]float64, len(idx))
			for i, id := range idx {
				sv[i] = col[id]
			}
			e.sortedVals[j] = sv
		}
		if e.rank != nil {
			e.rank[j] = make([]int32, len(idx))
			setRanks(e.rank[j], idx)
		}
	}
	return e
}

// subsampled reports whether estimates run on a MaxSampleRows subsample.
func (e *Evaluator) subsampled() bool {
	return e.params.MaxSampleRows > 0 && e.ds.N() > e.params.MaxSampleRows
}

// setRanks inverts a sorted order: rank[order[pos]] = pos.
func setRanks(rank []int32, order []int) {
	for pos, id := range order {
		rank[id] = int32(pos)
	}
}

// column is the view of one attribute that Monte Carlo slices are cut
// from: the row ids in ascending value order, each row's rank in that
// order, and the values by row id.
type column struct {
	order []int
	rank  []int32
	vals  []float64
}

// Scratch holds the per-goroutine buffers of the Monte Carlo loop. They
// are reused across iterations and candidates, and none is N-sized: the
// selection vector and the conditional sample hold at most one index
// block, and a subsampled estimate's sample view (drawn ids, and per
// subspace attribute the sample's values, sorted order and ranks) holds
// MaxSampleRows rows. A Scratch serves only the Evaluator that made it.
type Scratch struct {
	perm   []int     // permutation of subspace positions
	starts []int     // index block start per condition
	sel    []int     // selection vector: row ids inside every block so far
	cond   []float64 // conditional sample values
	view   []column  // per subspace position, the full-data view

	chosen map[int]struct{} // Floyd's membership set
	ids    []int            // the subsample's row ids, ascending
	sample []column         // per subspace position, the sample-local view
}

// NewScratch returns empty scratch space for the evaluator; its buffers
// grow on first use.
func (e *Evaluator) NewScratch() *Scratch {
	return &Scratch{}
}

// Contrast computes the HiCS contrast of subspace s (Definition 5) using
// the provided random stream and scratch space. Subspaces must have at
// least two dimensions; one-dimensional input yields zero (no notion of
// correlation, Sec. IV-B).
func (e *Evaluator) Contrast(s subspace.Subspace, r *rng.RNG, sc *Scratch) float64 {
	v, _ := e.ContrastContext(context.Background(), s, r, sc)
	return v
}

// ContrastContext is Contrast with cooperative cancellation: the Monte
// Carlo loop checks ctx between iterations and returns ctx.Err() when it
// fires. The check never touches the random stream, so an uncancelled
// call is bit-for-bit identical to Contrast.
//
// Each iteration draws a permutation of the subspace's attributes and one
// index block start per condition. The conditional sample is then found
// with a selection vector: the first condition's block is walked in
// sorted order, and each further condition keeps the rows whose rank
// falls inside its block, compacting the vector in place. The survivors
// keep the first block's order, so the sample is deterministic; for a
// two-dimensional subspace it is a plain gather of the block.
//
// When Params.MaxSampleRows bounds the rows, the estimate runs on a
// subsample drawn from a sub-stream derived from r, so the Monte Carlo
// stream itself is unaffected and the sample is a pure function of
// (Seed, subspace). The loop then reads a sample-local view built in sc:
// local row ids 0..m−1 with their own sorted order, ranks and values.
func (e *Evaluator) ContrastContext(ctx context.Context, s subspace.Subspace, r *rng.RNG, sc *Scratch) (float64, error) {
	d := s.Dim()
	if d < 2 {
		return 0, ctx.Err()
	}
	p := e.params

	rows := e.ds.N()
	var cols []column
	if e.subsampled() {
		rows = p.MaxSampleRows
		cols = e.sampleView(s, r.Derive(sampleStream), rows, sc)
		mContrastSampleRows.Add(int64(rows))
	} else {
		cols = resize(sc.view, d)
		for i, attr := range s {
			cols[i] = column{order: e.ds.SortedIndex(attr), rank: e.rank[attr], vals: e.ds.Col(attr)}
		}
		sc.view = cols
	}

	// α1 = |S|-th root of α: each of the |S|−1 conditions keeps an index
	// block of rows·α1 objects so that E[N'] = rows·α1^{|S|−1} ≥ rows·α
	// (Eq. 7; the paper sizes blocks with the |S|-th root, keeping N'
	// slightly above the target for the final test statistic).
	alpha1 := math.Pow(p.Alpha, 1/float64(d))
	blockSize := int(math.Round(alpha1 * float64(rows)))
	if blockSize < 1 {
		blockSize = 1
	}
	if blockSize > rows {
		blockSize = rows
	}

	sc.perm, sc.starts = resize(sc.perm, d), resize(sc.starts, d-1)
	sc.sel, sc.cond = resize(sc.sel, blockSize), resize(sc.cond, blockSize)
	perm, starts := sc.perm, sc.starts

	sum := 0.0
	for iter := 0; iter < p.M; iter++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		r.PermInto(perm)
		for j := range starts {
			starts[j] = r.Intn(rows - blockSize + 1)
		}

		// Conditional sample of the remaining attribute: the rows of the
		// first block that lie inside every further block.
		sel := cols[perm[0]].order[starts[0] : starts[0]+blockSize]
		for j := 1; j < d-1; j++ {
			sel = keepInBlock(sc.sel, sel, cols[perm[j]].rank, starts[j], blockSize)
		}
		last := cols[perm[d-1]].vals
		cond := sc.cond[:len(sel)]
		for i, id := range sel {
			cond[i] = last[id]
		}

		sum += e.deviation(s[perm[d-1]], cond)
	}
	return sum / float64(p.M), nil
}

// keepInBlock writes to dst, in order, the ids of src whose rank lies in
// [start, start+size), and returns that prefix of dst. dst may share
// src's backing array (in-place compaction): each id is read before its
// slot can be overwritten.
func keepInBlock(dst, src []int, rank []int32, start, size int) []int {
	dst = dst[:len(src)]
	lo, n := int32(start), 0
	for _, id := range src {
		dst[n] = id
		if uint32(rank[id]-lo) < uint32(size) {
			n++
		}
	}
	return dst[:n]
}

// resize returns buf with length n, reallocating only when it is too short.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// sampleStream labels the sub-stream a subspace's row subsample is drawn
// from. Derive does not advance the parent, so the Monte Carlo stream of a
// subsampled run starts at the same state as a full-data run's.
const sampleStream = 0x5a3c9d17

// sampleView draws m distinct row ids from [0, N) on the given stream —
// the frozen per-candidate row subsample of a bounded contrast estimate —
// and builds in sc, per subspace position, the sample's view of that
// attribute. Rows are addressed by local id, their position among the
// ascending drawn ids, and ties in the local sorted order break toward the
// lower local id, which is the lower row id: the sample's analog of
// dataset.SortedIndex.
func (e *Evaluator) sampleView(s subspace.Subspace, r *rng.RNG, m int, sc *Scratch) []column {
	n := e.ds.N()
	// Floyd's sampling: m distinct ids in O(m) expected time, no N-sized
	// allocation.
	if sc.chosen == nil {
		sc.chosen = make(map[int]struct{}, m)
	}
	clear(sc.chosen)
	ids := resize(sc.ids, m)[:0]
	for i := n - m; i < n; i++ {
		j := r.Intn(i + 1)
		if _, dup := sc.chosen[j]; dup {
			j = i
		}
		sc.chosen[j] = struct{}{}
		ids = append(ids, j)
	}
	slices.Sort(ids)
	sc.ids = ids

	for len(sc.sample) < s.Dim() {
		sc.sample = append(sc.sample, column{order: make([]int, m), rank: make([]int32, m), vals: make([]float64, m)})
	}
	cols := sc.sample[:s.Dim()]
	for i, attr := range s {
		c := cols[i]
		src := e.ds.Col(attr)
		for k, id := range ids {
			c.order[k] = k
			c.vals[k] = src[id]
		}
		slices.SortFunc(c.order, func(a, b int) int {
			switch {
			case c.vals[a] < c.vals[b]:
				return -1
			case c.vals[a] > c.vals[b]:
				return 1
			default:
				return a - b
			}
		})
		setRanks(c.rank, c.order)
	}
	return cols
}

// deviation compares the conditional sample of attribute attr to its
// marginal distribution with the configured test. Conditional samples too
// small to test contribute zero deviation — the conservative choice, since
// no evidence of dependence was obtained.
func (e *Evaluator) deviation(attr int, cond []float64) float64 {
	switch e.params.Test {
	case KolmogorovSmirnov:
		if len(cond) == 0 {
			return 0
		}
		sort.Float64s(cond)
		return stats.KSStatSorted(e.sortedVals[attr], cond)
	case MannWhitney:
		if len(cond) < 2 {
			return 0
		}
		return stats.MannWhitneyDeviation(e.sortedVals[attr], cond)
	case CramerVonMises:
		if len(cond) == 0 {
			return 0
		}
		sort.Float64s(cond)
		return stats.CramerVonMisesSorted(e.sortedVals[attr], cond)
	default: // WelchT
		if len(cond) < 2 {
			return 0
		}
		condMean, condVar := stats.MeanVar(cond)
		res := stats.WelchTestMoments(
			e.margMean[attr], e.margVar[attr], float64(e.ds.N()),
			condMean, condVar, float64(len(cond)),
		)
		return 1 - res.P
	}
}

// ContrastOf is a convenience wrapper: it computes the contrast of a single
// subspace with a self-contained evaluator, stream and scratch.
func ContrastOf(ds *dataset.Dataset, s subspace.Subspace, p Params) (float64, error) {
	if err := s.Validate(ds.D()); err != nil {
		return 0, err
	}
	if s.Dim() < 2 {
		return 0, fmt.Errorf("core: contrast needs at least 2 dimensions, got %d", s.Dim())
	}
	e := NewEvaluator(ds, p)
	r := rng.New(p.Seed).Derive(hashSubspace(s))
	return e.Contrast(s, r, e.NewScratch()), nil
}

// hashSubspace maps a subspace to a stable stream label (FNV-1a over the
// dimension list) so that the Monte Carlo result for a subspace does not
// depend on evaluation order or worker scheduling.
func hashSubspace(s subspace.Subspace) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, d := range s {
		v := uint64(d)
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	return h
}
