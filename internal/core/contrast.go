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
	"math/bits"
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
// An Evaluator is safe for concurrent ContrastContext calls as long as
// each call uses its own *rng.RNG and scratch (see NewScratch).
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
// selection vector and each of the conditional samples hold at most one
// index block, and a subsampled estimate's sample view (drawn ids, and per
// subspace attribute the sample's values, sorted order and ranks) holds
// MaxSampleRows rows, except the draw's membership set of N bits. A
// Scratch serves only the Evaluator that made it.
type Scratch struct {
	perm   []int                 // permutation of subspace positions
	starts []int                 // index block start per condition
	sel    []int                 // selection vector: row ids inside every block so far
	cond   [welchLanes][]float64 // conditional samples, one per lane of a Welch group
	view   []column              // per subspace position, the full-data view

	chosen []uint64 // Floyd's membership set, one bit per row; all zero between draws
	ids    []int    // the subsample's row ids, ascending
	sample []column // per subspace position, the sample-local view
	keys   []uint64 // radix sort: order-preserving keys of one column
	keys2  []uint64 // radix sort: the keys' scatter buffer
	order2 []int    // radix sort: the order's scatter buffer
}

// NewScratch returns empty scratch space for the evaluator; its buffers
// grow on first use.
func (e *Evaluator) NewScratch() *Scratch {
	return &Scratch{}
}

// ContrastContext computes the HiCS contrast of subspace s (Definition 5)
// using the provided random stream and scratch space. Subspaces must have
// at least two dimensions; one-dimensional input yields zero (no notion
// of correlation, Sec. IV-B). The Monte Carlo loop checks ctx once per
// group of iterations (four for Welch's test, one for the others) and
// returns ctx.Err() when it fires. The check never touches the random
// stream, so an uncancelled call depends on r alone.
//
// Each iteration draws a permutation of the subspace's attributes and one
// index block start per condition. The conditional sample is then found
// with a selection vector: the first condition's block is walked in
// sorted order, and each further condition keeps the rows whose rank
// falls inside its block, compacting the vector in place. The survivors
// keep the first block's order, so the sample is deterministic; for a
// two-dimensional subspace it is a plain gather of the block.
//
// Welch's test runs the iterations in groups of four. Each iteration of a
// group draws its slice in turn, so the random stream is consumed exactly
// as one iteration at a time would consume it, and gathers its sample
// into its own buffer. One stats.MeanVar4 call then computes the four
// samples' moments with their Welford chains side by side, and the
// deviations are added in iteration order, so the contrast keeps its
// bits. A final group of fewer than four fills its empty lanes with its
// own first sample and discards their results.
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
	sc.sel = resize(sc.sel, blockSize)
	lanes := 1
	if p.Test == WelchT {
		lanes = welchLanes
	}
	for l := range lanes {
		sc.cond[l] = resize(sc.cond[l], blockSize)
	}

	sum := 0.0
	for iter := 0; iter < p.M; iter += lanes {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		g := min(lanes, p.M-iter)
		var conds [welchLanes][]float64
		var attrs [welchLanes]int
		for l := 0; l < g; l++ {
			attrs[l], conds[l] = drawSample(s, cols, rows, blockSize, r, sc, sc.cond[l])
		}
		if lanes == 1 {
			sum += e.deviation(attrs[0], conds[0])
			continue
		}
		// A final partial group fills its empty lanes with its own first
		// sample and discards their results.
		for l := g; l < lanes; l++ {
			conds[l] = conds[0]
		}
		mean, variance := stats.MeanVar4(conds)
		for l := 0; l < g; l++ {
			sum += e.welchDeviation(attrs[l], len(conds[l]), mean[l], variance[l])
		}
	}
	return sum / float64(p.M), nil
}

// drawSample draws one Monte Carlo iteration's slice from r — a
// permutation of the subspace's positions, then one index block start per
// condition — and gathers into dst the conditional sample of the remaining
// attribute: the rows of the first block that lie inside every further
// block. It returns that attribute and the sample.
func drawSample(s subspace.Subspace, cols []column, rows, blockSize int, r *rng.RNG, sc *Scratch, dst []float64) (int, []float64) {
	perm, starts := sc.perm, sc.starts
	r.PermInto(perm)
	for j := range starts {
		starts[j] = r.Intn(rows - blockSize + 1)
	}
	sel := cols[perm[0]].order[starts[0] : starts[0]+blockSize]
	for j := 1; j < len(perm)-1; j++ {
		sel = keepInBlock(sc.sel, sel, cols[perm[j]].rank, starts[j], blockSize)
	}
	last := cols[perm[len(perm)-1]].vals
	dst = dst[:len(sel)]
	for i, id := range sel {
		dst[i] = last[id]
	}
	return s[perm[len(perm)-1]], dst
}

// welchLanes is the number of Monte Carlo iterations a Welch estimate
// runs as one group: stats.MeanVar4 computes their moments in one pass,
// with four independent Welford chains side by side.
const welchLanes = 4

// keepInBlock writes to dst, in order, the ids of src whose rank lies in
// [start, start+size), and returns that prefix of dst. dst may share
// src's backing array (in-place compaction): each id is read before its
// slot can be overwritten.
//
// It stays out of line: inlined into drawSample, its loop index and count
// spill to the stack, and the store-to-load round trip on the count
// lengthens the loop's carried dependency; on the d = 4..8 cases of
// BenchmarkContrast the inlined filter made an estimate 1.2–1.6× slower.
//
//go:noinline
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
	// Floyd's sampling: m distinct ids in O(m) draws, marked in an n-bit
	// set. Reading the set word by word lists them ascending and leaves
	// it empty for the next draw.
	set := resize(sc.chosen, (n+63)/64)
	for i := n - m; i < n; i++ {
		j := r.Intn(i + 1)
		if set[j>>6]&(1<<(j&63)) != 0 {
			j = i
		}
		set[j>>6] |= 1 << (j & 63)
	}
	sc.chosen = set
	ids := resize(sc.ids, m)[:0]
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			ids = append(ids, w<<6|bits.TrailingZeros64(word))
		}
		set[w] = 0
	}
	sc.ids = ids

	for len(sc.sample) < s.Dim() {
		sc.sample = append(sc.sample, column{order: make([]int, m), rank: make([]int32, m), vals: make([]float64, m)})
	}
	cols := sc.sample[:s.Dim()]
	for i, attr := range s {
		c := cols[i]
		src := e.ds.Col(attr)
		for k, id := range ids {
			c.vals[k] = src[id]
		}
		sc.radixOrder(c.order, c.vals)
		setRanks(c.rank, c.order)
	}
	return cols
}

// sortKey maps v to a key whose unsigned order is v's numeric order, with
// −0 and +0 equal: negative values have every bit flipped, the others
// their sign bit set.
func sortKey(v float64) uint64 {
	if v == 0 {
		v = 0 // −0 → +0
	}
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// radixOrder fills order with 0..len(vals)−1 sorted by value, ties toward
// the lower index: an LSD radix sort of sortKey, one byte per pass, which
// is stable from the ascending start. A pass whose byte is the same in
// every key leaves the order as it is and is skipped.
func (sc *Scratch) radixOrder(order []int, vals []float64) {
	m := len(vals)
	sc.keys, sc.keys2, sc.order2 = resize(sc.keys, m), resize(sc.keys2, m), resize(sc.order2, m)
	keys, keys2, order2 := sc.keys, sc.keys2, sc.order2
	var counts [8][256]int32
	for k, v := range vals {
		key := sortKey(v)
		keys[k], order[k] = key, k
		for p := range counts {
			counts[p][byte(key>>(8*p))]++
		}
	}
	src, dst := order, order2
	for p := range counts {
		c := &counts[p]
		shift := 8 * p
		if c[byte(keys[0]>>shift)] == int32(m) {
			continue
		}
		sum := int32(0)
		for d, cnt := range c {
			c[d], sum = sum, sum+cnt
		}
		for k, key := range keys {
			d := byte(key >> shift)
			keys2[c[d]], dst[c[d]] = key, src[k]
			c[d]++
		}
		keys, keys2 = keys2, keys
		src, dst = dst, src
	}
	if &src[0] != &order[0] {
		copy(order, src)
	}
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
		slices.Sort(cond)
		return 1 - stats.MannWhitneySorted(e.sortedVals[attr], cond).P
	case CramerVonMises:
		if len(cond) == 0 {
			return 0
		}
		sort.Float64s(cond)
		return stats.CramerVonMisesSorted(e.sortedVals[attr], cond)
	default: // WelchT
		condMean, condVar := stats.MeanVar(cond)
		return e.welchDeviation(attr, len(cond), condMean, condVar)
	}
}

// welchDeviation is Welch's deviation, 1 − p, of a conditional sample of
// attribute attr with n values and the given moments. A sample of fewer
// than two values contributes zero.
func (e *Evaluator) welchDeviation(attr, n int, mean, variance float64) float64 {
	if n < 2 {
		return 0
	}
	res := stats.WelchTestMoments(
		e.margMean[attr], e.margVar[attr], float64(e.ds.N()),
		mean, variance, float64(n),
	)
	return 1 - res.P
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
	return e.ContrastContext(context.Background(), s, r, e.NewScratch())
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
