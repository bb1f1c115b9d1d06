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
	// TopK bounds the final number of subspaces returned by Search.
	// Set to -1 to return all.
	TopK int
	// Test selects HiCS_WT (default) or HiCS_KS.
	Test Test
	// Seed makes the Monte Carlo loop reproducible. Derived streams are
	// keyed by subspace, so results are independent of evaluation order.
	Seed uint64
	// Workers bounds the number of concurrent contrast evaluations during
	// Search; 0 means one per available CPU.
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

// Evaluator computes subspace contrasts for one dataset. It caches the
// per-attribute artifacts both deviation functions need: sorted value
// arrays (KS marginals) and marginal moments (Welch marginals).
// An Evaluator is safe for concurrent Contrast calls as long as each call
// uses its own *rng.RNG and scratch (see NewScratch).
type Evaluator struct {
	ds     *dataset.Dataset
	params Params

	sortedVals [][]float64 // per attribute, ascending
	margMean   []float64
	margVar    []float64
}

// NewEvaluator prepares contrast evaluation for ds.
func NewEvaluator(ds *dataset.Dataset, p Params) *Evaluator {
	p = p.withDefaults()
	d := ds.D()
	e := &Evaluator{
		ds:         ds,
		params:     p,
		sortedVals: make([][]float64, d),
		margMean:   make([]float64, d),
		margVar:    make([]float64, d),
	}
	for j := 0; j < d; j++ {
		idx := ds.SortedIndex(j)
		col := ds.Col(j)
		sv := make([]float64, len(idx))
		for i, id := range idx {
			sv[i] = col[id]
		}
		e.sortedVals[j] = sv
		e.margMean[j], e.margVar[j] = stats.MeanVar(col)
	}
	return e
}

// Scratch holds the per-goroutine buffers of the Monte Carlo loop.
type Scratch struct {
	perm  []int     // permutation of subspace attributes
	count []int32   // conjunction counter per object
	stamp []int32   // iteration stamp for lazy counter reset
	iter  int32     // current stamp value
	cond  []float64 // conditional sample values
}

// NewScratch allocates scratch buffers sized for the evaluator's dataset.
func (e *Evaluator) NewScratch() *Scratch {
	return &Scratch{
		count: make([]int32, e.ds.N()),
		stamp: make([]int32, e.ds.N()),
		cond:  make([]float64, 0, e.ds.N()),
	}
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
// When Params.MaxSampleRows bounds the rows, the estimate runs on a
// subsample drawn from a sub-stream derived from r, so the Monte Carlo
// stream itself is unaffected and the sample is a pure function of
// (Seed, subspace).
func (e *Evaluator) ContrastContext(ctx context.Context, s subspace.Subspace, r *rng.RNG, sc *Scratch) (float64, error) {
	d := s.Dim()
	if d < 2 {
		return 0, ctx.Err()
	}
	p := e.params

	// sorted[i] is the slicing order of the estimate's rows by attribute
	// s[i]: the dataset's full sorted index, or the subsample's.
	rows := e.ds.N()
	var sorted [][]int
	if p.MaxSampleRows > 0 && rows > p.MaxSampleRows {
		rows = p.MaxSampleRows
		sorted = e.sampleSortedIndex(s, r.Derive(sampleStream), rows)
		mContrastSampleRows.Add(int64(rows))
	} else {
		sorted = make([][]int, d)
		for i, attr := range s {
			sorted[i] = e.ds.SortedIndex(attr)
		}
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

	if cap(sc.perm) < d {
		sc.perm = make([]int, d)
	}
	perm := sc.perm[:d]

	sum := 0.0
	for iter := 0; iter < p.M; iter++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		sc.iter++
		if sc.iter < 0 {
			// The int32 stamp wrapped around. Old stamp values would
			// collide with reused counter values and silently corrupt the
			// conjunction counts, so reset the lazy-clearing state.
			for i := range sc.stamp {
				sc.stamp[i] = 0
			}
			sc.iter = 1
		}
		r.PermInto(perm)

		// Apply |S|−1 conditions; remember the first block to enumerate the
		// conjunction (the selected set is a subset of every block).
		var firstBlock []int
		need := int32(d - 1)
		for j := 0; j < d-1; j++ {
			idx := sorted[perm[j]]
			start := r.Intn(rows - blockSize + 1)
			block := idx[start : start+blockSize]
			if j == 0 {
				firstBlock = block
			}
			for _, id := range block {
				if sc.stamp[id] != sc.iter {
					sc.stamp[id] = sc.iter
					sc.count[id] = 1
				} else {
					sc.count[id]++
				}
			}
		}

		// Conditional sample of the remaining attribute.
		lastAttr := s[perm[d-1]]
		col := e.ds.Col(lastAttr)
		cond := sc.cond[:0]
		for _, id := range firstBlock {
			if sc.stamp[id] == sc.iter && sc.count[id] == need {
				cond = append(cond, col[id])
			}
		}
		sc.cond = cond

		sum += e.deviation(lastAttr, cond)
	}
	return sum / float64(p.M), nil
}

// sampleStream labels the sub-stream a subspace's row subsample is drawn
// from. Derive does not advance the parent, so the Monte Carlo stream of a
// subsampled run starts at the same state as a full-data run's.
const sampleStream = 0x5a3c9d17

// sampleSortedIndex draws m distinct row ids from [0, N) on the given
// stream — the frozen per-candidate row subsample of a bounded contrast
// estimate — and returns, per subspace position, the sample sorted by that
// attribute's values (the sample's analog of dataset.SortedIndex, with
// the same ascending-id tie order).
func (e *Evaluator) sampleSortedIndex(s subspace.Subspace, r *rng.RNG, m int) [][]int {
	n := e.ds.N()
	// Floyd's sampling: m distinct ids in O(m) expected time, no N-sized
	// allocation.
	chosen := make(map[int]struct{}, m)
	ids := make([]int, 0, m)
	for i := n - m; i < n; i++ {
		j := r.Intn(i + 1)
		if _, dup := chosen[j]; dup {
			j = i
		}
		chosen[j] = struct{}{}
		ids = append(ids, j)
	}
	sort.Ints(ids)

	sorted := make([][]int, s.Dim())
	for i, attr := range s {
		col := e.ds.Col(attr)
		so := append([]int(nil), ids...)
		// Ties break toward the lower id, matching dataset.SortedIndex.
		sort.Slice(so, func(a, b int) bool {
			if col[so[a]] != col[so[b]] {
				return col[so[a]] < col[so[b]]
			}
			return so[a] < so[b]
		})
		sorted[i] = so
	}
	return sorted
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
