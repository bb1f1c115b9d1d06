// Package subspace provides the dimension-set algebra behind the HiCS
// subspace framework: canonical subspace values, the Apriori-style join
// that builds (d+1)-dimensional candidates from d-dimensional ones, the
// redundancy pruning of dominated subspaces (paper Sec. IV-B), and
// LevelWise, the level-wise search driver that HiCS, Enclus, RIS and
// SURFING share; each supplies only its per-level scoring.
package subspace

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Subspace is a set of attribute indices in strictly ascending order.
// The canonical ordering makes equality, hashing and the Apriori join
// cheap. Use New to construct a canonical value from arbitrary input.
type Subspace []int

// New returns a canonical Subspace from the given dimensions: sorted
// ascending with duplicates removed.
func New(dims ...int) Subspace {
	s := append(Subspace(nil), dims...)
	sort.Ints(s)
	out := s[:0]
	for i, d := range s {
		if i == 0 || d != s[i-1] {
			out = append(out, d)
		}
	}
	return out
}

// Full returns the full space {0, ..., d-1}.
func Full(d int) Subspace {
	s := make(Subspace, d)
	for i := range s {
		s[i] = i
	}
	return s
}

// Dim returns the dimensionality |S|.
func (s Subspace) Dim() int { return len(s) }

// Contains reports whether dimension d is part of the subspace.
func (s Subspace) Contains(d int) bool {
	i := sort.SearchInts(s, d)
	return i < len(s) && s[i] == d
}

// Equal reports whether two subspaces contain exactly the same dimensions.
func (s Subspace) Equal(t Subspace) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// SupersetOf reports whether s ⊇ t.
func (s Subspace) SupersetOf(t Subspace) bool {
	if len(t) > len(s) {
		return false
	}
	i := 0
	for _, d := range t {
		for i < len(s) && s[i] < d {
			i++
		}
		if i >= len(s) || s[i] != d {
			return false
		}
		i++
	}
	return true
}

// Key returns a canonical string key, e.g. "1-4-7", suitable for map
// deduplication.
func (s Subspace) Key() string {
	var b strings.Builder
	for i, d := range s {
		if i > 0 {
			b.WriteByte('-')
		}
		b.WriteString(strconv.Itoa(d))
	}
	return b.String()
}

// String renders the subspace as e.g. "{1, 4, 7}".
func (s Subspace) String() string {
	parts := make([]string, len(s))
	for i, d := range s {
		parts[i] = strconv.Itoa(d)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Clone returns an independent copy.
func (s Subspace) Clone() Subspace {
	return append(Subspace(nil), s...)
}

// Join merges two d-dimensional subspaces into a (d+1)-dimensional
// candidate when they share the same d−1 leading dimensions, the classical
// Apriori join on the canonical ordering. ok is false when the prefixes
// differ or the dimensionalities do not match.
func Join(a, b Subspace) (merged Subspace, ok bool) {
	if len(a) != len(b) || len(a) == 0 {
		return nil, false
	}
	d := len(a)
	for i := 0; i < d-1; i++ {
		if a[i] != b[i] {
			return nil, false
		}
	}
	if a[d-1] == b[d-1] {
		return nil, false
	}
	lo, hi := a[d-1], b[d-1]
	if lo > hi {
		lo, hi = hi, lo
	}
	merged = make(Subspace, 0, d+1)
	merged = append(merged, a[:d-1]...)
	merged = append(merged, lo, hi)
	return merged, true
}

// Scored couples a subspace with its contrast (or other quality) score.
type Scored struct {
	S     Subspace
	Score float64
}

// SortScoredDesc orders scored subspaces by descending score; ties are
// broken by the canonical key so that ordering is deterministic.
func SortScoredDesc(list []Scored) {
	sort.SliceStable(list, func(i, j int) bool {
		if list[i].Score != list[j].Score {
			return list[i].Score > list[j].Score
		}
		return compare(list[i].S, list[j].S) < 0
	})
}

func compare(a, b Subspace) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

// AllPairs enumerates every two-dimensional subspace of a D-dimensional
// space — the starting level of the HiCS framework.
func AllPairs(d int) []Subspace {
	if d < 2 {
		return nil
	}
	out := make([]Subspace, 0, d*(d-1)/2)
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			out = append(out, Subspace{i, j})
		}
	}
	return out
}

// GenerateCandidates performs the Apriori candidate generation: it joins
// every compatible pair of d-dimensional parents and keeps the merged
// candidates deduplicated. Following the paper's framework, no subset-
// closure check is applied (contrast is not monotone, see Fig. 3); the
// join itself is the heuristic.
//
// Parents must all have the same dimensionality; candidates are returned
// in deterministic order.
func GenerateCandidates(parents []Subspace) []Subspace {
	if len(parents) < 2 {
		return nil
	}
	// Sort parents canonically so joins scan deterministically.
	sorted := make([]Subspace, len(parents))
	copy(sorted, parents)
	sort.SliceStable(sorted, func(i, j int) bool { return compare(sorted[i], sorted[j]) < 0 })

	seen := make(map[string]bool)
	var out []Subspace
	for i := 0; i < len(sorted); i++ {
		for j := i + 1; j < len(sorted); j++ {
			m, ok := Join(sorted[i], sorted[j])
			if !ok {
				// Parents are sorted; once prefixes diverge no later j matches.
				if !samePrefix(sorted[i], sorted[j]) {
					break
				}
				continue
			}
			if k := m.Key(); !seen[k] {
				seen[k] = true
				out = append(out, m)
			}
		}
	}
	return out
}

func samePrefix(a, b Subspace) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a)-1; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// LevelWise runs the level-wise Apriori search over a d-dimensional space
// (Agrawal & Srikant, VLDB 1994; paper Sec. IV-B): it scores every pair,
// keeps the cutoff highest-scoring candidates of the level (all of them
// when cutoff ≤ 0), joins the kept ones into the next level's candidates
// and repeats until the join yields nothing. Levels above maxDim are not
// scored; maxDim ≤ 0 means no bound.
//
// score rates one level's candidates. It may drop candidates (a searcher's
// own rejection rule); the score it returns is the cutoff key. LevelWise
// returns each scored level's kept candidates, sorted by descending score,
// and the first error score returns.
func LevelWise(ctx context.Context, d, cutoff, maxDim int, score func(ctx context.Context, candidates []Subspace) ([]Scored, error)) ([][]Scored, error) {
	var levels [][]Scored
	candidates := AllPairs(d)
	for dim := 2; len(candidates) > 0 && (maxDim <= 0 || dim <= maxDim); dim++ {
		scored, err := score(ctx, candidates)
		if err != nil {
			return nil, err
		}
		kept := TopK(scored, cutoff)
		levels = append(levels, kept)
		if dim == maxDim {
			break
		}
		parents := make([]Subspace, len(kept))
		for i, sc := range kept {
			parents[i] = sc.S
		}
		candidates = GenerateCandidates(parents)
	}
	return levels, nil
}

// PruneRedundant removes every d-dimensional subspace T for which the list
// contains a (d+1)-dimensional superset S with a strictly higher score
// (paper Sec. IV-B). The relative order of survivors is preserved.
func PruneRedundant(list []Scored) []Scored {
	// Bucket by dimensionality for the superset scan.
	byDim := make(map[int][]Scored)
	for _, sc := range list {
		byDim[sc.S.Dim()] = append(byDim[sc.S.Dim()], sc)
	}
	out := make([]Scored, 0, len(list))
	for _, sc := range list {
		dominated := false
		for _, sup := range byDim[sc.S.Dim()+1] {
			if sup.Score > sc.Score && sup.S.SupersetOf(sc.S) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, sc)
		}
	}
	return out
}

// TopK returns the k highest-scoring entries (or all if fewer), sorted
// descending. The input is not modified.
func TopK(list []Scored, k int) []Scored {
	cp := append([]Scored(nil), list...)
	SortScoredDesc(cp)
	if k > 0 && len(cp) > k {
		cp = cp[:k]
	}
	return cp
}

// Validate checks that the subspace is canonical and within [0, d).
func (s Subspace) Validate(d int) error {
	for i, v := range s {
		if v < 0 || v >= d {
			return fmt.Errorf("subspace: dimension %d out of range [0,%d)", v, d)
		}
		if i > 0 && s[i-1] >= v {
			return fmt.Errorf("subspace: not in canonical ascending order: %v", []int(s))
		}
	}
	return nil
}
