package subspace

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"hics/internal/rng"
)

func TestNewCanonical(t *testing.T) {
	s := New(3, 1, 2, 1, 3)
	want := Subspace{1, 2, 3}
	if !s.Equal(want) {
		t.Errorf("New = %v, want %v", s, want)
	}
	if New().Dim() != 0 {
		t.Error("empty New should have dim 0")
	}
}

func TestFull(t *testing.T) {
	f := Full(4)
	if !f.Equal(Subspace{0, 1, 2, 3}) {
		t.Errorf("Full(4) = %v", f)
	}
	if Full(0).Dim() != 0 {
		t.Error("Full(0) should be empty")
	}
}

func TestContains(t *testing.T) {
	s := New(1, 4, 7)
	for _, d := range []int{1, 4, 7} {
		if !s.Contains(d) {
			t.Errorf("Contains(%d) = false", d)
		}
	}
	for _, d := range []int{0, 2, 5, 8} {
		if s.Contains(d) {
			t.Errorf("Contains(%d) = true", d)
		}
	}
}

func TestEqual(t *testing.T) {
	if !New(1, 2).Equal(New(2, 1)) {
		t.Error("canonical order should make {1,2} == {2,1}")
	}
	if New(1, 2).Equal(New(1, 2, 3)) {
		t.Error("different dims should differ")
	}
	if New(1, 2).Equal(New(1, 3)) {
		t.Error("different members should differ")
	}
}

func TestSupersetOf(t *testing.T) {
	s := New(1, 3, 5, 7)
	cases := []struct {
		t    Subspace
		want bool
	}{
		{New(1, 3), true},
		{New(3, 7), true},
		{New(), true},
		{New(1, 3, 5, 7), true},
		{New(1, 2), false},
		{New(1, 3, 5, 7, 9), false},
		{New(8), false},
	}
	for _, c := range cases {
		if got := s.SupersetOf(c.t); got != c.want {
			t.Errorf("%v ⊇ %v = %v, want %v", s, c.t, got, c.want)
		}
	}
}

func TestKeyString(t *testing.T) {
	s := New(0, 10, 2)
	if s.Key() != "0-2-10" {
		t.Errorf("Key = %q", s.Key())
	}
	if s.String() != "{0, 2, 10}" {
		t.Errorf("String = %q", s.String())
	}
}

func TestClone(t *testing.T) {
	s := New(1, 2)
	c := s.Clone()
	c[0] = 99
	if s[0] != 1 {
		t.Error("Clone shares storage")
	}
}

func TestJoin(t *testing.T) {
	m, ok := Join(New(1, 2), New(1, 3))
	if !ok || !m.Equal(New(1, 2, 3)) {
		t.Errorf("Join = %v, %v", m, ok)
	}
	// Reversed order of last element.
	m, ok = Join(New(1, 5), New(1, 3))
	if !ok || !m.Equal(New(1, 3, 5)) {
		t.Errorf("Join unsorted tails = %v, %v", m, ok)
	}
	if _, ok := Join(New(1, 2), New(3, 4)); ok {
		t.Error("differing prefixes should not join")
	}
	if _, ok := Join(New(1, 2), New(1, 2)); ok {
		t.Error("identical subspaces should not join")
	}
	if _, ok := Join(New(1, 2), New(1, 2, 3)); ok {
		t.Error("dimension mismatch should not join")
	}
	if _, ok := Join(New(), New()); ok {
		t.Error("empty join should fail")
	}
}

func TestAllPairs(t *testing.T) {
	ps := AllPairs(4)
	if len(ps) != 6 {
		t.Fatalf("AllPairs(4) has %d entries", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if p.Dim() != 2 {
			t.Errorf("pair %v has dim %d", p, p.Dim())
		}
		seen[p.Key()] = true
	}
	if len(seen) != 6 {
		t.Error("duplicate pairs")
	}
	if AllPairs(1) != nil {
		t.Error("AllPairs(1) should be nil")
	}
}

func TestGenerateCandidates(t *testing.T) {
	parents := []Subspace{New(1, 2), New(1, 3), New(2, 3), New(4, 5)}
	cands := GenerateCandidates(parents)
	// Joinable: {1,2}+{1,3} → {1,2,3}. {2,3} and {4,5} share no prefix.
	if len(cands) != 1 || !cands[0].Equal(New(1, 2, 3)) {
		t.Errorf("candidates = %v", cands)
	}
}

func TestGenerateCandidatesDedup(t *testing.T) {
	parents := []Subspace{New(1, 2), New(1, 3), New(1, 4)}
	cands := GenerateCandidates(parents)
	// Joins: {1,2,3}, {1,2,4}, {1,3,4} — all distinct.
	if len(cands) != 3 {
		t.Errorf("candidates = %v", cands)
	}
}

func TestGenerateCandidatesEmpty(t *testing.T) {
	if GenerateCandidates(nil) != nil {
		t.Error("nil parents should give nil")
	}
	if GenerateCandidates([]Subspace{New(1, 2)}) != nil {
		t.Error("single parent should give nil")
	}
}

// LevelWise keeps the cutoff best candidates per level, joins them into
// the next level, stops at maxDim, and passes the callback's error on.
func TestLevelWise(t *testing.T) {
	// Lower dims score higher, so the kept pairs share the prefix {0}.
	negSum := func(_ context.Context, cands []Subspace) ([]Scored, error) {
		out := make([]Scored, len(cands))
		for i, s := range cands {
			out[i] = Scored{S: s}
			for _, d := range s {
				out[i].Score -= float64(d)
			}
		}
		return out, nil
	}
	for _, tc := range []struct {
		maxDim int
		want   string
	}{
		{0, "[[{{0, 1} -1} {{0, 2} -2}] [{{0, 1, 2} -3}]]"},
		{3, "[[{{0, 1} -1} {{0, 2} -2}] [{{0, 1, 2} -3}]]"},
		{2, "[[{{0, 1} -1} {{0, 2} -2}]]"},
		{1, "[]"},
	} {
		levels, err := LevelWise(context.Background(), 5, 2, tc.maxDim, negSum)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(levels); got != tc.want {
			t.Errorf("maxDim %d: levels %s, want %s", tc.maxDim, got, tc.want)
		}
	}

	boom := errors.New("boom")
	_, err := LevelWise(context.Background(), 5, 2, 0, func(context.Context, []Subspace) ([]Scored, error) {
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want the callback's", err)
	}
}

func TestSortScoredDesc(t *testing.T) {
	list := []Scored{
		{New(3, 4), 0.5},
		{New(1, 2), 0.9},
		{New(0, 5), 0.5},
	}
	SortScoredDesc(list)
	if !list[0].S.Equal(New(1, 2)) {
		t.Errorf("first = %v", list[0])
	}
	// Ties broken by canonical key: {0,5} before {3,4}.
	if !list[1].S.Equal(New(0, 5)) || !list[2].S.Equal(New(3, 4)) {
		t.Errorf("tie order = %v, %v", list[1].S, list[2].S)
	}
}

func TestPruneRedundant(t *testing.T) {
	list := []Scored{
		{New(1, 2), 0.8},  // dominated by {1,2,3} (higher score superset)
		{New(1, 3), 0.95}, // kept: superset has lower score
		{New(1, 2, 3), 0.9},
		{New(4, 5), 0.7}, // kept: no superset present
	}
	out := PruneRedundant(list)
	keys := map[string]bool{}
	for _, sc := range out {
		keys[sc.S.Key()] = true
	}
	if keys["1-2"] {
		t.Error("{1,2} should be pruned")
	}
	if !keys["1-3"] || !keys["1-2-3"] || !keys["4-5"] {
		t.Errorf("pruned list = %v", out)
	}
}

func TestPruneRedundantEqualScore(t *testing.T) {
	// Strictly higher score required: equal-score superset does not prune.
	list := []Scored{
		{New(1, 2), 0.9},
		{New(1, 2, 3), 0.9},
	}
	if out := PruneRedundant(list); len(out) != 2 {
		t.Errorf("equal-score superset should not prune, got %v", out)
	}
}

func TestTopK(t *testing.T) {
	list := []Scored{
		{New(1, 2), 0.1},
		{New(1, 3), 0.9},
		{New(1, 4), 0.5},
	}
	top := TopK(list, 2)
	if len(top) != 2 || top[0].Score != 0.9 || top[1].Score != 0.5 {
		t.Errorf("TopK = %v", top)
	}
	// k<=0 means "all".
	if len(TopK(list, 0)) != 3 {
		t.Error("TopK(0) should return all")
	}
	// Input untouched.
	if list[0].Score != 0.1 {
		t.Error("TopK modified its input")
	}
}

func TestValidate(t *testing.T) {
	if err := New(0, 2, 4).Validate(5); err != nil {
		t.Errorf("valid subspace rejected: %v", err)
	}
	if err := New(0, 5).Validate(5); err == nil {
		t.Error("out-of-range dimension accepted")
	}
	if err := (Subspace{2, 1}).Validate(5); err == nil {
		t.Error("non-canonical order accepted")
	}
	if err := (Subspace{1, 1}).Validate(5); err == nil {
		t.Error("duplicate dimension accepted")
	}
}

// Property: Join output is canonical, has dim+1, and is a superset of both parents.
func TestQuickJoinProperties(t *testing.T) {
	f := func(seed uint64, dim uint8) bool {
		r := rng.New(seed)
		d := int(dim%4) + 2
		// Construct two parents sharing a prefix.
		prefix := make([]int, d-1)
		used := map[int]bool{}
		for i := range prefix {
			v := r.Intn(50)
			for used[v] {
				v = r.Intn(50)
			}
			used[v] = true
			prefix[i] = v
		}
		t1, t2 := -1, -1
		for t1 == t2 || used[t1] || used[t2] {
			t1, t2 = r.Intn(50)+50, r.Intn(50)+50
		}
		a := New(append(append([]int{}, prefix...), t1)...)
		b := New(append(append([]int{}, prefix...), t2)...)
		// After canonicalization the shared prefix may not be leading, so a
		// successful join is not guaranteed — but when it succeeds the result
		// must be sound.
		m, ok := Join(a, b)
		if !ok {
			return true
		}
		if m.Dim() != d+1 {
			return false
		}
		if m.Validate(100) != nil {
			return false
		}
		return m.SupersetOf(a) && m.SupersetOf(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: New always yields a canonical subspace.
func TestQuickNewCanonical(t *testing.T) {
	f := func(dims []int) bool {
		clip := make([]int, 0, len(dims))
		for _, d := range dims {
			v := d % 100
			if v < 0 {
				v = -v
			}
			clip = append(clip, v)
		}
		return New(clip...).Validate(100) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: PruneRedundant never increases the list and survivors are a sublist.
func TestQuickPruneSound(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		r := rng.New(seed)
		list := make([]Scored, int(n%20)+1)
		for i := range list {
			dims := make([]int, r.IntRange(2, 4))
			for j := range dims {
				dims[j] = r.Intn(8)
			}
			list[i] = Scored{S: New(dims...), Score: r.Float64()}
		}
		out := PruneRedundant(list)
		if len(out) > len(list) {
			return false
		}
		// Every survivor must appear in the input.
		for _, sc := range out {
			found := false
			for _, in := range list {
				if in.S.Equal(sc.S) && in.Score == sc.Score {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
