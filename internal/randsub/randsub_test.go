package randsub

import (
	"context"
	"testing"
	"testing/quick"

	"hics/internal/dataset"
)

func TestSelectCountAndBounds(t *testing.T) {
	const d = 20
	list, err := SelectContext(context.Background(), d, Params{Count: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 50 {
		t.Fatalf("got %d subspaces, want 50", len(list))
	}
	seen := map[string]bool{}
	for _, sc := range list {
		dim := sc.S.Dim()
		if dim < d/2 || dim > d-1 {
			t.Errorf("dim %d outside feature-bagging bounds [%d,%d]", dim, d/2, d-1)
		}
		if err := sc.S.Validate(d); err != nil {
			t.Errorf("invalid subspace: %v", err)
		}
		if seen[sc.S.Key()] {
			t.Errorf("duplicate subspace %v", sc.S)
		}
		seen[sc.S.Key()] = true
	}
}

func TestSelectDeterministic(t *testing.T) {
	a, _ := SelectContext(context.Background(), 10, Params{Count: 20, Seed: 42})
	b, _ := SelectContext(context.Background(), 10, Params{Count: 20, Seed: 42})
	for i := range a {
		if !a[i].S.Equal(b[i].S) {
			t.Fatal("same seed produced different selections")
		}
	}
	c, _ := SelectContext(context.Background(), 10, Params{Count: 20, Seed: 43})
	same := 0
	for i := range a {
		if a[i].S.Equal(c[i].S) {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical selections")
	}
}

// MaxDim below ⌊D/2⌋ pulls the lower bound down with it: every draw has
// exactly MaxDim attributes.
func TestSelectExplicitDims(t *testing.T) {
	list, err := SelectContext(context.Background(), 10, Params{Count: 30, MaxDim: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range list {
		if sc.S.Dim() != 3 {
			t.Errorf("dim %d, want 3", sc.S.Dim())
		}
	}
}

func TestSelectExhaustsSmallSpace(t *testing.T) {
	// Only 3 distinct 2-dim subspaces exist in a 3-dim space.
	list, err := SelectContext(context.Background(), 3, Params{Count: 100, MaxDim: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 {
		t.Errorf("exhaustion should stop at 3 subspaces, got %d", len(list))
	}
}

func TestSelectSmallD(t *testing.T) {
	if _, err := SelectContext(context.Background(), 1, Params{}); err == nil {
		t.Error("d=1 should fail")
	}
	// d=2: the lower bound clamps to 2, MaxDim = 1 -> clamped to valid.
	list, err := SelectContext(context.Background(), 2, Params{Count: 5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(list) == 0 {
		t.Error("d=2 should yield at least one subspace")
	}
}

func TestSearcherAdapter(t *testing.T) {
	ds := dataset.MustNew(nil, [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}})
	s := &Searcher{Params: Params{Count: 5, Seed: 1}}
	list, err := s.Search(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) == 0 {
		t.Error("adapter returned nothing")
	}
	if s.Name() != "RANDSUB" {
		t.Errorf("Name = %q", s.Name())
	}
}

// Property: every selected subspace is valid and within the dim bounds.
func TestQuickSelectValid(t *testing.T) {
	f := func(seed uint64, dRaw, countRaw uint8) bool {
		d := int(dRaw%30) + 2
		count := int(countRaw%50) + 1
		list, err := SelectContext(context.Background(), d, Params{Count: count, Seed: seed})
		if err != nil {
			return false
		}
		for _, sc := range list {
			if sc.S.Validate(d) != nil || sc.S.Dim() < 2 || sc.S.Dim() > d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
