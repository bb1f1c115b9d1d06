package registry

import (
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hics/internal/core"
	"hics/internal/neighbors"
	"hics/internal/race"
	"hics/internal/synth"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/golden_*.txt fixtures from the current methods")

// TestGoldenLevelWiseSearchers pins the output of every level-wise
// searcher and of RANDSUB (dims and score bits) over a grid of MaxDim,
// Cutoff and TopK. It covers the edges the searchers handle differently:
// with MaxDim 1, HiCS returns the scored pairs while Enclus, RIS and
// SURFING return nothing, Enclus derives its adaptive ω once, from the
// pair level, and RANDSUB draws 100 subspaces for every TopK ≤ 0.
// Rewrite the fixture (-update) only for an intended change of output.
//
// The pin checks arithmetic, not synchronization, and the race build
// takes about 30 s over its SURFING k-d trees, so it runs in normal
// builds only.
func TestGoldenLevelWiseSearchers(t *testing.T) {
	if race.Enabled {
		t.Skip("bit pin; runs without -race")
	}
	var b strings.Builder
	for _, d := range []int{6, 10} {
		bm, err := synth.Generate(synth.Config{N: 200, D: d, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		ds := bm.Data.Data
		for _, name := range []string{"hics", "enclus", "ris", "surfing", "randsub"} {
			for _, maxDim := range []int{0, 1, 2, 3} {
				for _, cutoff := range []int{0, 5} {
					for _, topK := range []int{0, -1, 7} {
						o := Options{Search: core.Params{Seed: 3, MaxDim: maxDim, Cutoff: cutoff, TopK: topK}}
						s, err := NewSearcher(name, o)
						if err != nil {
							t.Fatal(err)
						}
						list, err := s.Search(context.Background(), ds)
						if err != nil {
							t.Fatalf("%s D=%d MaxDim=%d Cutoff=%d TopK=%d: %v", name, d, maxDim, cutoff, topK, err)
						}
						fmt.Fprintf(&b, "%s D=%d MaxDim=%d Cutoff=%d TopK=%d:", name, d, maxDim, cutoff, topK)
						for _, sc := range list {
							fmt.Fprintf(&b, " %s=%x", sc.S.Key(), math.Float64bits(sc.Score))
						}
						b.WriteByte('\n')
					}
				}
			}
		}
	}
	checkGolden(t, "golden_searchers.txt", b.String())
}

// TestGoldenScorers pins the scores of every registered scorer built by
// name, over a grid of MinPts, neighbor index and ORCA's TopN. Each line
// holds one FNV-1a hash of the score bits per subspace. The three index
// kinds must give the same hashes; the grid keeps them separate so a
// mapping that drops Index shows up as a changed line, not a missing one.
// Rewrite the fixture (-update) only for an intended change of output.
func TestGoldenScorers(t *testing.T) {
	bm, err := synth.Generate(synth.Config{N: 200, D: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ds := bm.Data.Data
	subspaces := [][]int{{0, 1}, {2, 3, 4}, {0, 1, 2, 3, 4, 5}}
	scores := make([]float64, ds.N())
	var b strings.Builder
	for _, name := range ScorerNames() {
		for _, minPts := range []int{0, 5} {
			for _, kind := range []neighbors.Kind{neighbors.KindAuto, neighbors.KindBrute, neighbors.KindKDTree} {
				for _, topN := range []int{0, 50} {
					o := Options{Search: core.Params{Seed: 3}, MinPts: minPts, Index: kind, TopN: topN}
					sc, err := NewScorer(name, o)
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(&b, "%s MinPts=%d Index=%s TopN=%d:", name, minPts, kind, topN)
					for _, dims := range subspaces {
						if err := sc.Score(context.Background(), ds, dims, 0, scores); err != nil {
							t.Fatalf("%s MinPts=%d Index=%s TopN=%d dims=%v: %v", name, minPts, kind, topN, dims, err)
						}
						h := fnv.New64a()
						for _, v := range scores {
							h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
						}
						fmt.Fprintf(&b, " %x", h.Sum64())
					}
					b.WriteByte('\n')
				}
			}
		}
	}
	checkGolden(t, "golden_scorers.txt", b.String())
}

// checkGolden compares got line by line with the fixture testdata/name,
// rewriting the fixture first under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d output lines, fixture has %d", len(gotLines), len(wantLines))
	}
	bad := 0
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			if bad < 3 {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
			}
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d configurations differ from the fixture", bad, len(gotLines)-1)
	}
}
