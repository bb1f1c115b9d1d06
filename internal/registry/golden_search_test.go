package registry

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hics/internal/core"
	"hics/internal/enclus"
	"hics/internal/race"
	"hics/internal/ris"
	"hics/internal/surfing"
	"hics/internal/synth"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_searchers.txt from the current searchers")

// TestGoldenLevelWiseSearchers pins the output of every level-wise
// searcher (dims and score bits) over a grid of MaxDim, Cutoff and TopK.
// It covers the edges the searchers handle differently: with MaxDim 1,
// HiCS returns the scored pairs while Enclus, RIS and SURFING return
// nothing, and Enclus derives its adaptive ω once, from the pair level.
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
		for _, name := range []string{"hics", "enclus", "ris", "surfing"} {
			for _, maxDim := range []int{0, 1, 2, 3} {
				for _, cutoff := range []int{0, 5} {
					for _, topK := range []int{0, -1, 7} {
						o := SearcherOptions{
							HiCS:    core.Params{Seed: 3, MaxDim: maxDim, Cutoff: cutoff, TopK: topK},
							Enclus:  enclus.Params{MaxDim: maxDim, Cutoff: cutoff, TopK: topK},
							RIS:     ris.Params{MaxDim: maxDim, Cutoff: cutoff, TopK: topK},
							Surfing: surfing.Params{MaxDim: maxDim, Cutoff: cutoff, TopK: topK},
						}
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
	path := filepath.Join("testdata", "golden_searchers.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(b.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%d output lines, fixture has %d", len(got), len(wantLines))
	}
	bad := 0
	for i := range got {
		if got[i] != wantLines[i] {
			if bad < 3 {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, got[i], wantLines[i])
			}
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d configurations differ from the fixture", bad, len(got)-1)
	}
}
