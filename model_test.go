package hics

import (
	"bytes"
	"encoding/gob"
	"math"
	"strings"
	"sync"
	"testing"

	"hics/internal/lof"
	"hics/internal/neighbors"
	"hics/internal/race"
	"hics/internal/rng"
)

// TestModelTrainingScoresEqualRank is the acceptance contract: Fit's
// training scores — and Model.Score on each training row — are bit-for-bit
// the Rank batch scores, for every scorer, aggregation and backend.
func TestModelTrainingScoresEqualRank(t *testing.T) {
	rows := demoRows(21, 300, 5)
	for _, useKNN := range []bool{false, true} {
		for _, agg := range []string{"", "average", "max", "product"} {
			for _, index := range []string{"", "brute", "kdtree"} {
				opts := Options{M: 20, Seed: 21, UseKNNScore: useKNN, Aggregation: agg, NeighborIndex: index}
				res, err := Rank(rows, opts)
				if err != nil {
					t.Fatal(err)
				}
				m, err := Fit(rows, opts)
				if err != nil {
					t.Fatal(err)
				}
				train := m.TrainingScores()
				if len(train) != len(res.Scores) {
					t.Fatalf("knn=%v agg=%q index=%q: %d training scores for %d objects",
						useKNN, agg, index, len(train), len(res.Scores))
				}
				for i := range res.Scores {
					if train[i] != res.Scores[i] {
						t.Fatalf("knn=%v agg=%q index=%q: train[%d] = %v, Rank = %v",
							useKNN, agg, index, i, train[i], res.Scores[i])
					}
					s, err := m.Score(rows[i])
					if err != nil {
						t.Fatal(err)
					}
					if s != res.Scores[i] {
						t.Fatalf("knn=%v agg=%q index=%q: Score(row %d) = %v, Rank = %v",
							useKNN, agg, index, i, s, res.Scores[i])
					}
				}
				if len(m.Subspaces()) != len(res.Subspaces) {
					t.Fatalf("model has %d subspaces, Rank %d", len(m.Subspaces()), len(res.Subspaces))
				}
			}
		}
	}
}

// TestModelOutOfSampleScoring: new points score without refitting, a
// planted-outlier-like query scores clearly above central queries, and the
// two backends agree bit for bit.
func TestModelOutOfSampleScoring(t *testing.T) {
	rows := demoRows(22, 400, 5)
	brute, err := Fit(rows, Options{M: 20, Seed: 22, NeighborIndex: "brute"})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Fit(rows, Options{M: 20, Seed: 22, NeighborIndex: "kdtree"})
	if err != nil {
		t.Fatal(err)
	}
	// The anti-diagonal combination is the planted non-trivial outlier
	// pattern; the diagonal combination is dense.
	outlier := []float64{0.3, 0.7, 0.5, 0.5, 0.5}
	inlier := []float64{0.7, 0.7, 0.5, 0.5, 0.5}
	so, err := brute.Score(outlier)
	if err != nil {
		t.Fatal(err)
	}
	si, err := brute.Score(inlier)
	if err != nil {
		t.Fatal(err)
	}
	if so <= si {
		t.Errorf("out-of-sample outlier score %v <= inlier score %v", so, si)
	}
	r := rng.New(5)
	for trial := 0; trial < 100; trial++ {
		q := make([]float64, 5)
		for j := range q {
			q[j] = r.Float64()
		}
		a, err := brute.Score(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := tree.Score(q)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("Score(%v): brute %v != kdtree %v", q, a, b)
		}
		if math.IsNaN(a) {
			t.Fatalf("Score(%v) = NaN", q)
		}
	}
}

// TestModelScoreZeroAllocs pins the served out-of-sample path at 0
// allocs/row on a model large enough for the k-d tree backend: every
// subspace query of Model.Score runs through the tree without
// allocating.
func TestModelScoreZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under -race; the 0-alloc pin runs in non-race builds")
	}
	rows := demoRows(61, 600, 4)
	train, held := rows[:400], rows[400:]
	m, err := Fit(train, Options{M: 20, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range m.fp.Scorers {
		if kind := f.State.(*lof.Fitted).Kind(); kind != neighbors.KindKDTree {
			t.Fatalf("subspace %v is served by %v, want kdtree", f.Subspace, kind)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := m.Score(held[i%len(held)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("Model.Score allocates %.1f times per row, want 0", allocs)
	}
}

// TestFitPinsNeighborIndex: Options.NeighborIndex reaches every fitted
// scorer's neighbor index. The backends score bit for bit alike, so only
// the fitted state's kind shows whether the pin was applied.
func TestFitPinsNeighborIndex(t *testing.T) {
	rows := demoRows(67, 300, 4)
	for _, scorer := range []string{"lof", "knn"} {
		for _, want := range []neighbors.Kind{neighbors.KindBrute, neighbors.KindKDTree} {
			m, err := Fit(rows, Options{M: 10, Seed: 67, Scorer: scorer, NeighborIndex: want.String()})
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range m.fp.Scorers {
				var got neighbors.Kind
				switch st := f.State.(type) {
				case *lof.Fitted:
					got = st.Kind()
				case *lof.FittedKNN:
					got = st.Kind()
				default:
					t.Fatalf("%s: unexpected fitted scorer %T", scorer, st)
				}
				if got != want {
					t.Errorf("%s with NeighborIndex %q: subspace %v is served by %v", scorer, want, f.Subspace, got)
				}
			}
		}
	}
}

func TestModelScoreBatch(t *testing.T) {
	rows := demoRows(23, 250, 4)
	m, err := Fit(rows, Options{M: 20, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)
	queries := make([][]float64, 137)
	for i := range queries {
		q := make([]float64, 4)
		for j := range q {
			q[j] = r.Float64()
		}
		queries[i] = q
	}
	// A few training rows mixed in exercise the leave-one-out path.
	queries[0] = rows[17]
	queries[50] = rows[0]
	batch, err := m.ScoreBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		s, err := m.Score(q)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] != s {
			t.Fatalf("ScoreBatch[%d] = %v, Score = %v", i, batch[i], s)
		}
	}
	if _, err := m.ScoreBatch([][]float64{{1, 2}}); err == nil {
		t.Error("short row should fail")
	}
	if out, err := m.ScoreBatch(nil); err != nil || len(out) != 0 {
		t.Errorf("empty batch gave %v, %v", out, err)
	}
}

// TestModelSaveLoadRoundTrip is the persistence acceptance contract: a
// Save/LoadModel round trip reproduces identical scores on training rows
// and on out-of-sample points, for both scorers and all aggregations.
func TestModelSaveLoadRoundTrip(t *testing.T) {
	rows := demoRows(24, 300, 4)
	r := rng.New(9)
	queries := make([][]float64, 60)
	for i := range queries {
		q := make([]float64, 4)
		for j := range q {
			q[j] = r.Float64() * 1.2
		}
		queries[i] = q
	}
	for _, useKNN := range []bool{false, true} {
		for _, agg := range []string{"average", "max", "product"} {
			m, err := Fit(rows, Options{M: 20, Seed: 24, UseKNNScore: useKNN, Aggregation: agg})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadModel(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if loaded.D() != m.D() || loaded.N() != m.N() {
				t.Fatalf("knn=%v agg=%s: loaded D=%d N=%d, want D=%d N=%d",
					useKNN, agg, loaded.D(), loaded.N(), m.D(), m.N())
			}
			for i, s := range m.TrainingScores() {
				ls, err := loaded.Score(rows[i])
				if err != nil {
					t.Fatal(err)
				}
				if ls != s {
					t.Fatalf("knn=%v agg=%s: loaded Score(train %d) = %v, want %v", useKNN, agg, i, ls, s)
				}
			}
			for _, q := range queries {
				a, err := m.Score(q)
				if err != nil {
					t.Fatal(err)
				}
				b, err := loaded.Score(q)
				if err != nil {
					t.Fatal(err)
				}
				if a != b {
					t.Fatalf("knn=%v agg=%s: loaded Score(%v) = %v, original %v", useKNN, agg, q, b, a)
				}
			}
			sm, sl := m.Subspaces(), loaded.Subspaces()
			if len(sm) != len(sl) {
				t.Fatalf("loaded %d subspaces, want %d", len(sl), len(sm))
			}
			for i := range sm {
				if sm[i].Contrast != sl[i].Contrast || len(sm[i].Dims) != len(sl[i].Dims) {
					t.Fatalf("subspace %d: loaded %+v, want %+v", i, sl[i], sm[i])
				}
			}
		}
	}
}

func TestModelConcurrentScoring(t *testing.T) {
	rows := demoRows(25, 300, 4)
	m, err := Fit(rows, Options{M: 20, Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.4, 0.6, 0.2, 0.8}
	want, err := m.Score(probe)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(w))
			for i := 0; i < 100; i++ {
				q := []float64{r.Float64(), r.Float64(), r.Float64(), r.Float64()}
				if _, err := m.Score(q); err != nil {
					t.Errorf("concurrent Score: %v", err)
					return
				}
				got, err := m.Score(probe)
				if err != nil || got != want {
					t.Errorf("concurrent Score(probe) = %v, %v; want %v", got, err, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestModelErrors(t *testing.T) {
	rows := demoRows(26, 100, 3)
	if _, err := Fit(nil, Options{}); err == nil {
		t.Error("empty data should fail")
	}
	if _, err := Fit(rows, Options{Test: "bogus"}); err == nil {
		t.Error("bad test name should fail")
	}
	if _, err := Fit(rows, Options{Aggregation: "median"}); err == nil {
		t.Error("bad aggregation should fail")
	}
	m, err := Fit(rows, Options{M: 10, Seed: 26})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Score([]float64{1, 2}); err == nil {
		t.Error("short point should fail")
	}
	if _, err := m.Score(make([]float64, 9)); err == nil {
		t.Error("long point should fail")
	}
	if _, err := m.Score([]float64{math.NaN(), 0.5, 0.5}); err == nil {
		t.Error("NaN coordinate should fail, not score as an inlier")
	}
	if _, err := m.Score([]float64{0.5, math.Inf(1), 0.5}); err == nil {
		t.Error("Inf coordinate should fail")
	}
	if _, err := m.ScoreBatch([][]float64{{0.5, 0.5, math.NaN()}}); err == nil {
		t.Error("NaN in batch should fail")
	}
}

// TestNonFiniteInputRejected: every data-accepting entry point rejects
// NaN/±Inf input at the API boundary with the offending row and column
// named, instead of silently producing meaningless scores.
func TestNonFiniteInputRejected(t *testing.T) {
	entry := map[string]func(rows [][]float64) error{
		"Rank": func(rows [][]float64) error { _, err := Rank(rows, Options{M: 10, Seed: 29}); return err },
		"Fit":  func(rows [][]float64) error { _, err := Fit(rows, Options{M: 10, Seed: 29}); return err },
		"SearchSubspaces": func(rows [][]float64) error {
			_, err := SearchSubspaces(rows, Options{M: 10, Seed: 29})
			return err
		},
		"LOFScores": func(rows [][]float64) error { _, err := LOFScores(rows, 5); return err },
	}
	for name, fn := range entry {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			rows := demoRows(29, 120, 3)
			rows[5][2] = bad
			err := fn(rows)
			if err == nil {
				t.Errorf("%s accepted %v input", name, bad)
				continue
			}
			if !strings.Contains(err.Error(), "row 5") || !strings.Contains(err.Error(), "column 2") {
				t.Errorf("%s(%v) error %q does not name row 5 column 2", name, bad, err)
			}
		}
	}
	// ScoreBatch names the offending row too.
	rows := demoRows(29, 120, 3)
	m, err := Fit(rows, Options{M: 10, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.ScoreBatch([][]float64{{0.5, 0.5, 0.5}, {0.5, math.Inf(-1), 0.5}})
	if err == nil || !strings.Contains(err.Error(), "row 1") || !strings.Contains(err.Error(), "attribute 1") {
		t.Errorf("ScoreBatch error %v does not name row 1 attribute 1", err)
	}
	// A batch row bit-identical to a training row keeps its leave-one-out
	// score even while the boundary check is active.
	got, err := m.ScoreBatch([][]float64{rows[7]})
	if err != nil {
		t.Fatalf("training row in batch rejected: %v", err)
	}
	if got[0] != m.TrainingScores()[7] {
		t.Errorf("training-row batch score %v, want %v", got[0], m.TrainingScores()[7])
	}
}

func TestLoadModelRejectsGarbage(t *testing.T) {
	if _, err := LoadModel(bytes.NewReader(nil)); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := LoadModel(bytes.NewReader([]byte("not a model file at all"))); err == nil {
		t.Error("bad magic should fail")
	}
	// Right magic, unsupported version.
	bad := append([]byte("HICSMODEL"), 0xFF, 0xFF, 0xFF, 0xFF)
	if _, err := LoadModel(bytes.NewReader(bad)); err == nil {
		t.Error("unknown version should fail")
	}
	// Truncated payload.
	rows := demoRows(27, 80, 3)
	m, err := Fit(rows, Options{M: 10, Seed: 27})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Error("truncated payload should fail")
	}
}

// The fit/score split must work for any searcher combined with any
// FitScorer-capable scorer, and the persisted method pair must survive a
// save/load round trip with identical scores.
func TestModelMethodPairRoundTrip(t *testing.T) {
	rows := demoRows(31, 200, 4)
	queries := [][]float64{
		{0.2, 0.8, 0.5, 0.5},
		{0.7, 0.3, 0.1, 0.9},
	}
	for _, search := range SearcherNames() {
		for _, scorer := range FitScorerNames() {
			opts := Options{M: 8, TopK: 10, Seed: 31, Search: search, Scorer: scorer}
			m, err := Fit(rows, opts)
			if err != nil {
				t.Fatalf("Fit(%s, %s): %v", search, scorer, err)
			}
			if m.SearchMethod() != search || m.ScorerMethod() != scorer {
				t.Fatalf("fitted method pair = (%s, %s), want (%s, %s)",
					m.SearchMethod(), m.ScorerMethod(), search, scorer)
			}
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadModel(&buf)
			if err != nil {
				t.Fatalf("LoadModel(%s, %s): %v", search, scorer, err)
			}
			if loaded.SearchMethod() != search || loaded.ScorerMethod() != scorer {
				t.Fatalf("loaded method pair = (%s, %s), want (%s, %s)",
					loaded.SearchMethod(), loaded.ScorerMethod(), search, scorer)
			}
			if loaded.FormatVersion() != 2 {
				t.Fatalf("loaded FormatVersion() = %d, want 2", loaded.FormatVersion())
			}
			for _, q := range queries {
				a, err := m.Score(q)
				if err != nil {
					t.Fatal(err)
				}
				b, err := loaded.Score(q)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("(%s, %s): loaded Score = %v, original %v", search, scorer, b, a)
				}
			}
		}
	}
}

// Scorers without a fitted form must be rejected by Fit with an error
// naming the supported ones, not fail deep inside the pipeline.
func TestFitRejectsNonFitScorers(t *testing.T) {
	rows := demoRows(32, 100, 3)
	for _, scorer := range []string{"orca", "outres"} {
		_, err := Fit(rows, Options{M: 5, Seed: 32, Scorer: scorer})
		if err == nil {
			t.Fatalf("Fit accepted scorer %q", scorer)
		}
		for _, want := range []string{scorer, "lof", "knn"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("Fit(%s) error %q does not mention %q", scorer, err, want)
			}
		}
	}
}

// A model file recording a method pair the loader cannot rebuild must be
// rejected even when the payload is otherwise intact.
func TestLoadModelRejectsUnbuildablePair(t *testing.T) {
	rows := demoRows(33, 100, 3)
	m, err := Fit(rows, Options{M: 5, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}

	badScorer := rewriteModelFile(t, m, func(mf *modelFileV2) { mf.Scorer = "outres" })
	if _, err := LoadModel(bytes.NewReader(badScorer)); err == nil {
		t.Error("scorer without a fitted form should be rejected")
	} else if !strings.Contains(err.Error(), "outres") || !strings.Contains(err.Error(), "lof") {
		t.Errorf("error %q should name the offender and the supported scorers", err)
	}

	badSearch := rewriteModelFile(t, m, func(mf *modelFileV2) { mf.Search = "quantum" })
	if _, err := LoadModel(bytes.NewReader(badSearch)); err == nil {
		t.Error("unknown searcher should be rejected")
	} else if !strings.Contains(err.Error(), "quantum") || !strings.Contains(err.Error(), "hics") {
		t.Errorf("error %q should name the offender and the valid searchers", err)
	}

	// A model fitted on the removed approximate index must not be rebuilt
	// on an exact one, which would silently change its scores.
	lshIndex := rewriteModelFile(t, m, func(mf *modelFileV2) {
		for i := range mf.Subspaces {
			mf.Subspaces[i].IndexKind = "lsh"
		}
	})
	if _, err := LoadModel(bytes.NewReader(lshIndex)); err == nil {
		t.Error("a model recording the lsh index should be rejected")
	} else if !strings.Contains(err.Error(), "lsh") || !strings.Contains(err.Error(), "refit") {
		t.Errorf("error %q should name the removed lsh index and ask for a refit", err)
	}
}

// rewriteModelFile saves m, applies mutate to the decoded payload and
// returns the re-encoded file.
func rewriteModelFile(t *testing.T, m *Model, mutate func(*modelFileV2)) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	var mf modelFileV2
	if err := gob.NewDecoder(bytes.NewReader(raw[len(modelMagic)+4:])).Decode(&mf); err != nil {
		t.Fatal(err)
	}
	mutate(&mf)
	var out bytes.Buffer
	out.Write(raw[:len(modelMagic)+4])
	if err := gob.NewEncoder(&out).Encode(&mf); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestAggregationOptionCompat pins the Options.Aggregation values:
// product is reachable and differs from average on real data.
func TestAggregationOptionCompat(t *testing.T) {
	rows := demoRows(28, 200, 4)
	avg, err := Rank(rows, Options{M: 20, Seed: 28})
	if err != nil {
		t.Fatal(err)
	}
	prod, err := Rank(rows, Options{M: 20, Seed: 28, Aggregation: "product"})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range avg.Scores {
		if avg.Scores[i] != prod.Scores[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("product aggregation returned the average scores")
	}
}

// TestModelTrainingRowTable pins the training-row table: a query is a
// training row only when every bit matches, NaN payloads and the sign of
// zero included, and among duplicate training rows the first wins.
func TestModelTrainingRowTable(t *testing.T) {
	rows := demoRows(71, 120, 4)
	rows[5] = append([]float64(nil), rows[3]...) // bit-identical duplicate
	rows[7][0] = 0
	rows[8] = append([]float64(nil), rows[7]...)
	rows[8][0] = math.Copysign(0, -1) // differs from row 7 only in the sign of zero
	rows[11][0] = 0
	m, err := Fit(rows, Options{M: 10, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}

	// A legacy model file may carry non-finite training values; those rows
	// must still find their training scores after a round trip.
	nan := math.Float64frombits(0x7ff8000000000123)
	file := rewriteModelFile(t, m, func(mf *modelFileV2) {
		mf.Cols[1][12] = nan
		mf.Cols[2][13] = math.Inf(1)
	})
	loaded, err := LoadModel(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}

	with := func(row []float64, j int, v float64) []float64 {
		q := append([]float64(nil), row...)
		q[j] = v
		return q
	}
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		name  string
		m     *Model
		query []float64
		want  int // training row found, or -1
	}{
		{"duplicate rows: the first wins", m, rows[5], 3},
		{"last attribute differs", m, with(rows[10], 3, math.Nextafter(rows[10][3], 2)), -1},
		{"+0 row", m, rows[7], 7},
		{"-0 row", m, rows[8], 8},
		{"-0 against a +0 row", m, with(rows[11], 0, negZero), -1},
		{"loaded: NaN row", loaded, with(rows[12], 1, nan), 12},
		{"loaded: NaN with another payload", loaded, with(rows[12], 1, math.NaN()), -1},
		{"loaded: +Inf row", loaded, with(rows[13], 2, math.Inf(1)), 13},
		{"loaded: finite row", loaded, rows[14], 14},
	} {
		t.Run(tc.name, func(t *testing.T) {
			i, ok := tc.m.train.find(tc.query)
			if !ok {
				i = -1
			}
			if i != tc.want {
				t.Fatalf("training row %d, want %d", i, tc.want)
			}
			s, err := tc.m.Score(tc.query)
			if tc.want < 0 {
				finite := true
				for _, v := range tc.query {
					finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
				}
				if finite != (err == nil) {
					t.Fatalf("out-of-sample Score error %v for a query finite=%v", err, finite)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if want := tc.m.trainScores[tc.want]; math.Float64bits(s) != math.Float64bits(want) {
				t.Fatalf("Score = %v, want training score %v", s, want)
			}
		})
	}
}
