package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hics"
	"hics/internal/rng"
)

func fitModel(t *testing.T) *hics.Model {
	t.Helper()
	r := rng.New(1)
	rows := make([][]float64, 200)
	for i := range rows {
		c := 0.3
		if r.Float64() < 0.5 {
			c = 0.7
		}
		rows[i] = []float64{r.NormalScaled(c, 0.04), r.NormalScaled(c, 0.04), r.Float64(), r.Float64()}
	}
	m, err := hics.Fit(rows, hics.Options{M: 10, Seed: 1, TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func postScore(t *testing.T, srv *httptest.Server, body string) (*http.Response, ScoreResponse, string) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/score", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var sr ScoreResponse
	_ = json.Unmarshal(buf.Bytes(), &sr)
	return resp, sr, buf.String()
}

func TestInfo(t *testing.T) {
	m := fitModel(t)
	srv := httptest.NewServer(New(Config{Model: m}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/info")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("info status %d", resp.StatusCode)
	}
	var info Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	want := Info{
		Model:         "default",
		Search:        "hics",
		Scorer:        "lof",
		Subspaces:     len(m.Subspaces()),
		FormatVersion: 2,
		Objects:       m.N(),
		Attributes:    m.D(),
		Version:       hics.Version,
		Server:        ServerVersion,
	}
	if info != want {
		t.Errorf("info = %+v, want %+v", info, want)
	}

	// Non-GET is rejected.
	postResp, err := http.Post(srv.URL+"/info", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	postResp.Body.Close()
	if postResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /info status %d, want %d", postResp.StatusCode, http.StatusMethodNotAllowed)
	}
}

func TestHealthz(t *testing.T) {
	m := fitModel(t)
	srv := httptest.NewServer(New(Config{Model: m}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Objects != m.N() || h.Attributes != m.D() || h.Subspaces != len(m.Subspaces()) {
		t.Errorf("healthz = %+v", h)
	}
}

func TestScoreSinglePoint(t *testing.T) {
	m := fitModel(t)
	srv := httptest.NewServer(New(Config{Model: m}))
	defer srv.Close()
	resp, sr, body := postScore(t, srv, `{"point": [0.3, 0.7, 0.5, 0.5]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if sr.Score == nil {
		t.Fatalf("no score in %s", body)
	}
	want, err := m.Score([]float64{0.3, 0.7, 0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if *sr.Score != want {
		t.Errorf("served score %v, model score %v", *sr.Score, want)
	}
}

func TestScoreBatch(t *testing.T) {
	m := fitModel(t)
	srv := httptest.NewServer(New(Config{Model: m}))
	defer srv.Close()
	resp, sr, body := postScore(t, srv, `{"points": [[0.3, 0.7, 0.5, 0.5], [0.7, 0.7, 0.5, 0.5]]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if len(sr.Scores) != 2 {
		t.Fatalf("scores = %v", sr.Scores)
	}
	want, err := m.ScoreBatch([][]float64{{0.3, 0.7, 0.5, 0.5}, {0.7, 0.7, 0.5, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if sr.Scores[i] != want[i] {
			t.Errorf("served scores[%d] = %v, model %v", i, sr.Scores[i], want[i])
		}
	}
}

func TestScoreEmptyBatch(t *testing.T) {
	m := fitModel(t)
	srv := httptest.NewServer(New(Config{Model: m}))
	defer srv.Close()
	resp, _, body := postScore(t, srv, `{"points": []}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	// The scores field must be present (and empty), not dropped.
	if strings.TrimSpace(body) != `{"scores":[]}` {
		t.Errorf("empty batch body = %s, want {\"scores\":[]}", body)
	}
}

func TestScoreBadRequests(t *testing.T) {
	m := fitModel(t)
	srv := httptest.NewServer(New(Config{Model: m}))
	defer srv.Close()
	cases := []string{
		``,                                   // empty body
		`{`,                                  // invalid JSON
		`{}`,                                 // neither point nor points
		`{"point": [1, 2]}`,                  // wrong dimensionality
		`{"points": [[1, 2, 3, 4], [1]]}`,    // ragged batch
		`{"point": [1,2,3,4], "points": []}`, // both set
		`{"pointz": [1, 2, 3, 4]}`,           // unknown field
	}
	for _, body := range cases {
		resp, _, got := postScore(t, srv, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d (%s), want 400", body, resp.StatusCode, got)
		}
		if !strings.Contains(got, "error") {
			t.Errorf("body %q: no error field in %s", body, got)
		}
	}
	// GET on /score is rejected.
	resp, err := http.Get(srv.URL + "/score")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /score status %d, want 405", resp.StatusCode)
	}
}

// TestScoreConcurrent exercises the handler under parallel load; the race
// detector guards the model's scratch pooling.
func TestScoreConcurrent(t *testing.T) {
	m := fitModel(t)
	srv := httptest.NewServer(New(Config{Model: m}))
	defer srv.Close()
	want, err := m.Score([]float64{0.5, 0.5, 0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				resp, err := http.Post(srv.URL+"/score", "application/json",
					strings.NewReader(`{"point": [0.5, 0.5, 0.5, 0.5]}`))
				if err != nil {
					t.Errorf("concurrent score: %v", err)
					return
				}
				var sr ScoreResponse
				err = json.NewDecoder(resp.Body).Decode(&sr)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || sr.Score == nil || *sr.Score != want {
					t.Errorf("concurrent score: status %d err %v, want score %v", resp.StatusCode, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// rankRows builds the rows of a /rank request body: a correlated pair in
// attrs 0,1 plus a noise attr, with an anti-diagonal outlier at row 0.
func rankRows(n int) [][]float64 {
	r := rng.New(2)
	rows := make([][]float64, n)
	for i := range rows {
		c := 0.3
		if r.Float64() < 0.5 {
			c = 0.7
		}
		rows[i] = []float64{r.NormalScaled(c, 0.04), r.NormalScaled(c, 0.04), r.Float64()}
	}
	rows[0][0] = 0.3
	rows[0][1] = 0.7
	return rows
}

func postRank(t *testing.T, srv *httptest.Server, body []byte) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/rank", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.String()
}

// TestRankEndpoint checks POST /rank runs a full ranking and returns
// exactly the hics.Rank result for the same rows and options.
func TestRankEndpoint(t *testing.T) {
	m := fitModel(t)
	srv := httptest.NewServer(New(Config{Model: m, RequestTimeout: time.Minute}))
	defer srv.Close()

	rows := rankRows(120)
	req := RankRequest{Rows: rows, Options: RankOptions{M: 10, Seed: 1, TopK: 5}}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, got := postRank(t, srv, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	var rr RankResponse
	if err := json.Unmarshal([]byte(got), &rr); err != nil {
		t.Fatal(err)
	}
	want, err := hics.Rank(rows, hics.Options{M: 10, Seed: 1, TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Scores) != len(want.Scores) {
		t.Fatalf("scores = %d, want %d", len(rr.Scores), len(want.Scores))
	}
	for i := range want.Scores {
		if rr.Scores[i] != want.Scores[i] {
			t.Errorf("served scores[%d] = %v, library %v", i, rr.Scores[i], want.Scores[i])
		}
	}
	if len(rr.Subspaces) != len(want.Subspaces) {
		t.Fatalf("subspaces = %d, want %d", len(rr.Subspaces), len(want.Subspaces))
	}
	for i := range want.Subspaces {
		if rr.Subspaces[i].Contrast != want.Subspaces[i].Contrast {
			t.Errorf("subspace %d contrast %v, want %v", i, rr.Subspaces[i].Contrast, want.Subspaces[i].Contrast)
		}
	}
}

// TestRankEndpointDeadline checks a request over the configured compute
// budget is cut off with 504 instead of running to completion.
func TestRankEndpointDeadline(t *testing.T) {
	m := fitModel(t)
	srv := httptest.NewServer(New(Config{Model: m, RequestTimeout: time.Millisecond}))
	defer srv.Close()

	req := RankRequest{Rows: rankRows(400), Options: RankOptions{M: 5000, Seed: 1}}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, got := postRank(t, srv, body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, got)
	}
	if !strings.Contains(got, "budget") {
		t.Errorf("timeout body %q does not mention the budget", got)
	}
}

// TestRankEndpointBadRequests checks validation surfaces as 400s.
func TestRankEndpointBadRequests(t *testing.T) {
	m := fitModel(t)
	srv := httptest.NewServer(New(Config{Model: m}))
	defer srv.Close()
	cases := []string{
		``,                        // empty body
		`{`,                       // invalid JSON
		`{}`,                      // no rows
		`{"rows": []}`,            // empty rows
		`{"rowz": [[1, 2]]}`,      // unknown field
		`{"rows": [[1, 2], [3]]}`, // ragged rows
		`{"rows": [[1, 2], [3, 4]], "options": {"search": "bogus"}}`,       // unknown method
		`{"rows": [[1, 2], [3, 4]], "options": {"m": -1}}`,                 // invalid M
		`{"rows": [[1, 2], [3, 4]], "options": {"neighbor_index": "lsh"}}`, // removed backend
		`{"rows": [[1, 2], [3, 4]], "options": {"adaptive_m": true}}`,      // removed field
	}
	for _, body := range cases {
		resp, got := postRank(t, srv, []byte(body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d (%s), want 400", body, resp.StatusCode, got)
		}
	}
	if _, got := postRank(t, srv, []byte(`{"rows": [[1, 2], [3, 4]], "options": {"neighbor_index": "lsh"}}`)); !strings.Contains(got, "lsh") {
		t.Errorf("neighbor_index lsh: error %s should name the rejected index", got)
	}
	// GET on /rank is rejected.
	resp, err := http.Get(srv.URL + "/rank")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /rank status %d, want 405", resp.StatusCode)
	}
}

// TestScoreBatchDeadline checks the batch scoring path shares the
// request budget.
func TestScoreBatchDeadline(t *testing.T) {
	m := fitModel(t)
	srv := httptest.NewServer(New(Config{Model: m, RequestTimeout: time.Nanosecond}))
	defer srv.Close()
	r := rng.New(3)
	points := make([][]float64, 5000)
	for i := range points {
		points[i] = []float64{r.Float64(), r.Float64(), r.Float64(), r.Float64()}
	}
	body, err := json.Marshal(ScoreRequest{Points: points})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/score", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status %d, want 504", resp.StatusCode)
	}
}
