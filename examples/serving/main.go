// Serving: the fit/score split end to end.
//
// The paper's pipeline is naturally two phases: an expensive Monte Carlo
// subspace search (fit) and cheap density queries against the frozen
// state (score). This walkthrough exercises the production path built on
// that split:
//
//  1. Fit a model on training data with a hidden subspace outlier
//     pattern.
//  2. Score out-of-sample points — no refitting, microseconds per query.
//  3. Save the model to disk and load it back, verifying the round trip
//     reproduces identical scores.
//  4. Serve the loaded model over HTTP with the same handler the hicsd
//     daemon uses, and query /score and /healthz like a client would.
//
// Run with: go run ./examples/serving
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"

	"hics"
	"hics/internal/serve"
)

func main() {
	// 1. Fit. Attributes 0 and 1 are correlated; the rest are noise.
	train := makeData(500, 1)
	model, err := hics.Fit(train, hics.Options{M: 50, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fitted model: %d objects x %d attributes, %d subspaces\n",
		model.N(), model.D(), len(model.Subspaces()))
	top := model.Subspaces()[0]
	fmt.Printf("highest-contrast subspace: dims %v, contrast %.3f\n\n", top.Dims, top.Contrast)

	// 2. Score out-of-sample points. The anti-diagonal combination
	// (0.3, 0.7) is dense in every marginal but empty in the joint
	// distribution — the paper's non-trivial outlier.
	inlier := []float64{0.7, 0.7, 0.5, 0.5}
	outlier := []float64{0.3, 0.7, 0.5, 0.5}
	si, err := model.Score(inlier)
	if err != nil {
		log.Fatal(err)
	}
	so, err := model.Score(outlier)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("out-of-sample scores (higher = more outlying):\n")
	fmt.Printf("  diagonal point      %v -> %.3f\n", inlier, si)
	fmt.Printf("  anti-diagonal point %v -> %.3f\n\n", outlier, so)

	// 3. Persist and reload.
	path := filepath.Join(os.TempDir(), "hics-serving-example.model")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := model.Save(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	defer os.Remove(path)
	f, err = os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	loaded, err := hics.LoadModel(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	ls, err := loaded.Score(outlier)
	if err != nil {
		log.Fatal(err)
	}
	info, _ := os.Stat(path)
	fmt.Printf("saved model to %s (%d bytes)\n", path, info.Size())
	fmt.Printf("loaded model reproduces the score exactly: %v\n\n", ls == so)

	// 4. Serve. httptest stands in for `hicsd -model <file>`; the handler
	// is the daemon's.
	srv := httptest.NewServer(serve.New(serve.Config{Model: loaded}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		log.Fatal(err)
	}
	var health serve.Health
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("GET /healthz -> %+v\n", health)

	resp, err = http.Get(srv.URL + "/info")
	if err != nil {
		log.Fatal(err)
	}
	var modelInfo serve.Info
	if err := json.NewDecoder(resp.Body).Decode(&modelInfo); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("GET /info -> %+v\n", modelInfo)

	req, _ := json.Marshal(serve.ScoreRequest{Points: [][]float64{inlier, outlier}})
	resp, err = http.Post(srv.URL+"/score", "application/json", bytes.NewReader(req))
	if err != nil {
		log.Fatal(err)
	}
	var scored serve.ScoreResponse
	if err := json.NewDecoder(resp.Body).Decode(&scored); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("POST /score %s -> %.3f\n", req, scored.Scores)
}

// makeData builds n rows whose first two attributes share a two-component
// Gaussian mixture (correlated), plus two uniform noise attributes.
type lcg struct{ s uint64 }

func (l *lcg) float() float64 {
	l.s = l.s*6364136223846793005 + 1442695040888963407
	return float64(l.s>>11) / (1 << 53)
}

func (l *lcg) normal() float64 {
	sum := 0.0
	for i := 0; i < 12; i++ {
		sum += l.float()
	}
	return sum - 6
}

func makeData(n int, seed uint64) [][]float64 {
	r := &lcg{s: seed*2862933555777941757 + 3037000493}
	rows := make([][]float64, n)
	for i := range rows {
		c := 0.3
		if r.float() < 0.5 {
			c = 0.7
		}
		rows[i] = []float64{
			c + 0.04*r.normal(),
			c + 0.04*r.normal(),
			r.float(),
			r.float(),
		}
	}
	return rows
}
