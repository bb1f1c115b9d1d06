package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hics"
	"hics/internal/fleet"
	"hics/internal/rng"
)

// fitModelSized fits a 4-attribute model over n rows; the seed varies
// the data so differently seeded models score a probe differently.
func fitModelSized(t *testing.T, seed uint64, n int) *hics.Model {
	t.Helper()
	r := rng.New(seed)
	rows := make([][]float64, n)
	for i := range rows {
		c := 0.3
		if r.Float64() < 0.5 {
			c = 0.7
		}
		rows[i] = []float64{r.NormalScaled(c, 0.04), r.NormalScaled(c, 0.04), r.Float64(), r.Float64()}
	}
	m, err := hics.Fit(rows, hics.Options{M: 10, Seed: seed, TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// modelBytes serializes a model as the PUT /models/{name} body.
func modelBytes(t *testing.T, m *hics.Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// doJSON issues a request with an optional bearer token and decodes the
// JSON response body into out (when non-nil).
func doJSON(t *testing.T, method, url, token string, body []byte, out any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, raw, err)
		}
	}
	return resp
}

// TestHealthzReadiness: 503 "starting" while the manifest restore is in
// flight, 200 with per-model states afterwards.
func TestHealthzReadiness(t *testing.T) {
	fl := fleet.New(fleet.Config{})
	srv := httptest.NewServer(New(Config{Fleet: fl}))
	defer srv.Close()

	var h Health
	resp := doJSON(t, http.MethodGet, srv.URL+"/healthz", "", nil, &h)
	if resp.StatusCode != http.StatusServiceUnavailable || h.Status != "starting" {
		t.Errorf("cold healthz = %d %+v, want 503 starting", resp.StatusCode, h)
	}
	// A cold fleet must not serve traffic either.
	scoreResp, _, _ := postScore(t, srv, `{"point": [0.5, 0.5, 0.5, 0.5]}`)
	if scoreResp.StatusCode != http.StatusNotFound {
		t.Errorf("cold /score status %d, want 404", scoreResp.StatusCode)
	}

	if err := fl.Restore(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := fl.Put("alpha", fitModelSized(t, 1, 60), fleet.Quota{}, true); err != nil {
		t.Fatal(err)
	}
	resp = doJSON(t, http.MethodGet, srv.URL+"/healthz", "", nil, &h)
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Errorf("warm healthz = %d %+v, want 200 ok", resp.StatusCode, h)
	}
	if len(h.Models) != 1 || h.Models[0].Name != "alpha" ||
		h.Models[0].State != fleet.StateReady || !h.Models[0].Default {
		t.Errorf("healthz models = %+v", h.Models)
	}
	if h.Objects != 60 {
		t.Errorf("healthz objects = %d, want the default model's 60", h.Objects)
	}
}

// TestModelManagementLifecycle drives the full management surface over a
// persisted fleet: PUT two models, route scores by name, list, delete.
func TestModelManagementLifecycle(t *testing.T) {
	dir := t.TempDir()
	fl := fleet.New(fleet.Config{Dir: dir})
	if err := fl.Restore(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(Config{Fleet: fl, RequestTimeout: time.Minute}))
	defer srv.Close()

	mA := fitModelSized(t, 1, 80)
	mB := fitModelSized(t, 2, 80)
	var st fleet.ModelStatus
	resp := doJSON(t, http.MethodPut, srv.URL+"/models/alpha", "", modelBytes(t, mA), &st)
	if resp.StatusCode != http.StatusOK || st.Name != "alpha" || st.State != fleet.StateReady {
		t.Fatalf("PUT alpha = %d %+v", resp.StatusCode, st)
	}
	if !st.Default {
		t.Errorf("first PUT did not become the default: %+v", st)
	}
	resp = doJSON(t, http.MethodPut, srv.URL+"/models/beta?max_streams=3", "", modelBytes(t, mB), &st)
	if resp.StatusCode != http.StatusOK || st.Quota.MaxStreams != 3 {
		t.Fatalf("PUT beta = %d %+v", resp.StatusCode, st)
	}

	// Rejections: invalid name, garbage body, bad quota parameter.
	if resp := doJSON(t, http.MethodPut, srv.URL+"/models/.bad", "", modelBytes(t, mA), nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("PUT invalid name status %d, want 400", resp.StatusCode)
	}
	if resp := doJSON(t, http.MethodPut, srv.URL+"/models/junk", "", []byte("not a model"), nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("PUT garbage body status %d, want 400", resp.StatusCode)
	}
	if resp := doJSON(t, http.MethodPut, srv.URL+"/models/q?max_streams=-1", "", modelBytes(t, mA), nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("PUT negative quota status %d, want 400", resp.StatusCode)
	}

	// Scores route by name; the unnamed path serves the default (alpha).
	probe := `{"point": [0.3, 0.7, 0.5, 0.5]}`
	wantA, err := mA.Score([]float64{0.3, 0.7, 0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := mB.Score([]float64{0.3, 0.7, 0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]float64{
		"/score":             wantA,
		"/score?model=alpha": wantA,
		"/score?model=beta":  wantB,
	} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(probe))
		if err != nil {
			t.Fatal(err)
		}
		var sr ScoreResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || sr.Score == nil || *sr.Score != want {
			t.Errorf("POST %s = %d %+v, want score %v", path, resp.StatusCode, sr, want)
		}
	}
	if resp, _, _ := postScore(t, srv, `{"point": [0.5,0.5,0.5,0.5]}`); resp.StatusCode != http.StatusOK {
		t.Errorf("default score status %d", resp.StatusCode)
	}
	scoreResp, err := http.Post(srv.URL+"/score?model=missing", "application/json", strings.NewReader(probe))
	if err != nil {
		t.Fatal(err)
	}
	scoreResp.Body.Close()
	if scoreResp.StatusCode != http.StatusNotFound {
		t.Errorf("score against missing model status %d, want 404", scoreResp.StatusCode)
	}

	// /info routes too.
	var info Info
	doJSON(t, http.MethodGet, srv.URL+"/info?model=beta", "", nil, &info)
	if info.Model != "beta" || info.Objects != 80 {
		t.Errorf("info?model=beta = %+v", info)
	}

	// Listing reflects both models and the default.
	var list ModelsResponse
	resp = doJSON(t, http.MethodGet, srv.URL+"/models", "", nil, &list)
	if resp.StatusCode != http.StatusOK || !list.Ready || list.Default != "alpha" || len(list.Models) != 2 {
		t.Fatalf("GET /models = %d %+v", resp.StatusCode, list)
	}
	resp = doJSON(t, http.MethodGet, srv.URL+"/models/beta", "", nil, &st)
	if resp.StatusCode != http.StatusOK || st.Name != "beta" {
		t.Errorf("GET /models/beta = %d %+v", resp.StatusCode, st)
	}

	// DELETE: gone for management and traffic alike, 404 on repeat.
	if resp := doJSON(t, http.MethodDelete, srv.URL+"/models/beta", "", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE beta status %d", resp.StatusCode)
	}
	if resp := doJSON(t, http.MethodDelete, srv.URL+"/models/beta", "", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("second DELETE beta status %d, want 404", resp.StatusCode)
	}
	scoreResp, err = http.Post(srv.URL+"/score?model=beta", "application/json", strings.NewReader(probe))
	if err != nil {
		t.Fatal(err)
	}
	scoreResp.Body.Close()
	if scoreResp.StatusCode != http.StatusNotFound {
		t.Errorf("score against deleted model status %d, want 404", scoreResp.StatusCode)
	}

	// The surviving fleet restores from the manifest with identical
	// scores — the acceptance criterion behind a hicsd restart.
	fl2 := fleet.New(fleet.Config{Dir: dir})
	if err := fl2.Restore(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(New(Config{Fleet: fl2, RequestTimeout: time.Minute}))
	defer srv2.Close()
	resp, sr, body := postScore(t, srv2, probe)
	if resp.StatusCode != http.StatusOK || sr.Score == nil || *sr.Score != wantA {
		t.Errorf("restored default score = %d %s, want %v", resp.StatusCode, body, wantA)
	}
}

// TestModelManagementAuth: with an admin token configured, mutations
// demand it while read endpoints stay open.
func TestModelManagementAuth(t *testing.T) {
	fl := fleet.New(fleet.Config{})
	if err := fl.Restore(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(Config{Fleet: fl, AdminToken: "s3cret"}))
	defer srv.Close()
	body := modelBytes(t, fitModelSized(t, 1, 60))

	if resp := doJSON(t, http.MethodPut, srv.URL+"/models/alpha", "", body, nil); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("tokenless PUT status %d, want 401", resp.StatusCode)
	} else if resp.Header.Get("WWW-Authenticate") == "" {
		t.Error("401 without WWW-Authenticate")
	}
	if resp := doJSON(t, http.MethodPut, srv.URL+"/models/alpha", "wrong", body, nil); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("wrong-token PUT status %d, want 401", resp.StatusCode)
	}
	if resp := doJSON(t, http.MethodPut, srv.URL+"/models/alpha", "s3cret", body, nil); resp.StatusCode != http.StatusOK {
		t.Errorf("authorized PUT status %d, want 200", resp.StatusCode)
	}
	if resp := doJSON(t, http.MethodDelete, srv.URL+"/models/alpha", "", nil, nil); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("tokenless DELETE status %d, want 401", resp.StatusCode)
	}
	// Reads stay open: health checks and dashboards don't hold secrets.
	if resp := doJSON(t, http.MethodGet, srv.URL+"/models", "", nil, nil); resp.StatusCode != http.StatusOK {
		t.Errorf("tokenless GET /models status %d, want 200", resp.StatusCode)
	}
	if resp := doJSON(t, http.MethodDelete, srv.URL+"/models/alpha", "s3cret", nil, nil); resp.StatusCode != http.StatusOK {
		t.Errorf("authorized DELETE status %d, want 200", resp.StatusCode)
	}
}

// TestStreamQuota429: a model at its stream quota rejects the next
// session with 429 and a Retry-After, and frees the slot on close.
func TestStreamQuota429(t *testing.T) {
	fl := fleet.New(fleet.Config{})
	if err := fl.Restore(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := fl.Put("alpha", fitModelSized(t, 1, 60), fleet.Quota{MaxStreams: 1}, true); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(Config{Fleet: fl, RequestTimeout: time.Minute}))
	defer srv.Close()

	rejected0 := mRejected.Total()
	// Hold one stream open mid-body.
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	respc := make(chan *http.Response, 1)
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			errc <- err
			return
		}
		respc <- resp
	}()
	if _, err := io.WriteString(pw, "[0.5,0.5,0.5,0.5]\n"); err != nil {
		t.Fatal(err)
	}
	var open *http.Response
	select {
	case open = <-respc:
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(10 * time.Second):
		t.Fatal("stream session never opened")
	}
	defer open.Body.Close()
	line := make([]byte, 256)
	if _, err := open.Body.Read(line); err != nil {
		t.Fatal(err)
	}

	// Second session: over quota.
	resp, _, lines := postStream(t, srv, "/stream", "[0.5,0.5,0.5,0.5]\n")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second stream status %d, want 429 (%v)", resp.StatusCode, lines)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if d := mRejected.Total() - rejected0; d < 1 {
		t.Errorf("admission_rejected counter moved by %d, want >= 1", d)
	}

	// Close the held session; the slot frees and streaming resumes.
	pw.Close()
	io.Copy(io.Discard, open.Body)
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, records, _ := postStream(t, srv, "/stream", "[0.5,0.5,0.5,0.5]\n")
		if resp.StatusCode == http.StatusOK && len(records) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream slot never freed (last status %d)", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamWindowPerModel is the StreamWindow=0 regression test: the
// documented "0 = the served model's training-set size" must derive from
// the model the request routed to, not a server-wide model. Two models
// with different training sizes stream the same 45 rows with a refit
// cadence of 15 and no explicit window: the 30-row model's window fills
// and refits, the 200-row model's never fills, so it must not refit.
func TestStreamWindowPerModel(t *testing.T) {
	fl := fleet.New(fleet.Config{})
	if err := fl.Restore(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := fl.Put("big", fitModelSized(t, 1, 200), fleet.Quota{}, true); err != nil {
		t.Fatal(err)
	}
	if err := fl.Put("small", fitModelSized(t, 2, 30), fleet.Quota{}, false); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(Config{Fleet: fl, RequestTimeout: time.Minute}))
	defer srv.Close()

	r := rng.New(5)
	rows := make([][]float64, 45)
	for i := range rows {
		rows[i] = []float64{r.Float64(), r.Float64(), r.Float64(), r.Float64()}
	}
	body := ndjsonRows(t, rows)
	for _, tc := range []struct {
		model      string
		wantRefits bool
	}{
		{"small", true}, // window = 30 fills at row 30 and refits
		{"big", false},  // window = 200 never fills in 45 rows
	} {
		resp, records, lines := postStream(t, srv, "/stream?refit_every=15&model="+tc.model, body)
		if resp.StatusCode != http.StatusOK || len(records) != len(rows) {
			t.Fatalf("model %s: status %d, %d records (%v)", tc.model, resp.StatusCode, len(records), lines)
		}
		last := records[len(records)-1]
		if got := last.Refits > 0; got != tc.wantRefits {
			t.Errorf("model %s: final refits = %d, want refits>0 == %v — the zero window did not derive from the routed model",
				tc.model, last.Refits, tc.wantRefits)
		}
	}
}

// TestHotSwapUnderLoad is the tentpole acceptance test: hammer /score
// and /stream on a model while PUT /models/{name} replaces it
// repeatedly. Every request must succeed, every score must come from a
// coherent model version (old or new, never torn), and no goroutines
// may leak.
func TestHotSwapUnderLoad(t *testing.T) {
	fl := fleet.New(fleet.Config{})
	if err := fl.Restore(context.Background()); err != nil {
		t.Fatal(err)
	}
	m1 := fitModelSized(t, 1, 80)
	m2 := fitModelSized(t, 2, 80)
	if err := fl.Put("alpha", m1, fleet.Quota{}, true); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(Config{Fleet: fl, RequestTimeout: time.Minute}))
	defer srv.Close()

	probe := []float64{0.3, 0.7, 0.5, 0.5}
	want1, err := m1.Score(probe)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := m2.Score(probe)
	if err != nil {
		t.Fatal(err)
	}
	if want1 == want2 {
		t.Fatal("swap models score the probe identically; pick different seeds")
	}
	coherent := func(s float64) bool { return s == want1 || s == want2 }
	body1, body2 := modelBytes(t, m1), modelBytes(t, m2)

	baselineGoroutines := runtime.NumGoroutine()
	const (
		swaps       = 20
		scoreLoops  = 40
		streamLoops = 10
		workers     = 4
	)
	var wg sync.WaitGroup
	errs := make(chan string, 256)
	report := func(format string, args ...any) {
		select {
		case errs <- fmt.Sprintf(format, args...):
		default:
		}
	}
	// Swapper: alternate the two model versions via the management API.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < swaps; i++ {
			body := body1
			if i%2 == 1 {
				body = body2
			}
			req, err := http.NewRequest(http.MethodPut, srv.URL+"/models/alpha", bytes.NewReader(body))
			if err != nil {
				report("building swap request: %v", err)
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				report("swap %d: %v", i, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				report("swap %d status %d", i, resp.StatusCode)
				return
			}
		}
	}()
	// Scorers: single-point /score in a tight loop.
	scoreBody := `{"point": [0.3, 0.7, 0.5, 0.5]}`
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < scoreLoops; i++ {
				resp, err := http.Post(srv.URL+"/score", "application/json", strings.NewReader(scoreBody))
				if err != nil {
					report("scorer %d: %v", w, err)
					return
				}
				var sr ScoreResponse
				err = json.NewDecoder(resp.Body).Decode(&sr)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || sr.Score == nil {
					report("scorer %d: status %d decode %v", w, resp.StatusCode, err)
					return
				}
				if !coherent(*sr.Score) {
					report("scorer %d: torn score %v, want %v or %v", w, *sr.Score, want1, want2)
					return
				}
			}
		}(w)
	}
	// Streamers: short no-refit sessions; every record must be coherent
	// with a single model version for the whole session.
	streamBody := "[0.3,0.7,0.5,0.5]\n[0.3,0.7,0.5,0.5]\n[0.3,0.7,0.5,0.5]\n"
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < streamLoops; i++ {
				resp, err := http.Post(srv.URL+"/stream", "application/x-ndjson", strings.NewReader(streamBody))
				if err != nil {
					report("streamer %d: %v", w, err)
					return
				}
				raw, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr != nil || resp.StatusCode != http.StatusOK {
					report("streamer %d: status %d read %v", w, resp.StatusCode, rerr)
					return
				}
				var first float64
				n := 0
				for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
					var rec hics.StreamResult
					if err := json.Unmarshal([]byte(line), &rec); err != nil || strings.Contains(line, `"error"`) {
						report("streamer %d: bad line %q", w, line)
						return
					}
					if n == 0 {
						first = rec.Score
					} else if rec.Score != first {
						report("streamer %d: session mixed model versions: %v then %v", w, first, rec.Score)
						return
					}
					n++
				}
				if n != 3 {
					report("streamer %d: %d records, want 3", w, n)
					return
				}
				if !coherent(first) {
					report("streamer %d: torn stream score %v", w, first)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	// No goroutine leaks: with the client's idle keep-alive connections
	// closed (each parks a server read goroutine), the count settles back
	// to (near) the baseline once all requests and streams close.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baselineGoroutines+2 && time.Now().Before(deadline) {
		http.DefaultClient.CloseIdleConnections()
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baselineGoroutines+2 {
		buf := make([]byte, 1<<20)
		t.Errorf("goroutines leaked: %d -> %d\n%s", baselineGoroutines, n, buf[:runtime.Stack(buf, true)])
	}
}
