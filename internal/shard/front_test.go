package shard

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"hics"
	"hics/internal/rng"
	"hics/internal/serve"
)

// fitModel builds one small model shared by every test backend.
var (
	modelOnce sync.Once
	model     *hics.Model
	modelErr  error
)

func testModel(t *testing.T) *hics.Model {
	t.Helper()
	modelOnce.Do(func() {
		r := rng.New(1)
		rows := make([][]float64, 200)
		for i := range rows {
			c := 0.3
			if r.Float64() < 0.5 {
				c = 0.7
			}
			rows[i] = []float64{r.NormalScaled(c, 0.04), r.NormalScaled(c, 0.04), r.Float64(), r.Float64()}
		}
		model, modelErr = hics.Fit(rows, hics.Options{M: 10, Seed: 1, TopK: 5})
	})
	if modelErr != nil {
		t.Fatal(modelErr)
	}
	return model
}

// backend is one shard under test: a real serve handler (with drain
// control) plus a counter of the stream sessions it accepted.
type backend struct {
	srv   *serve.Server
	ts    *httptest.Server
	addr  string
	mu    sync.Mutex
	seen  int
	paths []string
}

func newBackend(t *testing.T, m *hics.Model) *backend {
	t.Helper()
	b := &backend{}
	b.srv = serve.New(serve.Config{Model: m, RequestTimeout: time.Minute})
	count := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b.mu.Lock()
		if r.URL.Path == "/stream" {
			b.seen++
		}
		b.paths = append(b.paths, r.URL.Path)
		b.mu.Unlock()
		b.srv.ServeHTTP(w, r)
	})
	b.ts = httptest.NewServer(count)
	u, err := url.Parse(b.ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	b.addr = u.Host
	t.Cleanup(b.ts.Close)
	return b
}

func (b *backend) streams() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seen
}

// newFront wires a front over the given backends with a fast probe.
func newFront(t *testing.T, backends ...*backend) (*Front, *Router, *httptest.Server) {
	t.Helper()
	addrs := make([]string, len(backends))
	for i, b := range backends {
		addrs[i] = b.addr
	}
	router, err := NewRouter(RouterConfig{Shards: addrs, ProbeInterval: 100 * time.Millisecond, FailThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Close)
	f := NewFront(FrontConfig{Router: router})
	ts := httptest.NewServer(f)
	t.Cleanup(ts.Close)
	return f, router, ts
}

// streamRows posts rows as one NDJSON session and returns the scored
// records plus any error-record strings, in arrival order.
func streamRows(t *testing.T, base, query string, rows int) ([]hics.StreamResult, []string) {
	t.Helper()
	var body strings.Builder
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&body, "[0.%d,0.5,0.5,0.5]\n", i%10)
	}
	resp, err := http.Post(base+"/stream?window=60&"+query, "application/x-ndjson", strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream status %d: %s", resp.StatusCode, b)
	}
	return readSession(t, resp.Body)
}

func readSession(t *testing.T, r io.Reader) ([]hics.StreamResult, []string) {
	t.Helper()
	var (
		records []hics.StreamResult
		errs    []string
	)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.Contains(line, `"error"`) {
			errs = append(errs, line)
			continue
		}
		var rec hics.StreamResult
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		records = append(records, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return records, errs
}

// TestFrontRoutesByKey: sessions with different keys spread across both
// shards per the rendezvous map, scored records come back intact, and
// the same key always lands on the same shard.
func TestFrontRoutesByKey(t *testing.T) {
	m := testModel(t)
	b1, b2 := newBackend(t, m), newBackend(t, m)
	_, router, ts := newFront(t, b1, b2)

	const rows = 5
	byAddr := map[string]*backend{b1.addr: b1, b2.addr: b2}
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("user-%d", i)
		owner := router.Owner(key)
		before := byAddr[owner].streams()
		records, errs := streamRows(t, ts.URL, "session="+key, rows)
		if len(errs) > 0 {
			t.Fatalf("key %s: error records %v", key, errs)
		}
		if len(records) != rows {
			t.Fatalf("key %s: %d records, want %d", key, len(records), rows)
		}
		for j, rec := range records {
			if rec.Index != j {
				t.Fatalf("key %s: record %d has index %d", key, j, rec.Index)
			}
		}
		if after := byAddr[owner].streams(); after != before+1 {
			t.Fatalf("key %s: owner %s saw %d sessions, want %d", key, owner, after, before+1)
		}
	}
	if b1.streams() == 0 || b2.streams() == 0 {
		t.Fatalf("keyspace did not spread: shard1=%d shard2=%d sessions", b1.streams(), b2.streams())
	}
}

// TestFrontUnaryProxy: /score and /info route through to a shard and
// come back byte-compatible; a dead owner fails over to the next
// candidate within the same request.
func TestFrontUnaryProxy(t *testing.T) {
	m := testModel(t)
	b1, b2 := newBackend(t, m), newBackend(t, m)
	_, router, ts := newFront(t, b1, b2)

	resp, err := http.Post(ts.URL+"/score?session=k1", "application/json", strings.NewReader(`{"point":[0.5,0.5,0.5,0.5]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"score"`) {
		t.Fatalf("proxied score: %d %s", resp.StatusCode, body)
	}

	ir, err := http.Get(ts.URL + "/info?session=k1")
	if err != nil {
		t.Fatal(err)
	}
	ibody, _ := io.ReadAll(ir.Body)
	ir.Body.Close()
	if ir.StatusCode != http.StatusOK || !strings.Contains(string(ibody), `"server"`) {
		t.Fatalf("proxied info: %d %s", ir.StatusCode, ibody)
	}

	// Kill the owner of key "failover"; the request must still succeed
	// via the surviving shard.
	key := "failover"
	owner := router.Owner(key)
	for _, b := range []*backend{b1, b2} {
		if b.addr == owner {
			b.ts.Close()
		}
	}
	fr, err := http.Post(ts.URL+"/score?session="+key, "application/json", strings.NewReader(`{"point":[0.5,0.5,0.5,0.5]}`))
	if err != nil {
		t.Fatal(err)
	}
	fbody, _ := io.ReadAll(fr.Body)
	fr.Body.Close()
	if fr.StatusCode != http.StatusOK || !strings.Contains(string(fbody), `"score"`) {
		t.Fatalf("failover score: %d %s", fr.StatusCode, fbody)
	}
}

// TestFrontUnknownPathPhase: a front request to a path it does not route
// is timed under the bounded phase front.other, never under a phase
// named after the client's path.
func TestFrontUnknownPathPhase(t *testing.T) {
	_, _, ts := newFront(t, newBackend(t, testModel(t)))
	const other = `hics_phase_seconds_count{phase="front.other"}`
	count := func() (n float64, body string) {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, other+" "); ok {
				fmt.Sscan(v, &n)
			}
		}
		return n, string(b)
	}
	before, _ := count()
	resp, err := http.Get(ts.URL + "/no/such/path")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/no/such/path status %d, want 404", resp.StatusCode)
	}
	after, body := count()
	if after-before != 1 {
		t.Errorf("%s moved by %v, want 1", other, after-before)
	}
	if strings.Contains(body, "no/such") || strings.Contains(body, "front.no") {
		t.Error("/metrics carries a phase named after the unknown path")
	}
}

// TestFrontDrainMidStream: draining the owning shard mid-session
// delivers every already-scored record plus the shard's terminal
// draining error record through the front, the front's health view
// flips the shard to draining, and the next session for the same key
// reroutes to the survivor.
func TestFrontDrainMidStream(t *testing.T) {
	m := testModel(t)
	b1, b2 := newBackend(t, m), newBackend(t, m)
	_, router, ts := newFront(t, b1, b2)

	key := "drain-me"
	owner := router.Owner(key)
	byAddr := map[string]*backend{b1.addr: b1, b2.addr: b2}
	owning, other := byAddr[owner], b1
	if owning == b1 {
		other = b2
	}

	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/stream?window=60&session="+key, pr)
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
	const scored = 4
	for i := 0; i < scored; i++ {
		if _, err := io.WriteString(pw, "[0.5,0.5,0.5,0.5]\n"); err != nil {
			t.Fatal(err)
		}
	}
	var resp *http.Response
	select {
	case resp = <-respc:
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(10 * time.Second):
		t.Fatal("no streaming response through the front")
	}
	defer resp.Body.Close()

	br := bufio.NewReader(resp.Body)
	readLine := func() string {
		linec := make(chan string, 1)
		errc := make(chan error, 1)
		go func() {
			l, err := br.ReadString('\n')
			if err != nil {
				errc <- err
				return
			}
			linec <- l
		}()
		select {
		case l := <-linec:
			return l
		case err := <-errc:
			t.Fatalf("reading proxied stream: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("timed out reading proxied stream")
		}
		return ""
	}
	for i := 0; i < scored; i++ {
		var rec hics.StreamResult
		if err := json.Unmarshal([]byte(readLine()), &rec); err != nil || rec.Index != i {
			t.Fatalf("proxied record %d: %v (err %v)", i, rec, err)
		}
	}

	// Drain the owner mid-session: the terminal record must pass through
	// with the scored lines already delivered above.
	owning.srv.Drain()
	terminal := readLine()
	if !strings.Contains(terminal, serve.DrainingStreamError) {
		t.Fatalf("terminal line %q does not carry the draining record", terminal)
	}
	pw.Close()

	// The front's next probe marks the shard draining.
	router.ProbeNow(t.Context())
	var st ShardStatus
	for _, s := range router.Status() {
		if s.Shard == owner {
			st = s
		}
	}
	if !st.Draining {
		t.Fatalf("owner %s not marked draining after probe: %+v", owner, router.Status())
	}

	// Front health reports the drained shard and stays serving.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK || !strings.Contains(string(hbody), `"degraded"`) {
		t.Fatalf("front health after drain: %d %s", hr.StatusCode, hbody)
	}

	// New sessions for the drained owner's keys reroute to the survivor.
	before := other.streams()
	records, errs := streamRows(t, ts.URL, "session="+key, 3)
	if len(errs) > 0 || len(records) != 3 {
		t.Fatalf("rerouted session: %d records, errs %v", len(records), errs)
	}
	if other.streams() != before+1 {
		t.Fatalf("session did not reroute to the survivor (saw %d, want %d)", other.streams(), before+1)
	}
}

// TestFrontAllShardsOut: with every shard draining, new sessions get a
// 503 with Retry-After and a JSON error, not a hang.
func TestFrontAllShardsOut(t *testing.T) {
	m := testModel(t)
	b1 := newBackend(t, m)
	_, router, ts := newFront(t, b1)
	b1.srv.Drain()
	router.ProbeNow(t.Context())

	resp, err := http.Post(ts.URL+"/stream?session=x", "application/x-ndjson", strings.NewReader("[0.5,0.5,0.5,0.5]\n"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("all-out stream: %d (Retry-After %q) %s", resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	if !strings.Contains(string(body), `"error"`) {
		t.Fatalf("all-out stream body %s is not a JSON error", body)
	}

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("front health with all shards out: %d, want 503", hr.StatusCode)
	}
}

// TestFrontHammer: concurrent sessions through the front while one
// shard drains mid-flight. Sessions owned by surviving shards must not
// lose a single row; sessions on the draining shard must either
// complete or end with the terminal draining record after a contiguous
// scored prefix. Run with -race in CI.
func TestFrontHammer(t *testing.T) {
	m := testModel(t)
	b1, b2, b3 := newBackend(t, m), newBackend(t, m), newBackend(t, m)
	_, router, ts := newFront(t, b1, b2, b3)
	byAddr := map[string]*backend{b1.addr: b1, b2.addr: b2, b3.addr: b3}
	drainAddr := b2.addr

	const (
		sessions = 12
		rows     = 30
	)
	type result struct {
		key     string
		records []hics.StreamResult
		errs    []string
		fail    string
	}
	results := make([]result, sessions)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res := &results[i]
			res.key = fmt.Sprintf("hammer-%d", i)
			pr, pw := io.Pipe()
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/stream?window=60&session="+res.key, pr)
			if err != nil {
				res.fail = err.Error()
				return
			}
			respc := make(chan *http.Response, 1)
			cerrc := make(chan error, 1)
			go func() {
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					cerrc <- err
					return
				}
				respc <- resp
			}()
			<-start
			writeDone := make(chan struct{})
			go func() {
				defer close(writeDone)
				defer pw.Close()
				for j := 0; j < rows; j++ {
					if _, err := io.WriteString(pw, "[0.5,0.5,0.5,0.5]\n"); err != nil {
						return // session torn down mid-write (drain): fine
					}
					time.Sleep(2 * time.Millisecond)
				}
			}()
			select {
			case resp := <-respc:
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b, _ := io.ReadAll(resp.Body)
					res.fail = fmt.Sprintf("status %d: %s", resp.StatusCode, b)
					return
				}
				res.records, res.errs = readSession(t, resp.Body)
			case err := <-cerrc:
				res.fail = err.Error()
				return
			case <-time.After(30 * time.Second):
				res.fail = "timed out"
				return
			}
			<-writeDone
		}(i)
	}
	close(start)
	time.Sleep(20 * time.Millisecond)
	byAddr[drainAddr].srv.Drain()
	wg.Wait()

	for _, res := range results {
		if res.fail != "" {
			t.Fatalf("session %s failed: %s", res.key, res.fail)
		}
		for j, rec := range res.records {
			if rec.Index != j {
				t.Fatalf("session %s: non-contiguous records (index %d at position %d)", res.key, rec.Index, j)
			}
		}
		owner := router.Owner(res.key)
		if owner != drainAddr {
			// Survivor-owned session: zero lost rows, no error records.
			if len(res.records) != rows || len(res.errs) != 0 {
				t.Fatalf("session %s on surviving shard %s: %d/%d records, errs %v",
					res.key, owner, len(res.records), rows, res.errs)
			}
			continue
		}
		// Drained-shard session: full completion (finished before the
		// kick) or a terminal draining record after the scored prefix.
		if len(res.records) == rows && len(res.errs) == 0 {
			continue
		}
		if len(res.errs) != 1 || !strings.Contains(res.errs[0], serve.DrainingStreamError) {
			t.Fatalf("session %s on drained shard: %d records, errs %v", res.key, len(res.records), res.errs)
		}
	}
}
