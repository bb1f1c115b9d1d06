package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"time"

	"hics"
	"hics/internal/eval"
	"hics/internal/rng"
	"hics/internal/shard"
)

// streamRows deals the out-of-sample pool to the sessions: the first rows
// the run needs, in a seed-permuted order unless d keeps the order, the
// pool reused from its start if the run needs more rows than it holds.
func streamRows(c *corpus, d dataSpec, sp *streamSpec, seed uint64, seconds time.Duration) (rows [][][]float64, labels [][]bool) {
	per := int(math.Ceil(sp.rate * (sp.warmup + seconds).Seconds()))
	order := rng.New(seed).Perm(per * sessions)
	if d.keepOrder {
		for i := range order {
			order[i] = i
		}
	}
	rows = make([][][]float64, sessions)
	labels = make([][]bool, sessions)
	for j, o := range order {
		s := j % sessions
		rows[s] = append(rows[s], c.pool[o%len(c.pool)])
		labels[s] = append(labels[s], c.poolLabels[o%len(c.pool)])
	}
	return rows, labels
}

// arrivals returns the due times of n rows sent one period apart.
func arrivals(n int, period time.Duration) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * period
	}
	return due
}

// streamOptions are the detector options hicsd resolves for the workload's
// sessions, for the in-process replay.
func streamOptions(sp *streamSpec, m *hics.Model) hics.StreamOptions {
	o := hics.StreamOptions{Window: sp.window, RefitEvery: sp.refitEvery}
	if o.Window == 0 {
		o.Window = m.N()
	}
	return o
}

// sessionURLs returns one /stream URL per session. Behind a front each
// session gets a routing key owned by a different shard, so the load
// splits evenly.
func sessionURLs(cl *cluster, sp *streamSpec) ([]string, error) {
	q := url.Values{}
	if sp.window > 0 {
		q.Set("window", strconv.Itoa(sp.window))
	}
	if sp.refitEvery > 0 {
		q.Set("refit_every", strconv.Itoa(sp.refitEvery))
	}
	base := "http://" + cl.target().addr + "/stream"
	urls := make([]string, sessions)
	if cl.front == nil {
		for i := range urls {
			urls[i] = base + "?" + q.Encode()
		}
		return urls, nil
	}
	addrs := make([]string, len(cl.shards))
	for i, p := range cl.shards {
		addrs[i] = p.addr
	}
	m, err := shard.NewMap(addrs)
	if err != nil {
		return nil, err
	}
	for i := range urls {
		want := addrs[i%len(addrs)]
		for k := 0; ; k++ {
			if k == 10000 {
				return nil, fmt.Errorf("no session key maps to shard %s", want)
			}
			key := "s" + strconv.Itoa(k)
			if m.Owner(key) == want {
				qq := url.Values{}
				for name, v := range q {
					qq[name] = v
				}
				qq.Set("session", key)
				urls[i] = base + "?" + qq.Encode()
				break
			}
		}
	}
	return urls, nil
}

// runStream measures a stream workload: it fits and saves the model, starts
// hicsd on it (repeatedly, reporting the median start), drives the open-loop
// sessions through a warm-up and the measuring time, reads the servers'
// CPU and peak memory, and checks every served record against an
// in-process replay. A traced run (rec != nil) starts the servers once and
// first times the layers in-process.
func runStream(ctx context.Context, e *env, w *workload, seed uint64, seconds time.Duration, rec *recorder) (*result, error) {
	sp := w.stream
	c, err := w.data.generate(seed)
	if err != nil {
		return nil, err
	}
	csvRead, rows, err := loadCorpus(e.path(w.name+".csv"), c)
	if err != nil {
		return nil, err
	}
	model, err := hics.Fit(rows, w.opts)
	if err != nil {
		return nil, fmt.Errorf("fitting the served model: %w", err)
	}
	modelPath := e.path(w.name + ".hics")
	if err := saveModel(modelPath, model); err != nil {
		return nil, err
	}
	sessRows, sessLabels := streamRows(c, w.data, sp, seed, seconds)
	res := &result{metrics: metrics{}}
	if rec != nil {
		res.metrics = layerDefaults()
		push := sessRows[0]
		if sp.refitEvery == 0 {
			push = push[:min(len(push), scoreRows)]
		}
		in := layerInputs{csvRead: csvRead, rows: rows, opts: w.opts, score: c.pool,
			sopts: streamOptions(sp, model), push: push, warm: true}
		if err := traceLayers(ctx, rec, in, res); err != nil {
			return nil, err
		}
	}
	bin, err := e.hicsd(ctx)
	if err != nil {
		return nil, err
	}

	// An untraced run starts the cluster at least five times and until 3 s
	// of starts have gone by (at most 200), keeping the last one: a shorter
	// budget let one slow second of the machine move the median by up to 45%.
	var (
		setups []float64
		spent  time.Duration
		cl     *cluster
	)
	for {
		c, d, err := startCluster(ctx, bin, modelPath, sp.shards)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		spent += d
		if rec != nil || (len(setups) >= 5 && spent >= 3*time.Second) || len(setups) == 200 {
			cl = c
			break
		}
		c.stop()
	}
	defer cl.stop()
	urls, err := sessionURLs(cl, sp)
	if err != nil {
		return nil, err
	}
	sess := make([]session, sessions)
	period := time.Duration(float64(time.Second) / sp.rate)
	for i := range sess {
		sess[i] = session{url: urls[i], rows: sessRows[i], due: arrivals(len(sessRows[i]), period)}
	}
	load, err := driveLoad(ctx, cl, sess, sp.warmup)
	if err != nil {
		return nil, err
	}
	if rec != nil && cl.front != nil {
		if err := measureHop(ctx, cl, sess, load, res); err != nil {
			return nil, err
		}
	}
	cl.stop()

	rep := load.report
	res.attempted, res.failed = rep.attempted, rep.failed
	if rep.failed > 0 {
		res.fail("%d of %d operations failed: %d rows without a record, %d error records, %d refused sessions, %d sessions with another status",
			rep.failed, rep.attempted, rep.missing, rep.errorRecords, rep.refused, rep.badStatus)
	}
	if n := len(rep.latencyMS); n == 0 {
		res.fail("no row due after the warm-up was answered")
		return res, nil
	}
	// The generator is late by up to 2 ms at p99 on a 2-vCPU VM even when
	// idle, and those rows count from when it woke. Falling a whole send
	// period behind changes the offered load; it is a finding about
	// the client and the machine, not a wrong output, so it is printed and
	// the run stays correct.
	late := sortedCopy(rep.lateMS)
	res.note("generator lateness p50 %.3f ms, p99 %.3f ms, send period %.3f ms", percentile(late, 50), percentile(late, 99), ms(period))
	if percentile(late, 99) > ms(period) {
		res.note("INVALID LOAD: the generator fell behind its schedule by more than a send period at p99")
	}
	model, err = loadModel(modelPath)
	if err != nil {
		return nil, err
	}
	served := verifyReplay(ctx, model, streamOptions(sp, model), sess, load.results, res)
	auc := streamAUC(load.results, sessLabels)
	if auc < w.aucFloor {
		res.fail("served-score AUC %.4f below the workload floor %.2f", auc, w.aucFloor)
	}
	if n := len(rep.latencyMS); !tailValid(n) {
		res.note("only %d timed rows: p99 has fewer than ten samples beyond it", n)
	}
	res.note("%d timed rows over %d sessions, %d rows checked against the replay", len(rep.latencyMS), len(sess), served)
	streamMetrics(res.metrics, rec != nil, cl.front != nil, setups, load, auc)
	return res, nil
}

// streamMetrics sets the end-to-end metrics of an untraced stream run, or
// the serve, shard and client layers of a traced one. CPU per row divides
// the servers' CPU time after the warm-up by the rows due after it.
func streamMetrics(m metrics, traced, front bool, setups []float64, load *loadRun, auc float64) {
	rep := load.report
	latency := sortedCopy(rep.latencyMS)
	rows := float64(len(latency))
	cpuPerRow := load.cpu.Seconds() / rows * 1e6
	if !traced {
		m["setup_s"] = median(setups)
		m["latency_p50_ms"] = percentile(latency, 50)
		m["cpu_ms_per_op"] = cpuPerRow / 1e3
		m["mem_mb"] = load.rssMB
		m["auc"] = auc
		return
	}
	m["serve.cpu_us_per_row"] = cpuPerRow
	m["serve.self_cpu_us"] = cpuPerRow - m["stream.push_cpu_us"]
	m["serve.session_open_ms"] = median(rep.openMS)
	m["serve.rss_mb"] = load.rssMB
	if front {
		m["shard.front_cpu_us_per_row"] = load.frontCPU.Seconds() / rows * 1e6
		m["shard.backend_cpu_us_per_row"] = cpuPerRow - m["shard.front_cpu_us_per_row"]
	}
	m["client.row_p50_ms"] = percentile(latency, 50)
	m["client.row_p99_ms"] = percentile(latency, 99)
	m["client.gen_late_p99_ms"] = percentile(sortedCopy(rep.lateMS), 99)
	m["client.rows_attempted"] = float64(rep.attempted)
	m["client.records"] = float64(rep.records)
	m["client.error_records"] = float64(rep.errorRecords)
	m["client.refused"] = float64(rep.refused)
	m["client.missing"] = float64(rep.missing)
}

// loadRun is the outcome of one load phase.
type loadRun struct {
	results []sessionResult
	report  loadReport
	// cpu is the CPU all server processes used from the end of the warm-up
	// until every session had ended; frontCPU the front's share of it.
	cpu, frontCPU time.Duration
	rssMB         float64
}

// driveLoad runs the sessions against the cluster and samples the server
// processes' CPU at the end of the warm-up and after the last session.
func driveLoad(ctx context.Context, cl *cluster, sessions []session, warmup time.Duration) (*loadRun, error) {
	// Each session's writer holds a scheduler slot while it sleeps in a
	// system call; extra slots keep the record readers from waiting for
	// the runtime to take those back.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU() + len(sessions)))
	// The client's garbage collector would pause the writers and take CPU
	// from the servers; a load phase allocates a few MB at most, so it is
	// switched off until the phase ends.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	tr := &http.Transport{DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	t0 := time.Now().Add(20 * time.Millisecond)
	var (
		results []sessionResult
		wg      sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results = runSessions(ctx, client, sessions, t0)
	}()
	select {
	case <-time.After(time.Until(t0.Add(warmup))):
	case <-ctx.Done():
	}
	cpu0, front0, err := clusterCPU(cl)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cpu1, front1, err := clusterCPU(cl)
	if err != nil {
		return nil, err
	}
	lr := &loadRun{results: results, cpu: cpu1 - cpu0, frontCPU: front1 - front0}
	for _, p := range cl.all() {
		mb, err := p.peakRSSMB()
		if err != nil {
			return nil, err
		}
		lr.rssMB += mb
	}
	lr.report = summarize(results, sessions, warmup)
	return lr, nil
}

// clusterCPU sums the CPU time of every server process and returns the
// front's separately.
func clusterCPU(cl *cluster) (total, front time.Duration, err error) {
	for _, p := range cl.all() {
		d, err := p.cpu()
		if err != nil {
			return 0, 0, err
		}
		total += d
		if p == cl.front {
			front = d
		}
	}
	return total, front, nil
}

// measureHop runs the first two seconds of every session directly against
// its shard and reports how much the front adds to the median latency.
func measureHop(ctx context.Context, cl *cluster, sessions []session, viaFront *loadRun, res *result) error {
	direct := make([]session, len(sessions))
	for i, s := range sessions {
		u, err := url.Parse(s.url)
		if err != nil {
			return err
		}
		u.Host = cl.shards[i%len(cl.shards)].addr
		n, _ := slices.BinarySearch(s.due, 2*time.Second)
		direct[i] = session{url: u.String(), rows: s.rows[:n], due: s.due[:n]}
	}
	lr, err := driveLoad(ctx, cl, direct, 0)
	if err != nil {
		return err
	}
	if lr.report.failed > 0 {
		res.fail("direct-to-shard phase: %d of %d operations failed", lr.report.failed, lr.report.attempted)
		return nil
	}
	res.metrics["shard.hop_p50_ms"] = median(viaFront.report.latencyMS) - median(lr.report.latencyMS)
	return nil
}

// verifyReplay pushes every session's written rows through an in-process
// synchronous stream over the same model and options and fails the run
// for each served record whose score or refit count differs. It returns
// the number of records checked.
func verifyReplay(ctx context.Context, m *hics.Model, sopts hics.StreamOptions, sessions []session, results []sessionResult, res *result) int {
	type outcome struct {
		checked    int
		mismatches []string
		err        error
	}
	outs := make([]outcome, len(sessions))
	var wg sync.WaitGroup
	for si := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := &outs[si]
			st, err := m.NewStream(sopts)
			if err != nil {
				o.err = err
				return
			}
			defer st.Close()
			r := results[si]
			var out []hics.StreamResult
			for i := 0; i < r.written; i++ {
				out, err = st.PushAppend(ctx, sessions[si].rows[i], out[:0])
				if err != nil {
					o.err = err
					return
				}
				if r.recv[i] < 0 {
					continue
				}
				o.checked++
				want := out[0]
				if math.Float64bits(want.Score) != math.Float64bits(r.scores[i]) || want.Refits != r.refits[i] {
					o.mismatches = append(o.mismatches, fmt.Sprintf("session %d row %d: served score %v after %d refits, replay %v after %d",
						si, i, r.scores[i], r.refits[i], want.Score, want.Refits))
				}
			}
		}()
	}
	wg.Wait()
	checked := 0
	for _, o := range outs {
		checked += o.checked
		if o.err != nil {
			res.fail("replay: %v", o.err)
		}
		if len(o.mismatches) > 0 {
			res.fail("%d served scores differ from the replay; first: %s", len(o.mismatches), o.mismatches[0])
		}
	}
	return checked
}

// streamAUC is the AUC of the served scores against the planted labels of
// the rows that were answered.
func streamAUC(results []sessionResult, labels [][]bool) float64 {
	var scores []float64
	var truth []bool
	for si, r := range results {
		for i := 0; i < r.written; i++ {
			if r.recv[i] >= 0 {
				scores = append(scores, r.scores[i])
				truth = append(truth, labels[si][i])
			}
		}
	}
	auc, err := eval.AUC(scores, truth)
	if err != nil {
		return 0
	}
	return auc
}

func saveModel(path string, m *hics.Model) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Save(f); err != nil {
		f.Close()
		return fmt.Errorf("saving %s: %w", path, err)
	}
	return f.Close()
}

func loadModel(path string) (*hics.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return hics.LoadModel(f)
}
