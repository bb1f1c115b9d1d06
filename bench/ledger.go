package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"hics"
	"hics/internal/core"
	"hics/internal/dataset"
	"hics/internal/lof"
	"hics/internal/neighbors"
	"hics/internal/rng"
	"hics/internal/subspace"
)

// Sample sizes of the per-call timings in a traced run.
const (
	contrastSamples = 16 // candidates timed per Apriori level
	// scoreRows out-of-sample rows are scored per layer: enough for a p99
	// with ten samples beyond it.
	scoreRows = 1000
)

// layerInputs are the inputs of one traced pass over the layers.
type layerInputs struct {
	csvRead time.Duration
	rows    [][]float64 // training rows as parsed from the workload file
	opts    hics.Options
	score   [][]float64 // out-of-sample rows scored in-process
	sopts   hics.StreamOptions
	push    [][]float64 // rows pushed through an in-process stream
	// warm reports that the process has already fitted these rows, so no
	// warm-up fit is needed.
	warm bool
}

// coreParams maps the public options onto the search parameters hics.Fit
// derives from them.
func coreParams(o hics.Options) (core.Params, error) {
	p := core.Params{
		M: o.M, Alpha: o.Alpha, Cutoff: o.CandidateCutoff, TopK: o.TopK, Seed: o.Seed,
		Workers: o.Workers, MaxDim: o.MaxDim, AdaptiveM: o.AdaptiveM, MaxSampleRows: o.MaxSampleRows,
	}
	if o.Test != "" {
		t, err := core.ParseTest(o.Test)
		if err != nil {
			return p, err
		}
		p.Test = t
	}
	return p, nil
}

// queryScorer is the out-of-sample scoring call of a fitted LOF or kNN
// state.
type queryScorer interface {
	ScoreQueryAt(full []float64, dims []int) float64
}

func totalAllocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// traceLayers times hics.Fit, then replays it call by call through the
// layers it is built from — dataset, core, subspace, neighbors, lof — and
// times out-of-sample scoring, model loading and an in-process stream.
// The replay's calls (row conversion, sorted indexes, search, one scorer
// fit per selected subspace) must explain the hics.Fit time; what they do
// not is reported as the ledger residual. The decomposition that follows
// repeats parts of that work in smaller calls to split the search and the
// scorer fits into their layers.
func traceLayers(ctx context.Context, rec *recorder, in layerInputs, res *result) error {
	m := res.metrics
	m["dataset.csv_read_s"] = in.csvRead.Seconds()
	p, err := coreParams(in.opts)
	if err != nil {
		return err
	}
	kind, err := neighbors.ParseKind(in.opts.NeighborIndex)
	if err != nil {
		return err
	}
	k := in.opts.MinPts
	if k < 1 {
		k = lof.DefaultMinPts
	}
	useKNN := in.opts.UseKNNScore || in.opts.Scorer == "knn"

	// An untraced warm-up fit first, as in the untraced runs; then the
	// replay runs between two timed fits, so a drift of the machine's
	// speed moves both sides of the ledger alike.
	res.attempted += 2
	if !in.warm {
		res.attempted++
		if _, err := hics.Fit(in.rows, in.opts); err != nil {
			res.failed++
			return fmt.Errorf("warm-up fit: %w", err)
		}
	}
	var model *hics.Model
	timedFit := func() (time.Duration, error) {
		runtime.GC()
		d, err := rec.timed("hics.fit", 0, func() (err error) {
			model, err = hics.Fit(in.rows, in.opts)
			return err
		})
		if err != nil {
			res.failed++
		}
		return d, err
	}
	fitBefore, err := timedFit()
	if err != nil {
		return fmt.Errorf("fit: %w", err)
	}

	runtime.GC()
	root := rec.begin("ledger", 0)
	var ds *dataset.Dataset
	dRows, err := rec.timed("dataset.from_rows", root, func() (err error) {
		ds, err = dataset.FromRows(nil, in.rows)
		return err
	})
	if err != nil {
		return err
	}
	dIndex, _ := rec.timed("dataset.sorted_index", root, func() error { ds.EnsureIndexes(); return nil })
	var sr *core.SearchResult
	a0 := totalAllocMB()
	dSearch, err := rec.timed("core.search", root, func() (err error) {
		sr, err = core.SearchContext(ctx, ds, p)
		return err
	})
	if err != nil {
		return err
	}
	searchAlloc := totalAllocMB() - a0
	scorers := make([]queryScorer, len(sr.Subspaces))
	var dLOF time.Duration
	a0 = totalAllocMB()
	for i, sc := range sr.Subspaces {
		d, err := rec.timed("lof.fit", root, func() error {
			if useKNN {
				f, _, err := lof.FitKNNContext(ctx, ds, sc.S, k, kind, p.Workers)
				scorers[i] = f
				return err
			}
			f, _, err := lof.FitContext(ctx, ds, sc.S, k, kind, p.Workers)
			scorers[i] = f
			return err
		})
		if err != nil {
			return err
		}
		dLOF += d
	}
	lofAlloc := totalAllocMB() - a0
	rec.end(root)
	fitAfter, err := timedFit()
	if err != nil {
		return fmt.Errorf("fit: %w", err)
	}
	fitWall := (fitBefore + fitAfter) / 2
	checkReplay(res, model, sr)

	dec := rec.begin("decompose", 0)
	var ev *core.Evaluator
	dPrep, _ := rec.timed("core.evaluator_prep", dec, func() error { ev = core.NewEvaluator(ds, p); return nil })
	levels, dGen := replayCandidates(rec, dec, ds.D(), sr, p)
	generated := 0
	for _, l := range levels {
		generated += len(l)
	}
	if generated != sr.Evaluated {
		res.fail("replayed candidate generation yields %d candidates, the search evaluated %d", generated, sr.Evaluated)
	}
	var pool []subspace.Scored
	for _, l := range sr.Levels {
		pool = append(pool, l...)
	}
	var pruned []subspace.Scored
	dPrune, _ := rec.timed("subspace.prune", dec, func() error { pruned = subspace.PruneRedundant(pool); return nil })
	contrastUS, err := sampleContrasts(ctx, rec, dec, ev, levels, p.Seed)
	if err != nil {
		return err
	}
	idxs := make([]neighbors.Index, len(sr.Subspaces))
	var dBuild, dKNN time.Duration
	kdtrees, neighborhood := 0, 0.0
	for i, sc := range sr.Subspaces {
		d, err := rec.timed("neighbors.build", dec, func() (err error) {
			idxs[i], err = neighbors.New(ds, sc.S, kind)
			return err
		})
		if err != nil {
			return err
		}
		dBuild += d
		var nbs [][]neighbors.Neighbor
		d, err = rec.timed("neighbors.knn_all", dec, func() (err error) {
			nbs, _, err = idxs[i].KNNAllContext(ctx, k, p.Workers)
			return err
		})
		if err != nil {
			return err
		}
		dKNN += d
		if idxs[i].Kind() == neighbors.KindKDTree {
			kdtrees++
		}
		members := 0
		for _, nb := range nbs {
			members += len(nb)
		}
		neighborhood += float64(members) / float64(len(nbs)*k)
	}
	rec.end(dec)

	rows := in.score[:min(len(in.score), scoreRows)]
	scoreUS, err := timeRows(rec, "hics.score", rows, func(row []float64) error {
		_, err := model.Score(row)
		return err
	})
	if err != nil {
		return err
	}
	queryUS, _ := timeRows(rec, "lof.score_query", rows, func(row []float64) error {
		for i, s := range scorers {
			s.ScoreQueryAt(row, sr.Subspaces[i].S)
		}
		return nil
	})
	pointUS, _ := timeRows(rec, "neighbors.knn_point", rows, knnPointAll(idxs, sr.Subspaces, k))

	var saved bytes.Buffer
	if err := model.Save(&saved); err != nil {
		return err
	}
	dLoad, err := rec.timed("hics.load_model", 0, func() error {
		_, err := hics.LoadModel(bytes.NewReader(saved.Bytes()))
		return err
	})
	if err != nil {
		return err
	}
	if err := tracePush(ctx, rec, model, in, m); err != nil {
		return err
	}

	nSub := float64(len(sr.Subspaces))
	explained := dRows + dIndex + dSearch + dLOF
	m["dataset.sorted_index_s"] = dIndex.Seconds()
	m["core.evaluator_prep_s"] = dPrep.Seconds()
	m["core.search_s"] = dSearch.Seconds()
	m["core.search_alloc_mb"] = searchAlloc
	m["core.candidates"] = float64(sr.Evaluated)
	m["core.mc_iterations"] = float64(sr.MCIterations)
	m["core.levels"] = float64(len(sr.Levels))
	m["core.retained_ratio"] = float64(len(pool)) / float64(sr.Evaluated)
	for name, v := range contrastUS {
		m["core.contrast_us."+name] = v
	}
	m["subspace.generate_s"] = dGen.Seconds()
	m["subspace.prune_s"] = dPrune.Seconds()
	m["subspace.pruned_ratio"] = 1 - float64(len(pruned))/float64(len(pool))
	m["neighbors.build_s"] = dBuild.Seconds()
	m["neighbors.knn_all_s"] = dKNN.Seconds()
	m["neighbors.kdtree_ratio"] = float64(kdtrees) / nSub
	m["neighbors.mean_neighborhood"] = neighborhood / nSub
	m["neighbors.knn_point_us"] = mean(pointUS)
	m["lof.fit_s"] = dLOF.Seconds()
	m["lof.fit_alloc_mb"] = lofAlloc
	m["lof.self_s"] = (dLOF - dBuild - dKNN).Seconds()
	m["lof.score_query_us"] = mean(queryUS)
	m["hics.fit_s"] = fitWall.Seconds()
	m["hics.fit_residual_s"] = (fitWall - explained).Seconds()
	m["ledger.residual_ratio"] = (fitWall - explained).Seconds() / fitWall.Seconds()
	sorted := sortedCopy(scoreUS)
	m["hics.score_us.p50"] = percentile(sorted, 50)
	m["hics.score_us.p99"] = percentile(sorted, 99)
	m["hics.load_model_s"] = dLoad.Seconds()
	res.note("ledger: hics.Fit %.3fs = rows %.3fs + sorted index %.3fs + search %.3fs + scorer fits %.3fs + residual %.3fs",
		fitWall.Seconds(), dRows.Seconds(), dIndex.Seconds(), dSearch.Seconds(), dLOF.Seconds(), (fitWall - explained).Seconds())
	if !tailValid(len(rows)) {
		res.note("only %d rows scored per scoring layer: p99 has fewer than ten samples beyond it", len(rows))
	}
	return nil
}

// checkReplay fails the run when the replayed search selected other
// subspaces than hics.Fit did: the ledger would then time other work.
func checkReplay(res *result, model *hics.Model, sr *core.SearchResult) {
	got := model.Subspaces()
	if len(got) != len(sr.Subspaces) {
		res.fail("replayed search selected %d subspaces, hics.Fit %d", len(sr.Subspaces), len(got))
		return
	}
	for i, s := range got {
		r := sr.Subspaces[i]
		if !slices.Equal(s.Dims, []int(r.S)) || math.Float64bits(s.Contrast) != math.Float64bits(r.Score) {
			res.fail("replayed search subspace %d is %v (%v), hics.Fit selected %v (%v)", i, r.S, r.Score, s.Dims, s.Contrast)
			return
		}
	}
}

// replayCandidates regenerates every Apriori level's candidate list from
// the levels the search retained, timing each GenerateCandidates call.
func replayCandidates(rec *recorder, parent, dims int, sr *core.SearchResult, p core.Params) ([][]subspace.Subspace, time.Duration) {
	levels := [][]subspace.Subspace{subspace.AllPairs(dims)}
	var total time.Duration
	for _, retained := range sr.Levels {
		if p.MaxDim > 0 && retained[0].S.Dim() >= p.MaxDim {
			break
		}
		parents := make([]subspace.Subspace, len(retained))
		for i, sc := range retained {
			parents[i] = sc.S
		}
		var next []subspace.Subspace
		d, _ := rec.timed("subspace.generate", parent, func() error {
			next = subspace.GenerateCandidates(parents)
			return nil
		})
		total += d
		if len(next) == 0 {
			break
		}
		levels = append(levels, next)
	}
	return levels, total
}

// sampleContrasts times Evaluator.ContrastContext on up to
// contrastSamples evenly spaced candidates of every level, one goroutine,
// and returns the mean time per candidate in µs for two-, three- and
// higher-dimensional candidates (0 where the search had none).
func sampleContrasts(ctx context.Context, rec *recorder, parent int, ev *core.Evaluator, levels [][]subspace.Subspace, seed uint64) (map[string]float64, error) {
	sc := ev.NewScratch()
	base := rng.New(seed)
	sum := map[string]time.Duration{}
	n := map[string]int{}
	for _, cands := range levels {
		class := "d4plus"
		switch cands[0].Dim() {
		case 2:
			class = "d2"
		case 3:
			class = "d3"
		}
		step := max(1, len(cands)/contrastSamples)
		d, err := rec.timed("core.contrast."+class, parent, func() error {
			for i := 0; i < len(cands); i += step {
				if _, err := ev.ContrastContext(ctx, cands[i], base.Derive(uint64(i)), sc); err != nil {
					return err
				}
				n[class]++
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		sum[class] += d
	}
	out := map[string]float64{"d2": 0, "d3": 0, "d4plus": 0}
	for class, d := range sum {
		out[class] = us(d) / float64(n[class])
	}
	return out, nil
}

// knnPointAll returns a per-row call answering the scorer's neighbor
// query in every selected subspace.
func knnPointAll(idxs []neighbors.Index, subs []subspace.Scored, k int) func([]float64) error {
	scratch := make([]*neighbors.Scratch, len(idxs))
	for i, ix := range idxs {
		scratch[i] = ix.NewScratch()
	}
	var (
		buf  []neighbors.Neighbor
		proj []float64
	)
	return func(row []float64) error {
		for i, ix := range idxs {
			proj = proj[:0]
			for _, d := range subs[i].S {
				proj = append(proj, row[d])
			}
			buf, _ = ix.KNNPoint(proj, k, scratch[i], buf[:0])
		}
		return nil
	}
}

// timeRows calls fn on every row inside one span and returns the per-row
// times in µs.
func timeRows(rec *recorder, name string, rows [][]float64, fn func([]float64) error) ([]float64, error) {
	out := make([]float64, 0, len(rows))
	_, err := rec.timed(name, 0, func() error {
		for _, row := range rows {
			t := time.Now()
			if err := fn(row); err != nil {
				return err
			}
			out = append(out, us(time.Since(t)))
		}
		return nil
	})
	return out, err
}

// tracePush pushes the rows through an in-process stream over the model
// with the workload's stream options, timing every push.
func tracePush(ctx context.Context, rec *recorder, model *hics.Model, in layerInputs, m metrics) error {
	st, err := model.NewStream(in.sopts)
	if err != nil {
		return err
	}
	var (
		pushUS, refitS []float64
		out            []hics.StreamResult
	)
	id := rec.begin("stream.push", 0)
	c0 := processCPU()
	for _, row := range in.push {
		before := st.Refits()
		t := time.Now()
		out, err = st.PushAppend(ctx, row, out[:0])
		d := time.Since(t)
		if err != nil {
			st.Close()
			return fmt.Errorf("stream push: %w", err)
		}
		if st.Refits() > before {
			refitS = append(refitS, d.Seconds())
		}
		pushUS = append(pushUS, us(d))
	}
	cpu := processCPU() - c0
	rec.end(id)
	if err := st.Close(); err != nil {
		return err
	}
	sorted := sortedCopy(pushUS)
	m["stream.push_us.p50"] = percentile(sorted, 50)
	m["stream.push_us.p99"] = percentile(sorted, 99)
	m["stream.push_cpu_us"] = us(cpu) / float64(len(in.push))
	m["stream.refits"] = float64(len(refitS))
	if len(refitS) > 0 {
		m["stream.refit_s"] = median(refitS)
	}
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
