package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"time"

	"hics"
	"hics/internal/dataset"
	"hics/internal/rng"
	"hics/internal/subspace"
	"hics/internal/synth"
)

// dataSpec fixes a workload's data corpus: training rows followed by a
// pool of out-of-sample rows from the same synth generator streams, so the
// pool shares the planted clusters but never repeats a training row.
//
// The corpus and the Monte Carlo seed of every fit are constant per
// workload, and --seed decides the order of the training rows and of the
// streamed rows. HiCS's work depends on the data and on the Monte Carlo
// seed, not on the row order: on fit-paper, varying the Monte Carlo seed
// alone moved the fit time from 1.90 s to 2.67 s (the Apriori search
// evaluated between 2,668 and 2,979 candidates and kept different
// subspaces), and varying the corpus moved the number of candidates from
// 2,674 to 4,137. Either would hide a 10% change of the code in the
// choice of inputs.
type dataSpec struct {
	train, pool    int
	dims           int
	minDim, maxDim int
	// outliers is synth's OutliersPerSubspace over train+pool rows.
	outliers int
	seed     uint64
	// keepOrder fixes the order of the training and streamed rows too.
	// Subsampled contrast draws its rows by index, so on fit-large the
	// order changed the selected subspaces and moved the AUC between 0.66
	// and 0.80. On stream-refit the order decides what each refit window
	// holds, and so the refitted models and the work of scoring with them.
	keepOrder bool
}

// workload is a fit workload when stream is nil.
type workload struct {
	name, why string
	data      dataSpec
	opts      hics.Options
	// aucFloor fails the run when the AUC of the training scores (fit) or
	// the served scores (stream) falls below it; set 0.02 under the first
	// recording.
	aucFloor float64
	// planted requires every subspace a fit selects to lie inside a
	// planted group, the BenchmarkFitLarge quality check.
	planted bool
	stream  *streamSpec
}

type streamSpec struct {
	// shards is 0 for one standalone hicsd, else the number of shard
	// processes behind one front.
	shards int
	rate   float64 // rows per second per session, evenly paced, open loop
	// window and refitEvery are the /stream query parameters; 0 keeps the
	// server default (window = training size, never refit).
	window, refitEvery int
	// warmup precedes the measuring time, so the first rows a fresh
	// server handles, while its heap grows, go unmeasured. On
	// stream-refit it also covers the first refit, so every timed row is
	// scored by a refitted window model: rows scored by the served model
	// took 1.4 ms against 0.5 ms, and the median of that mix spread
	// 28-35% over ten runs.
	warmup time.Duration
}

const (
	// sessions is the number of /stream sessions, one connection each:
	// the client may use as many connections as the machine has CPUs.
	sessions = 2
	// maxSeconds bounds --seconds; stream pools are sized for it.
	maxSeconds = 60
)

func streamPool(sp streamSpec) int {
	return int(sessions*sp.rate*(sp.warmup+maxSeconds*time.Second).Seconds()) + 1
}

var (
	scoreStream = streamSpec{rate: 100, warmup: 3 * time.Second}
	refitStream = streamSpec{rate: 50, window: 250, refitEvery: 250, warmup: 7 * time.Second}
	frontStream = streamSpec{shards: 2, rate: 1000, warmup: 3 * time.Second}
)

var workloads = []*workload{
	{
		name:     "fit-paper",
		why:      "hics.Fit with the paper's defaults on 2000x20 synth rows; the full-N Monte Carlo contrast search dominates",
		data:     dataSpec{train: 2000, pool: scoreRows, dims: 20, minDim: 2, maxDim: 5, outliers: 5, seed: 11},
		opts:     hics.Options{Seed: 1},
		aucFloor: 0.97,
	},
	{
		name:     "fit-large",
		why:      "hics.Fit at 100000x30 with subsampled contrast and the kNN score; neighbor-index builds and all-kNN passes dominate",
		data:     dataSpec{train: 100_000, pool: scoreRows, dims: 30, minDim: 2, maxDim: 3, outliers: 5, seed: 8, keepOrder: true},
		opts:     hics.Options{M: 100, Seed: 8, TopK: 10, CandidateCutoff: 100, MaxDim: 3, UseKNNScore: true, MaxSampleRows: 2000},
		aucFloor: 0.72,
		planted:  true,
	},
	{
		name:     "stream-score",
		why:      "two open-loop /stream sessions on one hicsd; per-row cost is Model.Score over 100 subspaces",
		data:     dataSpec{train: 2000, pool: streamPool(scoreStream), dims: 12, minDim: 2, maxDim: 5, outliers: 36, seed: 21},
		opts:     hics.Options{Seed: 1},
		aucFloor: 0.97,
		stream:   &scoreStream,
	},
	{
		name:     "stream-refit",
		why:      "the same server refitting each session's 250-row window every 250 rows, so refits compete with scoring for the CPUs",
		data:     dataSpec{train: 2000, pool: streamPool(refitStream), dims: 12, minDim: 2, maxDim: 5, outliers: 36, seed: 21, keepOrder: true},
		opts:     hics.Options{Seed: 1},
		aucFloor: 0.94, // the window models' AUC: 0.980 with -seconds 10, 0.964 with 60
		stream:   &refitStream,
	},
	{
		name:     "stream-front",
		why:      "a front over two shards serving a light model at 2x1000 rows/s; the row codec, flushes and the proxy hop dominate",
		data:     dataSpec{train: 1000, pool: streamPool(frontStream), dims: 4, minDim: 2, maxDim: 2, outliers: 630, seed: 31},
		opts:     hics.Options{Seed: 1, TopK: 5},
		aucFloor: 0.97,
		stream:   &frontStream,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// corpus is a generated dataset with its ground truth.
type corpus struct {
	train, pool             [][]float64
	trainLabels, poolLabels []bool
	groups                  []subspace.Subspace
}

// generate builds the corpus with its training rows in the seed's order,
// unless the spec keeps their order.
func (d dataSpec) generate(seed uint64) (*corpus, error) {
	c := &corpus{}
	groups, err := synth.Stream(synth.Config{
		N: d.train + d.pool, D: d.dims,
		MinSubspaceDim: d.minDim, MaxSubspaceDim: d.maxDim,
		OutliersPerSubspace: d.outliers, Seed: d.seed,
	}, func(id int, row []float64, outlier bool) error {
		r := append([]float64(nil), row...)
		if id < d.train {
			c.train = append(c.train, r)
			c.trainLabels = append(c.trainLabels, outlier)
		} else {
			c.pool = append(c.pool, r)
			c.poolLabels = append(c.poolLabels, outlier)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("generating %d rows: %w", d.train+d.pool, err)
	}
	c.groups = groups
	if d.keepOrder {
		return c, nil
	}
	perm := rng.New(seed).Perm(d.train)
	train, labels := make([][]float64, d.train), make([]bool, d.train)
	for i, j := range perm {
		train[i], labels[i] = c.train[j], c.trainLabels[j]
	}
	c.train, c.trainLabels = train, labels
	return c, nil
}

// writeTrainCSV writes the training rows and labels as the workload file.
func writeTrainCSV(path string, c *corpus) error {
	ds, err := dataset.FromRows(nil, c.train)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := dataset.WriteCSV(w, ds, c.trainLabels); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readTrainCSV parses the workload file the way a user would load it.
func readTrainCSV(path string) (*dataset.Labeled, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadLabeledCSV(bufio.NewReaderSize(f, 1<<20), dataset.CSVOptions{Header: true})
}

// loadCorpus writes the training CSV, then reads it back repeatedly, each
// time from a collected heap: at least three times and until 1.5 s of reads
// have gone by (at most 200), so the median spans the machine's slower
// and faster seconds alike.
// It returns the median read time and the rows as parsed, after checking
// they are bit-identical to the generated ones.
func loadCorpus(path string, c *corpus) (time.Duration, [][]float64, error) {
	if err := writeTrainCSV(path, c); err != nil {
		return 0, nil, fmt.Errorf("writing %s: %w", path, err)
	}
	var (
		times []float64
		l     *dataset.Labeled
		spent time.Duration
	)
	for len(times) < 3 || (spent < 1500*time.Millisecond && len(times) < 200) {
		runtime.GC()
		start := time.Now()
		var err error
		l, err = readTrainCSV(path)
		d := time.Since(start)
		if err != nil {
			return 0, nil, fmt.Errorf("reading %s: %w", path, err)
		}
		times = append(times, d.Seconds())
		spent += d
	}
	rows := make([][]float64, l.Data.N())
	for i := range rows {
		rows[i] = l.Data.Row(i, nil)
		if !bitsEqual(rows[i], c.train[i]) || l.Outlier[i] != c.trainLabels[i] {
			return 0, nil, fmt.Errorf("%s: row %d does not round-trip", path, i)
		}
	}
	return time.Duration(median(times) * float64(time.Second)), rows, nil
}
