package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"text/tabwriter"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Times are offsets from the recorder's epoch; Parent is 0 for a root.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	StartUS  float64 `json:"start_us"`
	EndUS    float64 `json:"end_us"`
}

func (s span) dur() time.Duration { return time.Duration((s.EndUS - s.StartUS) * 1e3) }

// recorder keeps spans in memory until the run ends. It is used from one
// goroutine only: the traced calls run one after another, so a layer's
// time is not blurred by a concurrent one.
type recorder struct {
	workload string
	epoch    time.Time
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, epoch: time.Now()}
}

// begin opens a span under parent (0 for a root) and returns its id.
func (r *recorder) begin(name string, parent int) int {
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Name: name, Workload: r.workload,
		StartUS: us(time.Since(r.epoch)),
	})
	return len(r.spans)
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	s := &r.spans[id-1]
	s.EndUS = us(time.Since(r.epoch))
	return s.dur()
}

// timed runs fn inside a span and returns the span's duration.
func (r *recorder) timed(name string, parent int, fn func() error) (time.Duration, error) {
	id := r.begin(name, parent)
	err := fn()
	return r.end(id), err
}

// writeNDJSON writes one JSON object per span to dir/<workload>.ndjson.
func (r *recorder) writeNDJSON(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, r.workload+".ndjson")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// selfTime is a span's duration minus the part of its interval that its
// children cover.
func selfTime(spans []span, s span) time.Duration {
	var kids [][2]float64
	for _, c := range spans {
		if c.Parent == s.ID {
			kids = append(kids, [2]float64{max(c.StartUS, s.StartUS), min(c.EndUS, s.EndUS)})
		}
	}
	slices.SortFunc(kids, func(a, b [2]float64) int {
		switch {
		case a[0] < b[0]:
			return -1
		case a[0] > b[0]:
			return 1
		}
		return 0
	})
	covered, reach := 0.0, s.StartUS
	for _, k := range kids {
		lo := max(k[0], reach)
		if k[1] > lo {
			covered += k[1] - lo
			reach = k[1]
		}
	}
	return s.dur() - time.Duration(covered*1e3)
}

// printSelfTimes writes the per-name span count, total and self time.
func printSelfTimes(w io.Writer, spans []span) {
	type agg struct {
		n           int
		total, self time.Duration
	}
	var names []string
	by := map[string]*agg{}
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
			names = append(names, s.Name)
		}
		a.n++
		a.total += s.dur()
		a.self += selfTime(spans, s)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "span\tcount\ttotal_ms\tself_ms\t")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.2f\t\n", n, a.n, ms(a.total), ms(a.self))
	}
	tw.Flush()
}
