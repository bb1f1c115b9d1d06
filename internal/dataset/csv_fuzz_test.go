// Fuzz targets for the CSV parsers. The hics CLI reads its input files
// and streams through them, so they must never panic, must uphold their
// shape invariants on arbitrary bytes, and must read every numeric input
// that encoding/csv reads exactly as it does.
package dataset

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// addSeedCorpus feeds the committed testdata CSVs plus a few tricky
// inline cases to the fuzzer.
func addSeedCorpus(f *testing.F) {
	f.Helper()
	entries, err := os.ReadDir("testdata")
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".csv" {
			continue
		}
		data, err := os.ReadFile(filepath.Join("testdata", e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	for _, s := range []string{
		"",
		"\n\n\n",
		"1,2\n3\n",
		"1,abc\n",
		"x,y,label\n1,2,kaboom\n",
		`"unclosed,1`,
		"a,a,a\nNaN,Inf,-Inf\n",
		"1.5;2,5\n",
		"label\n1\n0\n",
		"x,y\r\n1,2\r\n",
		"\xff\xfe,1\n2,3\n",
	} {
		f.Add(s)
	}
}

// checkLabeled asserts the invariants of a successful parse: a non-empty
// rectangular matrix and a label slice that is nil or exactly N long.
func checkLabeled(t *testing.T, l *Labeled) {
	t.Helper()
	if l == nil || l.Data == nil {
		t.Fatal("nil result without error")
	}
	if l.Data.N() < 1 || l.Data.D() < 1 {
		t.Fatalf("degenerate shape %dx%d accepted", l.Data.N(), l.Data.D())
	}
	if l.Outlier != nil && len(l.Outlier) != l.Data.N() {
		t.Fatalf("%d labels for %d rows", len(l.Outlier), l.Data.N())
	}
	if len(l.Data.Names()) != l.Data.D() {
		t.Fatalf("%d names for %d columns", len(l.Data.Names()), l.Data.D())
	}
}

// FuzzReadCSV hammers the plain reader with and without a header row:
// no input may panic, and every accepted input must produce a consistent
// Dataset.
func FuzzReadCSV(f *testing.F) {
	addSeedCorpus(f)
	f.Fuzz(func(t *testing.T, data string) {
		for _, header := range []bool{false, true} {
			ds, err := ReadCSV(strings.NewReader(data), CSVOptions{Header: header})
			if err != nil {
				continue
			}
			if ds.N() < 1 || ds.D() < 1 {
				t.Fatalf("header=%v: degenerate shape %dx%d accepted", header, ds.N(), ds.D())
			}
			// Every cell must be addressable without panicking.
			for i := 0; i < ds.N(); i++ {
				_ = ds.Row(i, nil)
			}
		}
	})
}

// FuzzReadLabeledCSV exercises the label-splitting path and the
// batch/stream equivalence: for any input the incremental CSVStream and
// ReadLabeledCSV must accept the same inputs and produce identical rows
// and labels.
func FuzzReadLabeledCSV(f *testing.F) {
	addSeedCorpus(f)
	f.Fuzz(func(t *testing.T, data string) {
		for _, opts := range []CSVOptions{
			{Header: true},
			{Header: true, LabelColumn: "label"},
			{Header: true, LabelColumn: "-"},
			{Comma: ';'},
		} {
			batch, batchErr := ReadLabeledCSV(strings.NewReader(data), opts)
			if batchErr == nil {
				checkLabeled(t, batch)
			}

			s, err := NewCSVStream(strings.NewReader(data), opts)
			if err != nil {
				if batchErr == nil {
					t.Fatalf("opts %+v: stream construction failed (%v) where batch succeeded", opts, err)
				}
				continue
			}
			var (
				rows      [][]float64
				labels    []bool
				streamErr error
			)
			for {
				row, label, err := s.Next()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					streamErr = err
					break
				}
				rows = append(rows, row)
				labels = append(labels, label)
			}
			if (batchErr == nil) != (streamErr == nil && len(rows) > 0) {
				// The batch reader additionally rejects zero-row inputs and
				// shape mismatches via FromRows; only flag the divergence
				// when the stream accepted strictly less.
				if batchErr == nil {
					t.Fatalf("opts %+v: batch accepted, stream failed: %v", opts, streamErr)
				}
				continue
			}
			if batchErr != nil {
				continue
			}
			if len(rows) != batch.Data.N() {
				t.Fatalf("opts %+v: stream %d rows, batch %d", opts, len(rows), batch.Data.N())
			}
			for i, row := range rows {
				if len(row) != batch.Data.D() {
					t.Fatalf("opts %+v: stream row %d width %d, batch D %d", opts, i, len(row), batch.Data.D())
				}
				for d, v := range row {
					if v != batch.Data.Value(i, d) && !(v != v && batch.Data.Value(i, d) != batch.Data.Value(i, d)) {
						t.Fatalf("opts %+v: cell (%d,%d) stream %v, batch %v", opts, i, d, v, batch.Data.Value(i, d))
					}
				}
				if batch.Outlier != nil && labels[i] != batch.Outlier[i] {
					t.Fatalf("opts %+v: label %d stream %v, batch %v", opts, i, labels[i], batch.Outlier[i])
				}
			}
		}
	})
}

// oracleCSV is the reader the numeric record parser replaced, kept as a
// reference: encoding/csv splits every record, then the header, label,
// width and number rules apply as ReadLabeledCSV applies them. quotedEOL
// reports whether an accepted data field held a line break, the one
// input ReadLabeledCSV rejects on purpose.
func oracleCSV(data string, opts CSVOptions) (l *Labeled, quotedEOL bool, err error) {
	cr := csv.NewReader(strings.NewReader(data))
	if opts.Comma != 0 {
		cr.Comma = opts.Comma
	}
	cr.FieldsPerRecord = -1
	var (
		names    []string
		labelIdx = -1
		line     int
	)
	if opts.Header {
		rec, err := cr.Read()
		if err != nil {
			return nil, false, fmt.Errorf("dataset: reading CSV header: %w", err)
		}
		line++
		for i, n := range rec {
			ln := strings.ToLower(strings.TrimSpace(n))
			if (opts.LabelColumn != "" && opts.LabelColumn != "-" && n == opts.LabelColumn) ||
				(opts.LabelColumn == "" && (ln == "label" || ln == "outlier")) {
				labelIdx = i
			}
		}
		if opts.LabelColumn != "" && opts.LabelColumn != "-" && labelIdx == -1 {
			return nil, false, fmt.Errorf("dataset: label column %q not found in header", opts.LabelColumn)
		}
		for i, n := range rec {
			if i != labelIdx {
				names = append(names, n)
			}
		}
	}
	var (
		rows   [][]float64
		labels []bool
		width  = -1
	)
	for {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, quotedEOL, fmt.Errorf("dataset: reading CSV: %w", err)
		}
		line++
		for _, f := range rec {
			quotedEOL = quotedEOL || strings.Contains(f, "\n")
		}
		if width == -1 {
			width = len(rec)
		}
		if len(rec) != width {
			return nil, quotedEOL, fmt.Errorf("dataset: line %d has %d fields, want %d", line, len(rec), width)
		}
		row, label := []float64{}, false
		for i, f := range rec {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, quotedEOL, fmt.Errorf("dataset: line %d field %d: %q is not numeric", line, i+1, f)
			}
			if i == labelIdx {
				label = v != 0
				continue
			}
			row = append(row, v)
		}
		rows = append(rows, row)
		if labelIdx >= 0 && labelIdx < width {
			labels = append(labels, label)
		}
	}
	if len(rows) == 0 {
		return nil, quotedEOL, errors.New("dataset: CSV contains no data rows")
	}
	ds, err := FromRows(names, rows)
	if err != nil {
		return nil, quotedEOL, err
	}
	return &Labeled{Data: ds, Outlier: labels}, quotedEOL, nil
}

// FuzzCSVMatchesEncodingCSV checks ReadLabeledCSV against oracleCSV, in
// one block and in 3-byte blocks over three workers: every input the oracle reads must come back
// with the same values, labels and names bit for bit, and every input it
// rejects must be rejected too. The one exception is a quoted data field
// holding a line break, which only the oracle reads. Without quotes in
// the input, the two readers fail with the same message.
func FuzzCSVMatchesEncodingCSV(f *testing.F) {
	addSeedCorpus(f)
	for _, s := range []string{
		"\"x\",\"a,b\"\n\"1\",\" 2\"\r\n\r\n3,4\r",
		"x,y\n\"1\n\",2\n",
		"1e2e3\n\"4e1\"e5\n",
		"x€label\n1€0\n\n2€1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		for _, opts := range []CSVOptions{
			{Header: true},
			{Header: true, LabelColumn: "-"},
			{Comma: ';'},
			{Header: true, Comma: '€'},
			{Comma: 'e'},
		} {
			want, quotedEOL, wantErr := oracleCSV(data, opts)
			for _, size := range []int{blockBytes, 3} {
				got, err := readLabeled(strings.NewReader(data), opts, size, 3)
				switch {
				case wantErr != nil && err == nil:
					t.Fatalf("opts %+v, %d-byte blocks: accepted what encoding/csv rejects (%v)", opts, size, wantErr)
				case wantErr != nil:
					if !strings.Contains(data, `"`) && err.Error() != wantErr.Error() {
						t.Fatalf("opts %+v, %d-byte blocks: error %q, encoding/csv %q", opts, size, err, wantErr)
					}
				case err != nil:
					if !quotedEOL {
						t.Fatalf("opts %+v, %d-byte blocks: rejected what encoding/csv reads: %v", opts, size, err)
					}
				default:
					sameLabeled(t, got, want)
				}
			}
		}
	})
}

// sameLabeled fails unless got and want hold the same names, labels and
// values, bit for bit.
func sameLabeled(t *testing.T, got, want *Labeled) {
	t.Helper()
	if got.Data.N() != want.Data.N() || got.Data.D() != want.Data.D() {
		t.Fatalf("shape %dx%d, want %dx%d", got.Data.N(), got.Data.D(), want.Data.N(), want.Data.D())
	}
	for d := 0; d < want.Data.D(); d++ {
		if got.Data.Name(d) != want.Data.Name(d) {
			t.Fatalf("name %d = %q, want %q", d, got.Data.Name(d), want.Data.Name(d))
		}
		for i := 0; i < want.Data.N(); i++ {
			if g, w := got.Data.Value(i, d), want.Data.Value(i, d); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("value (%d,%d) = %v, want %v", i, d, g, w)
			}
		}
	}
	if (got.Outlier == nil) != (want.Outlier == nil) {
		t.Fatalf("labels %v, want %v", got.Outlier, want.Outlier)
	}
	for i := range want.Outlier {
		if got.Outlier[i] != want.Outlier[i] {
			t.Fatalf("label %d = %v, want %v", i, got.Outlier[i], want.Outlier[i])
		}
	}
}
