package dataset

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
)

func TestReadCSVNoHeader(t *testing.T) {
	ds, err := ReadCSV(strings.NewReader("1,2\n3,4\n5,6\n"), CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 3 || ds.D() != 2 || ds.Value(2, 1) != 6 {
		t.Errorf("parsed shape %dx%d", ds.N(), ds.D())
	}
}

func TestReadCSVHeader(t *testing.T) {
	ds, err := ReadCSV(strings.NewReader("x,y\n1,2\n3,4\n"), CSVOptions{Header: true})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Name(0) != "x" || ds.Name(1) != "y" {
		t.Errorf("names = %v", ds.Names())
	}
}

func TestReadLabeledCSVAutoDetect(t *testing.T) {
	in := "x,y,label\n1,2,0\n3,4,1\n"
	l, err := ReadLabeledCSV(strings.NewReader(in), CSVOptions{Header: true})
	if err != nil {
		t.Fatal(err)
	}
	if l.Data.D() != 2 {
		t.Fatalf("label column not stripped, D = %d", l.Data.D())
	}
	if l.Outlier == nil || !l.Outlier[1] || l.Outlier[0] {
		t.Errorf("labels = %v", l.Outlier)
	}
}

func TestReadLabeledCSVExplicitColumn(t *testing.T) {
	in := "x,truth,y\n1,1,2\n3,0,4\n"
	l, err := ReadLabeledCSV(strings.NewReader(in), CSVOptions{Header: true, LabelColumn: "truth"})
	if err != nil {
		t.Fatal(err)
	}
	if l.Data.D() != 2 || !l.Outlier[0] || l.Outlier[1] {
		t.Errorf("explicit label parse failed: D=%d labels=%v", l.Data.D(), l.Outlier)
	}
	if l.Data.Name(1) != "y" {
		t.Errorf("names = %v", l.Data.Names())
	}
}

func TestReadLabeledCSVMissingColumn(t *testing.T) {
	in := "x,y\n1,2\n"
	if _, err := ReadLabeledCSV(strings.NewReader(in), CSVOptions{Header: true, LabelColumn: "truth"}); err == nil {
		t.Error("missing label column should fail")
	}
}

func TestReadCSVDisableLabelDetection(t *testing.T) {
	in := "x,label\n1,0\n2,1\n"
	l, err := ReadLabeledCSV(strings.NewReader(in), CSVOptions{Header: true, LabelColumn: "-"})
	if err != nil {
		t.Fatal(err)
	}
	if l.Data.D() != 2 || l.Outlier != nil {
		t.Errorf("label detection not disabled: D=%d labels=%v", l.Data.D(), l.Outlier)
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader(""), CSVOptions{}); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := ReadCSV(strings.NewReader("1,2\n3\n"), CSVOptions{}); err == nil {
		t.Error("ragged rows should fail")
	}
	if _, err := ReadCSV(strings.NewReader("1,abc\n"), CSVOptions{}); err == nil {
		t.Error("non-numeric field should fail")
	}
	if _, err := ReadLabeledCSV(strings.NewReader("1,2\n"), CSVOptions{LabelColumn: "x"}); err == nil {
		t.Error("LabelColumn without Header should fail")
	}
}

func TestReadCSVCustomComma(t *testing.T) {
	ds, err := ReadCSV(strings.NewReader("1;2\n3;4\n"), CSVOptions{Comma: ';'})
	if err != nil {
		t.Fatal(err)
	}
	if ds.D() != 2 || ds.Value(1, 0) != 3 {
		t.Error("semicolon parsing failed")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	ds := MustNew([]string{"a", "b"}, [][]float64{{1.5, -2.25}, {0.125, 1e-9}})
	labels := []bool{true, false}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ds, labels); err != nil {
		t.Fatal(err)
	}
	l, err := ReadLabeledCSV(&buf, CSVOptions{Header: true})
	if err != nil {
		t.Fatal(err)
	}
	if l.Data.D() != 2 || l.Data.N() != 2 {
		t.Fatalf("round trip shape %dx%d", l.Data.N(), l.Data.D())
	}
	for d := 0; d < 2; d++ {
		for i := 0; i < 2; i++ {
			if l.Data.Value(i, d) != ds.Value(i, d) {
				t.Errorf("value (%d,%d) changed: %v != %v", i, d, l.Data.Value(i, d), ds.Value(i, d))
			}
		}
	}
	if !l.Outlier[0] || l.Outlier[1] {
		t.Errorf("labels round trip = %v", l.Outlier)
	}
}

func TestWriteCSVLabelMismatch(t *testing.T) {
	ds := MustNew(nil, [][]float64{{1, 2}})
	if err := WriteCSV(&bytes.Buffer{}, ds, []bool{true}); err == nil {
		t.Error("label length mismatch should fail")
	}
}

// drainStream pulls every row out of a CSVStream.
func drainStream(t *testing.T, s *CSVStream) (rows [][]float64, labels []bool) {
	t.Helper()
	for {
		row, label, err := s.Next()
		if errors.Is(err, io.EOF) {
			return rows, labels
		}
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
		labels = append(labels, label)
	}
}

// TestCSVStreamMatchesBatch: the incremental reader and ReadLabeledCSV
// must agree on every input shape — they share the implementation, and
// this pins that they keep doing so.
func TestCSVStreamMatchesBatch(t *testing.T) {
	cases := []struct {
		name string
		in   string
		opts CSVOptions
	}{
		{"no header", "1,2\n3,4\n5,6\n", CSVOptions{}},
		{"header", "x,y\n1,2\n3,4\n", CSVOptions{Header: true}},
		{"auto label", "x,y,label\n1,2,0\n3,4,1\n", CSVOptions{Header: true}},
		{"explicit label", "x,truth,y\n1,1,2\n3,0,4\n", CSVOptions{Header: true, LabelColumn: "truth"}},
		{"label disabled", "x,label\n1,0\n2,1\n", CSVOptions{Header: true, LabelColumn: "-"}},
		{"semicolons", "1;2\n3;4\n", CSVOptions{Comma: ';'}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			batch, err := ReadLabeledCSV(strings.NewReader(tc.in), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewCSVStream(strings.NewReader(tc.in), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			rows, labels := drainStream(t, s)
			if len(rows) != batch.Data.N() {
				t.Fatalf("stream yielded %d rows, batch %d", len(rows), batch.Data.N())
			}
			for i, row := range rows {
				if len(row) != batch.Data.D() {
					t.Fatalf("stream row %d has %d values, batch D=%d", i, len(row), batch.Data.D())
				}
				for d, v := range row {
					if v != batch.Data.Value(i, d) {
						t.Errorf("value (%d,%d): stream %v, batch %v", i, d, v, batch.Data.Value(i, d))
					}
				}
				if batch.Outlier != nil && labels[i] != batch.Outlier[i] {
					t.Errorf("label %d: stream %v, batch %v", i, labels[i], batch.Outlier[i])
				}
			}
			if s.HasLabel() != (batch.Outlier != nil) {
				t.Errorf("HasLabel = %v, batch Outlier nil = %v", s.HasLabel(), batch.Outlier == nil)
			}
			if batch.Data.Name(0) != "attr0" { // header present: names must match too
				names := s.Names()
				for d := range names {
					if names[d] != batch.Data.Name(d) {
						t.Errorf("name %d: stream %q, batch %q", d, names[d], batch.Data.Name(d))
					}
				}
			}
		})
	}
}

// TestCSVStreamErrors: mid-stream failures name the offending line, and
// construction-time failures mirror the batch reader.
func TestCSVStreamErrors(t *testing.T) {
	s, err := NewCSVStream(strings.NewReader("1,2\n3\n"), CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Next(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Next(); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("ragged row error = %v, want line 2 named", err)
	}
	s, err = NewCSVStream(strings.NewReader("1,abc\n"), CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Next(); err == nil || !strings.Contains(err.Error(), "field 2") {
		t.Errorf("non-numeric error = %v, want field 2 named", err)
	}
	if _, err := NewCSVStream(strings.NewReader("1,2\n"), CSVOptions{LabelColumn: "x"}); err == nil {
		t.Error("LabelColumn without Header should fail at construction")
	}
	if _, err := NewCSVStream(strings.NewReader("x,y\n1,2\n"), CSVOptions{Header: true, LabelColumn: "z"}); err == nil {
		t.Error("missing label column should fail at construction")
	}
	// An empty input with a header is EOF at construction.
	if _, err := NewCSVStream(strings.NewReader(""), CSVOptions{Header: true}); err == nil {
		t.Error("empty headered input should fail at construction")
	}
}

func TestWriteCSVNoLabels(t *testing.T) {
	ds := MustNew([]string{"a"}, [][]float64{{1, 2}})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ds, nil); err != nil {
		t.Fatal(err)
	}
	want := "a\n1\n2\n"
	if buf.String() != want {
		t.Errorf("output = %q, want %q", buf.String(), want)
	}
}

// labeledInput builds rows lines of three numeric fields plus a 0/1
// label, separated by sep and ended by eol, with a blank line (eol
// alone) after every blankEvery-th row.
func labeledInput(rows int, sep, eol string, blankEvery int) string {
	var b strings.Builder
	b.WriteString("x" + sep + "y" + sep + "z" + sep + "label" + eol)
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "%d%s%g%s%g%s%d%s", i, sep, float64(i)/7, sep, -float64(i)*1e-3, sep, i%5/4, eol)
		if blankEvery > 0 && i%blankEvery == 0 {
			b.WriteString(eol)
		}
	}
	return b.String()
}

// streamAll parses in with CSVStream, the serial reference.
func streamAll(in string, opts CSVOptions) (names []string, rows [][]float64, labels []bool, err error) {
	s, err := NewCSVStream(strings.NewReader(in), opts)
	if err != nil {
		return nil, nil, nil, err
	}
	for {
		row, label, err := s.Next()
		if errors.Is(err, io.EOF) {
			return s.Names(), rows, labels, nil
		}
		if err != nil {
			return nil, nil, nil, err
		}
		rows = append(rows, row)
		labels = append(labels, label)
	}
}

// TestReadLabeledCSVBlocks: however the data records are cut into
// blocks and spread over workers, the batch reader returns bit for bit
// what the serial stream yields — across CRLF line ends, blank lines
// (with one-byte blocks, every line is a block of its own), a missing
// final newline, quoted fields and a multi-byte separator.
func TestReadLabeledCSVBlocks(t *testing.T) {
	quoted := "\"x\",y,\"z,\",label\n"
	for i := 0; i < 40; i++ {
		quoted += fmt.Sprintf("\"%d\",%g,\" %g \",\"%d\"\n", i, float64(i)/3, float64(-i), i%2)
	}
	cases := []struct {
		name string
		in   string
		opts CSVOptions
	}{
		{"crlf", labeledInput(60, ",", "\r\n", 0), CSVOptions{Header: true}},
		{"blank lines", labeledInput(60, ",", "\n", 2), CSVOptions{Header: true}},
		{"blank crlf lines", labeledInput(60, ",", "\r\n", 3), CSVOptions{Header: true}},
		{"no final newline", strings.TrimSuffix(labeledInput(60, ",", "\n", 0), "\n"), CSVOptions{Header: true}},
		{"final cr", strings.TrimSuffix(labeledInput(60, ",", "\r\n", 0), "\n"), CSVOptions{Header: true}},
		{"quoted fields", quoted, CSVOptions{Header: true}},
		{"multi-byte comma", labeledInput(60, "€", "\n", 4), CSVOptions{Header: true, Comma: '€'}},
		{"no header", "\n\n" + strings.SplitN(labeledInput(60, ";", "\n", 5), "\n", 2)[1], CSVOptions{Comma: ';'}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			names, rows, labels, err := streamAll(tc.in, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, size := range []int{1, 7, 100, blockBytes} {
				for _, workers := range []int{1, 3} {
					l, err := readLabeled(strings.NewReader(tc.in), tc.opts, size, workers)
					if err != nil {
						t.Fatalf("%d-byte blocks, %d workers: %v", size, workers, err)
					}
					if l.Data.N() != len(rows) || l.Data.D() != len(rows[0]) {
						t.Fatalf("%d-byte blocks: shape %dx%d, stream %dx%d", size, l.Data.N(), l.Data.D(), len(rows), len(rows[0]))
					}
					for i, row := range rows {
						for d, v := range row {
							if got := l.Data.Value(i, d); math.Float64bits(got) != math.Float64bits(v) {
								t.Fatalf("%d-byte blocks: value (%d,%d) = %v, stream %v", size, i, d, got, v)
							}
						}
						if tc.opts.Header && l.Outlier[i] != labels[i] {
							t.Fatalf("%d-byte blocks: label %d = %v, stream %v", size, i, l.Outlier[i], labels[i])
						}
					}
					if tc.opts.Header && !slices.Equal(l.Data.Names(), names) {
						t.Fatalf("%d-byte blocks: names %v", size, l.Data.Names())
					}
				}
			}
		})
	}
}

// TestBlockReaderCuts: blocks end after a line break, carry the rest of
// a line into the next block, grow past a line longer than a block, and
// end with the input, line break or not.
func TestBlockReaderCuts(t *testing.T) {
	for _, tc := range []struct {
		in   string
		size int
		want []string
	}{
		{"1\n\n2\r\n\r\n3", 1, []string{"1\n", "\n", "2\r\n", "\r\n", "3"}},
		{"1\n\n2\r\n\r\n3", 4, []string{"1\n\n", "2\r\n\r\n", "3"}},
		{"123456789\n1\n", 2, []string{"123456789\n1\n"}},
		{"1\n", 2, []string{"1\n", ""}},
	} {
		br := &blockReader{r: strings.NewReader(tc.in), size: tc.size}
		var got []string
		for !br.done {
			got = append(got, string(br.next(nil)))
		}
		if !slices.Equal(got, tc.want) || br.err != nil {
			t.Errorf("%q in %d-byte blocks: %q (err %v), want %q", tc.in, tc.size, got, br.err, tc.want)
		}
	}
}

// TestReadLabeledCSVLastBlockErrors: a failing record in the last block
// is reported with the line and field a serial read names, and a failure
// in an earlier block wins over one in a later block.
func TestReadLabeledCSVLastBlockErrors(t *testing.T) {
	good := labeledInput(50, ",", "\n", 3)
	cases := []struct {
		name, in, want string
	}{
		{"non-numeric", good + "7,8,oops,0\n", "field 3"},
		{"ragged", good + "7,8,0\n", "has 3 fields, want 4"},
		{"both", strings.Replace(good, "\n2,", "\n2x,", 1) + "7,8,0\n", "field 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, want := streamAll(tc.in, CSVOptions{Header: true})
			if want == nil || !strings.Contains(want.Error(), tc.want) {
				t.Fatalf("serial error = %v, want it to name %q", want, tc.want)
			}
			for _, size := range []int{1, 64, blockBytes} {
				for _, workers := range []int{1, 3} {
					_, err := readLabeled(strings.NewReader(tc.in), CSVOptions{Header: true}, size, workers)
					if err == nil || err.Error() != want.Error() {
						t.Errorf("%d-byte blocks, %d workers: error = %v, want %v", size, workers, err, want)
					}
				}
			}
		})
	}
}

// TestReadLabeledCSVLabelBeyondWidth: a header label column that no
// record reaches splits nothing off, so Outlier stays nil.
func TestReadLabeledCSVLabelBeyondWidth(t *testing.T) {
	l, err := ReadLabeledCSV(strings.NewReader("x,y,label\n1,2\n3,4\n"), CSVOptions{Header: true})
	if err != nil {
		t.Fatal(err)
	}
	if l.Outlier != nil || l.Data.D() != 2 || l.Data.N() != 2 || l.Data.Value(1, 1) != 4 {
		t.Errorf("labels %v, shape %dx%d", l.Outlier, l.Data.N(), l.Data.D())
	}
	if !slices.Equal(l.Data.Names(), []string{"x", "y"}) {
		t.Errorf("names = %v", l.Data.Names())
	}
}

// TestReadCSVQuoting: a data field may be quoted as a whole; any other
// quote fails with encoding/csv's error for it, a quoted line break
// included.
func TestReadCSVQuoting(t *testing.T) {
	ds, err := ReadCSV(strings.NewReader("\"1\",\" 2 \"\r\n3,\"4\"\n"), CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Value(0, 0) != 1 || ds.Value(0, 1) != 2 || ds.Value(1, 1) != 4 {
		t.Errorf("quoted values = %v %v", ds.Row(0, nil), ds.Row(1, nil))
	}
	// A quoted separator stays inside its field.
	ds, err = ReadCSV(strings.NewReader("\"1e3\"e2\n"), CSVOptions{Comma: 'e'})
	if err != nil || ds.D() != 2 || ds.Value(0, 0) != 1000 {
		t.Errorf("quoted separator: %v", err)
	}
	for _, tc := range []struct {
		in   string
		want error
	}{
		{"1,\"2\n\",3\n", csv.ErrQuote},
		{"1,\"2\"\"\"\n", csv.ErrQuote},
		{"1,\"2\" \n", csv.ErrQuote},
		{"1,2\"\n", csv.ErrBareQuote},
		{"1, \"2\"\n", csv.ErrBareQuote},
	} {
		_, err := ReadCSV(strings.NewReader(tc.in), CSVOptions{})
		if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), "line 1 field 2") {
			t.Errorf("%q: error = %v, want %v on line 1 field 2", tc.in, err, tc.want)
		}
	}
}

// BenchmarkReadLabeledCSV reads 100,000 labeled rows of 30 attributes,
// the fit-large workload's file; its throughput is MB of CSV per second.
func BenchmarkReadLabeledCSV(b *testing.B) {
	const n, d = 100000, 30
	r := rand.New(rand.NewPCG(1, 2))
	cols := make([][]float64, d)
	for j := range cols {
		cols[j] = make([]float64, n)
		for i := range cols[j] {
			cols[j][i] = r.NormFloat64()
		}
	}
	labels := make([]bool, n)
	for i := range labels {
		labels[i] = r.IntN(100) == 0
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, MustNew(nil, cols), labels); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadLabeledCSV(bytes.NewReader(buf.Bytes()), CSVOptions{Header: true}); err != nil {
			b.Fatal(err)
		}
	}
}
