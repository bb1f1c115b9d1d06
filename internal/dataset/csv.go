package dataset

import (
	"bufio"
	"bytes"
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"hics/internal/parallel"
)

// CSVOptions controls CSV parsing.
//
// Data records are numeric: a field may be wrapped in double quotes as a
// whole ("1.5"), and any other quote — an escaped "" or a quoted field
// that spans lines — is rejected. The header follows full CSV quoting,
// so attribute names may contain separators, quotes and line breaks.
type CSVOptions struct {
	// Header indicates the first record carries attribute names.
	Header bool
	// LabelColumn names a column holding the 0/1 outlier ground truth; it is
	// split off into Labeled.Outlier instead of the data matrix. If empty, a
	// trailing column named "label" or "outlier" (case-insensitive) is used
	// when Header is set. Set to "-" to disable label detection entirely.
	LabelColumn string
	// Comma is the field separator; 0 means ','.
	Comma rune
}

// CSVStream incrementally parses numeric CSV rows: the header (when
// present) is consumed at construction, and each Next call yields one
// data row. It is the row source of the streaming entry points
// (`hics -stream`), and ReadLabeledCSV reads the first row through it,
// then every other row with the same recordParser, so batch and
// streaming parsing cannot drift apart.
type CSVStream struct {
	br   *bufio.Reader
	p    recordParser
	line int // 1-based record counter for error messages, header included
}

// NewCSVStream wraps r in an incremental CSV row parser, reading the
// header record immediately when opts.Header is set.
func NewCSVStream(r io.Reader, opts CSVOptions) (*CSVStream, error) {
	// The header's csv.Reader reads through br itself (bufio.NewReader
	// returns a large enough *bufio.Reader unchanged) and stops at the
	// end of the header, so br is left at the first data byte.
	br := bufio.NewReader(r)
	comma := opts.Comma
	if comma == 0 {
		comma = ','
	}
	s := &CSVStream{br: br, p: recordParser{sep: []byte(string(comma)), labelIdx: -1, width: -1}}
	if !opts.Header {
		if opts.LabelColumn != "" && opts.LabelColumn != "-" {
			return nil, errors.New("dataset: LabelColumn requires Header")
		}
		// encoding/csv's check, which the header read makes below.
		if comma == '"' || comma == '\r' || comma == '\n' || !utf8.ValidRune(comma) || comma == utf8.RuneError {
			return nil, fmt.Errorf("dataset: reading CSV: invalid field separator %q", comma)
		}
		return s, nil
	}
	cr := csv.NewReader(br)
	cr.Comma = comma
	cr.FieldsPerRecord = -1 // validate ourselves for better messages
	rec, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	s.line++
	for i, n := range rec {
		ln := strings.ToLower(strings.TrimSpace(n))
		switch {
		case opts.LabelColumn != "" && opts.LabelColumn != "-" && n == opts.LabelColumn:
			s.p.labelIdx = i
		case opts.LabelColumn == "" && (ln == "label" || ln == "outlier"):
			s.p.labelIdx = i
		}
	}
	if opts.LabelColumn != "" && opts.LabelColumn != "-" && s.p.labelIdx == -1 {
		return nil, fmt.Errorf("dataset: label column %q not found in header", opts.LabelColumn)
	}
	for i, n := range rec {
		if i != s.p.labelIdx {
			s.p.names = append(s.p.names, n)
		}
	}
	return s, nil
}

// Next parses one data row, returning its numeric values (label column
// excluded) and the label flag (false when the stream has no label
// column). The returned error is io.EOF at the end of the input; parse
// failures name the offending line and field. The returned slice is
// freshly allocated each call.
func (s *CSVStream) Next() (row []float64, label bool, err error) {
	for {
		line, err := s.br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			line = append([]byte(nil), line...)
			var more []byte
			for errors.Is(err, bufio.ErrBufferFull) {
				more, err = s.br.ReadSlice('\n')
				line = append(line, more...)
			}
		}
		if err != nil && !errors.Is(err, io.EOF) {
			return nil, false, fmt.Errorf("dataset: reading CSV: %w", err)
		}
		if rec := trimLineEnd(line); len(rec) > 0 {
			s.line++
			return s.p.record(nil, rec, s.line)
		}
		if err != nil {
			return nil, false, io.EOF
		}
	}
}

// Names returns the data attribute names from the header (label column
// excluded), or nil for a headerless stream.
func (s *CSVStream) Names() []string { return slices.Clone(s.p.names) }

// HasLabel reports whether a label column was detected in the header.
func (s *CSVStream) HasLabel() bool { return s.p.labelIdx >= 0 }

// ReadCSV parses numeric CSV data into a Dataset. Rows with a wrong field
// count or non-numeric fields produce an error naming the offending line.
func ReadCSV(r io.Reader, opts CSVOptions) (*Dataset, error) {
	l, err := ReadLabeledCSV(r, opts)
	if err != nil {
		return nil, err
	}
	return l.Data, nil
}

// blockBytes is how much input a ReadLabeledCSV worker takes at a time;
// an input that ends within one block is parsed on the calling goroutine.
const blockBytes = 256 << 10

// ReadLabeledCSV parses numeric CSV data, extracting the ground-truth
// outlier column per opts. If no label column is present, Labeled.Outlier
// is nil.
//
// After the first row, the input is cut into line-aligned blocks that
// one worker per GOMAXPROCS parses as they are read. Values and errors
// are those of a serial read: the first failing record is reported,
// numbered as CSVStream numbers it.
func ReadLabeledCSV(r io.Reader, opts CSVOptions) (*Labeled, error) {
	return readLabeled(r, opts, blockBytes, runtime.GOMAXPROCS(0))
}

// readLabeled is ReadLabeledCSV with its block size and worker count
// given.
func readLabeled(r io.Reader, opts CSVOptions, size, workers int) (*Labeled, error) {
	// A buffer of a block or more lets Peek tell a one-block input.
	s, err := NewCSVStream(bufio.NewReaderSize(r, size), opts)
	if err != nil {
		return nil, err
	}
	first, label, err := s.Next()
	if errors.Is(err, io.EOF) {
		return nil, errors.New("dataset: CSV contains no data rows")
	}
	if err != nil {
		return nil, err
	}
	// A label column beyond the record width never matches a field, so
	// such files keep a nil Outlier slice.
	withLabels := s.p.labelIdx >= 0 && s.p.labelIdx < s.p.width
	if _, err := s.br.Peek(size); err != nil {
		workers = 1
	}
	src := &blockReader{r: s.br, size: size}
	var (
		mu     sync.Mutex
		blocks []*block // in input order
	)
	_ = parallel.ForEach(context.Background(), workers, workers, 1, func(_, _ int) error {
		p := s.p
		p.fields = nil // scratch of its own
		var buf []byte
		for {
			mu.Lock()
			if src.done {
				mu.Unlock()
				return nil
			}
			buf = src.next(buf)
			b := &block{}
			blocks = append(blocks, b)
			mu.Unlock()
			p.parse(b, buf, len(first), withLabels)
			if b.bad != nil {
				mu.Lock()
				src.done = true // the blocks before this one are all taken
				mu.Unlock()
			}
		}
	})

	n := 1 // rows, the first included
	for _, b := range blocks {
		if b.bad != nil {
			// The record fails again, now numbered: s.line is the line
			// of the first row, and n rows precede the block.
			_, _, err := s.p.record(nil, b.bad, s.line+n+b.rows)
			return nil, err
		}
		n += b.rows
	}
	if src.err != nil {
		return nil, fmt.Errorf("dataset: reading CSV: %w", src.err)
	}
	if len(first) == 0 { // every record holds only its label
		return nil, errors.New("dataset: empty rows")
	}
	cols := make([][]float64, len(first))
	for d := range cols {
		cols[d] = make([]float64, n)
		cols[d][0] = first[d]
	}
	var labels []bool
	if withLabels {
		labels = make([]bool, n)
		labels[0] = label
	}
	at := 1
	for _, b := range blocks {
		for d := range cols {
			copy(cols[d][at:at+b.rows], b.vals[d*b.stride:])
		}
		if labels != nil {
			copy(labels[at:], b.labels[:b.rows])
		}
		at += b.rows
	}
	ds, err := New(s.Names(), cols)
	if err != nil {
		return nil, err
	}
	return &Labeled{Data: ds, Outlier: labels}, nil
}

// blockReader cuts an input into blocks that end at a line break.
type blockReader struct {
	r     io.Reader
	size  int    // bytes read into each block
	carry []byte // the input read after the last block's final line break
	done  bool   // the input has ended
	err   error  // the read error that ended it, other than io.EOF
}

// next returns the next block in buf's storage: the carry, then size
// bytes or the rest of the input, cut after its last line break (longer
// when a line is). The last block runs to the end of the input and sets
// done.
func (br *blockReader) next(buf []byte) []byte {
	buf = append(buf[:0], br.carry...)
	grow := br.size
	for {
		buf = slices.Grow(buf, grow)
		n, err := io.ReadFull(br.r, buf[len(buf):len(buf)+grow])
		buf = buf[:len(buf)+n]
		if err != nil {
			br.done, br.carry = true, br.carry[:0]
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				br.err = err
			}
			return buf
		}
		if i := bytes.LastIndexByte(buf, '\n'); i >= 0 {
			br.carry = append(br.carry[:0], buf[i+1:]...)
			return buf[:i+1]
		}
		grow = len(buf) // a line longer than the block: read on
	}
}

// block is the parsed content of one blockReader block.
type block struct {
	rows   int       // records parsed, up to the failing one
	stride int       // rows each column of vals has room for
	vals   []float64 // value d of row i at vals[d*stride+i]
	labels []bool
	bad    []byte // the first failing record, nil if none
}

// parse parses the records of text, values data values each, into b,
// stopping at the first that fails.
func (p *recordParser) parse(b *block, text []byte, values int, withLabels bool) {
	b.stride = bytes.Count(text, []byte{'\n'}) + 1
	b.vals = make([]float64, values*b.stride)
	if withLabels {
		b.labels = make([]bool, b.stride)
	}
	row := make([]float64, 0, values)
	for {
		var rec []byte
		if rec, text = nextRecord(text); rec == nil {
			return
		}
		var (
			label bool
			err   error
		)
		// Line numbers depend on the blocks before this one; a failing
		// record is parsed again once they are counted.
		if row, label, err = p.record(row[:0], rec, 0); err != nil {
			b.bad = bytes.Clone(rec)
			return
		}
		for d, v := range row {
			b.vals[d*b.stride+b.rows] = v
		}
		if withLabels {
			b.labels[b.rows] = label
		}
		b.rows++
	}
}

// recordParser parses the numeric data records of one CSV input.
type recordParser struct {
	sep      []byte   // the field separator, UTF-8 encoded
	labelIdx int      // index of the label field within a record, -1 if none
	width    int      // fields per record; -1 until the first record
	names    []string // data attribute names, label excluded; nil if none
	fields   [][]byte // scratch: the fields of the current record
}

// record parses one record (its line break removed; line numbers it in
// errors), appending its values, label field excluded, to dst. The first
// record fixes the width of all others. Every field is split off and
// counted before any is parsed, so a record with a stray quote or the
// wrong width fails as such whatever its values.
func (p *recordParser) record(dst []float64, rec []byte, line int) ([]float64, bool, error) {
	fields, err := p.split(rec, line)
	if err != nil {
		return nil, false, err
	}
	if p.width == -1 {
		p.width = len(fields)
	}
	if len(fields) != p.width {
		return nil, false, fmt.Errorf("dataset: line %d has %d fields, want %d", line, len(fields), p.width)
	}
	dst = slices.Grow(dst, len(fields))
	label := false
	for i, f := range fields {
		// The conversion does not escape, so it is not a heap string.
		v, err := strconv.ParseFloat(string(bytes.TrimSpace(f)), 64)
		if err != nil {
			return nil, false, fmt.Errorf("dataset: line %d field %d: %q is not numeric", line, i+1, f)
		}
		if i == p.labelIdx {
			label = v != 0
			continue
		}
		dst = append(dst, v)
	}
	return dst, label, nil
}

// split cuts rec at each separator into p.fields, unwrapping a field
// that double quotes wrap as a whole. A quote anywhere else fails with
// encoding/csv's error for it.
func (p *recordParser) split(rec []byte, line int) ([][]byte, error) {
	fields := p.fields[:0]
	quoted := bytes.IndexByte(rec, '"') >= 0
	for {
		if quoted && len(rec) > 0 && rec[0] == '"' {
			end := bytes.IndexByte(rec[1:], '"') + 1
			after := rec[end+1:]
			if end == 0 || (len(after) > 0 && !bytes.HasPrefix(after, p.sep)) {
				return nil, fmt.Errorf("dataset: line %d field %d: %w", line, len(fields)+1, csv.ErrQuote)
			}
			fields = append(fields, rec[1:end])
			if len(after) == 0 {
				break
			}
			rec = after[len(p.sep):]
			continue
		}
		i := bytes.Index(rec, p.sep)
		f := rec
		if i >= 0 {
			f = rec[:i]
		}
		if quoted && bytes.IndexByte(f, '"') >= 0 {
			return nil, fmt.Errorf("dataset: line %d field %d: %w", line, len(fields)+1, csv.ErrBareQuote)
		}
		fields = append(fields, f)
		if i < 0 {
			break
		}
		rec = rec[i+len(p.sep):]
	}
	p.fields = fields
	return fields, nil
}

// nextRecord returns the first record of text, skipping blank lines,
// with its line break removed, and the text after it. rec is nil when
// text holds no further record.
func nextRecord(text []byte) (rec, rest []byte) {
	for len(text) > 0 {
		line := text
		if i := bytes.IndexByte(text, '\n'); i >= 0 {
			line, text = text[:i], text[i+1:]
		} else {
			text = nil
		}
		if rec = trimLineEnd(line); len(rec) > 0 {
			return rec, text
		}
	}
	return nil, nil
}

// trimLineEnd removes a line's break as encoding/csv does: the '\n' and
// one '\r' before it (or before the end of the input). An empty result
// is a blank line, which holds no record.
func trimLineEnd(line []byte) []byte {
	line = bytes.TrimSuffix(line, []byte{'\n'})
	return bytes.TrimSuffix(line, []byte{'\r'})
}

// WriteCSV writes the dataset with a header row. If labels is non-nil it is
// appended as a trailing 0/1 column named "label"; its length must equal N.
func WriteCSV(w io.Writer, ds *Dataset, labels []bool) error {
	if labels != nil && len(labels) != ds.N() {
		return fmt.Errorf("dataset: %d labels for %d rows", len(labels), ds.N())
	}
	cw := csv.NewWriter(w)
	header := ds.Names()
	if labels != nil {
		header = append(header, "label")
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, 0, len(header))
	for i := 0; i < ds.N(); i++ {
		rec = rec[:0]
		for d := 0; d < ds.D(); d++ {
			rec = append(rec, strconv.FormatFloat(ds.Value(i, d), 'g', -1, 64))
		}
		if labels != nil {
			if labels[i] {
				rec = append(rec, "1")
			} else {
				rec = append(rec, "0")
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
