package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"hics"
)

// This file is the allocation-free row path of /stream: a line-oriented
// NDJSON row parser and an append-based record encoder. Together with
// Stream.PushAppend they let the session loop process one row with zero
// steady-state heap allocations — json.Decoder and json.Marshal each
// allocate several times per call, which at production row rates made
// the GC the first scaling wall ahead of the network.
//
// Compatibility is non-negotiable (v1.7.0 clients must see identical
// bytes), so the fast parser accepts only the canonical wire format —
// one JSON array of plain numbers per '\n'-terminated line. The first
// line that deviates in any way (pretty-printed arrays, multiple values
// per line, a syntax error that must surface with encoding/json's exact
// message) permanently downgrades the session to the original
// json.Decoder loop, replaying the consumed bytes so nothing is lost.

// streamParser yields one row per canonical NDJSON line without
// allocating, falling back to a json.Decoder for anything else.
type streamParser struct {
	br   *bufio.Reader
	line []byte    // scratch accumulating one raw line, reused
	row  []float64 // parsed row storage, reused across next calls

	// pendingErr defers a read error that arrived together with a final
	// partial line: the line's row is delivered first, the error on the
	// following call — exactly the order a json.Decoder reports them.
	pendingErr error

	// Fallback state: once dec is non-nil every subsequent next call
	// decodes through it, reproducing the pre-1.8 behavior (and its
	// error text) exactly.
	dec *json.Decoder
}

func newStreamParser(r io.Reader) *streamParser {
	return &streamParser{br: bufio.NewReaderSize(r, 64<<10)}
}

// next returns the next row. The returned slice is reused by the
// following call — the caller must consume it first (the detector
// copies it into the window). io.EOF signals a clean end of input;
// other errors are terminal for the session.
func (p *streamParser) next() ([]float64, error) {
	if p.dec != nil {
		return p.nextFallback()
	}
	if p.pendingErr != nil {
		return nil, p.pendingErr
	}
	if err := p.readLine(); err != nil {
		if len(p.line) == 0 {
			return nil, err
		}
		// The error arrived with a final unterminated line (EOF, or the
		// session byte limit cutting mid-line). Deliver any complete row
		// in it first; the error surfaces on the next call.
		p.pendingErr = err
		return p.parseLine()
	}
	return p.parseLine()
}

// readLine accumulates one raw '\n'-terminated line (newline included)
// into p.line, growing the scratch only for lines longer than the
// bufio buffer.
func (p *streamParser) readLine() error {
	p.line = p.line[:0]
	for {
		frag, err := p.br.ReadSlice('\n')
		p.line = append(p.line, frag...)
		if err == nil {
			return nil
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		return err
	}
}

// parseLine parses the accumulated line as a canonical row, or arranges
// the fallback when it is anything else.
func (p *streamParser) parseLine() ([]float64, error) {
	row, ok := appendRow(p.row[:0], p.line)
	if !ok {
		return p.fallback()
	}
	p.row = row
	return row, nil
}

// fallback permanently switches the session to the json.Decoder loop,
// seeded with the already-consumed line so the decoder sees the byte
// stream exactly as if it had owned it from the start.
func (p *streamParser) fallback() ([]float64, error) {
	p.dec = json.NewDecoder(io.MultiReader(bytes.NewReader(p.line), p.br))
	return p.nextFallback()
}

func (p *streamParser) nextFallback() ([]float64, error) {
	var row []float64
	if err := p.dec.Decode(&row); err != nil {
		return nil, err
	}
	return row, nil
}

// appendRow parses one canonical NDJSON row — optional ASCII spaces, a
// JSON array of plain numbers, optional trailing spaces/CR/LF — into
// dst. Anything else (including an empty array, which needs the
// decoder's exact error) reports !ok so the caller can fall back; it
// never guesses.
func appendRow(dst []float64, line []byte) ([]float64, bool) {
	i, n := 0, len(line)
	for i < n && line[i] == ' ' {
		i++
	}
	if i >= n || line[i] != '[' {
		return dst, false
	}
	i++
	for {
		for i < n && line[i] == ' ' {
			i++
		}
		v, adv, ok := parseNumber(line[i:])
		if !ok {
			return dst, false
		}
		dst = append(dst, v)
		i += adv
		for i < n && line[i] == ' ' {
			i++
		}
		if i >= n {
			return dst, false
		}
		if line[i] == ',' {
			i++
			continue
		}
		if line[i] == ']' {
			i++
			break
		}
		return dst, false
	}
	for i < n {
		switch line[i] {
		case ' ', '\t', '\r', '\n':
			i++
		default:
			return dst, false
		}
	}
	return dst, true
}

// parseNumber reads one JSON number from the front of b, returning the
// value and the bytes consumed. The common case — a mantissa below 2^53
// with a small decimal exponent — converts with one float multiply or
// divide, which is exactly rounded and therefore bit-identical to
// strconv.ParseFloat; everything else defers to strconv (one small
// allocation, rare on real row data).
func parseNumber(b []byte) (float64, int, bool) {
	i, n := 0, len(b)
	neg := false
	if i < n && b[i] == '-' {
		neg = true
		i++
	}
	// Integer part: "0" alone or a nonzero-led digit run (JSON forbids
	// leading zeros).
	start := i
	var mant uint64
	digits := 0
	exact := true
	for i < n && b[i] >= '0' && b[i] <= '9' {
		if digits < 19 {
			mant = mant*10 + uint64(b[i]-'0')
		} else {
			exact = false
		}
		digits++
		i++
	}
	if i == start {
		return 0, 0, false
	}
	if b[start] == '0' && i-start > 1 {
		return 0, 0, false
	}
	exp := 0
	if i < n && b[i] == '.' {
		i++
		fs := i
		for i < n && b[i] >= '0' && b[i] <= '9' {
			if digits < 19 {
				mant = mant*10 + uint64(b[i]-'0')
				exp--
			} else {
				exact = false
			}
			digits++
			i++
		}
		if i == fs {
			return 0, 0, false
		}
	}
	if i < n && (b[i] == 'e' || b[i] == 'E') {
		i++
		esign := 1
		if i < n && (b[i] == '+' || b[i] == '-') {
			if b[i] == '-' {
				esign = -1
			}
			i++
		}
		es := i
		ev := 0
		for i < n && b[i] >= '0' && b[i] <= '9' {
			if ev < 10000 {
				ev = ev*10 + int(b[i]-'0')
			}
			i++
		}
		if i == es {
			return 0, 0, false
		}
		exp += esign * ev
	}
	if exact && mant < 1<<53 && exp >= -22 && exp <= 22 {
		f := float64(mant)
		if exp > 0 {
			f *= pow10[exp]
		} else if exp < 0 {
			f /= pow10[-exp]
		}
		if neg {
			f = -f
		}
		return f, i, true
	}
	f, err := strconv.ParseFloat(string(b[:i]), 64)
	if err != nil {
		return 0, 0, false
	}
	return f, i, true
}

// pow10 holds the exactly-representable powers of ten (10^0 … 10^22).
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// appendStreamRecord appends one encoded /stream record line (trailing
// newline included) to buf. The float formatting replicates
// encoding/json exactly — shortest representation, 'f' form unless the
// magnitude calls for 'e' form with json's exponent cleanup — so the
// wire bytes are indistinguishable from json.Marshal's. A
// non-representable score reports the same error text json.Marshal
// would.
func appendStreamRecord(buf []byte, rec hics.StreamResult) ([]byte, error) {
	buf = append(buf, `{"index":`...)
	buf = strconv.AppendInt(buf, int64(rec.Index), 10)
	buf = append(buf, `,"score":`...)
	buf, err := appendJSONFloat(buf, rec.Score)
	if err != nil {
		return buf, err
	}
	buf = append(buf, `,"refits":`...)
	buf = strconv.AppendInt(buf, int64(rec.Refits), 10)
	buf = append(buf, '}', '\n')
	return buf, nil
}

// appendJSONFloat appends f the way encoding/json's floatEncoder does:
// shortest round-trip form, preferring 'f' notation, with "e-0X"
// exponents rewritten to "e-X".
func appendJSONFloat(buf []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return buf, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	start := len(buf)
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, as encoding/json does.
		if n := len(buf) - start; n >= 4 && buf[len(buf)-4] == 'e' && buf[len(buf)-3] == '-' && buf[len(buf)-2] == '0' {
			buf[len(buf)-2] = buf[len(buf)-1]
			buf = buf[:len(buf)-1]
		}
	}
	return buf, nil
}
