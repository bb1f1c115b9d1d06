package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// session is one open-loop /stream session: row i is due at
// t0 + due[i], whatever happened to earlier rows.
type session struct {
	url  string
	rows [][]float64
	due  []time.Duration
}

// sessionResult is what the client saw on one session. Times are offsets
// from the run's t0.
type sessionResult struct {
	status int
	// written counts rows written into the request body. Per written row,
	// late is how long after its due time the write began and start is
	// the time its latency counts from.
	written int
	late    []time.Duration
	start   []time.Duration
	// recv is the receipt time of each row's record, negative if none came.
	recv         []time.Duration
	scores       []float64
	refits       []int
	duplicates   int // records for a row already answered
	unknown      int // records whose index names no row of the session
	errorRecords int
	// open is when the response status arrived.
	open time.Duration
}

func (r *sessionResult) admitted() bool { return r.status == http.StatusOK }

// runSessions runs every session concurrently from t0, one connection
// each, and returns once all have ended.
func runSessions(ctx context.Context, client *http.Client, sessions []session, t0 time.Time) []sessionResult {
	out := make([]sessionResult, len(sessions))
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = runSession(ctx, client, s, t0)
		}()
	}
	wg.Wait()
	return out
}

// streamRecord is one /stream response line.
type streamRecord struct {
	Index  *int    `json:"index"`
	Score  float64 `json:"score"`
	Refits int     `json:"refits"`
	Error  string  `json:"error"`
}

var errSessionOver = errors.New("session over")

func runSession(ctx context.Context, client *http.Client, s session, t0 time.Time) sessionResult {
	n := len(s.rows)
	res := sessionResult{
		late:   make([]time.Duration, 0, n),
		start:  make([]time.Duration, 0, n),
		recv:   make([]time.Duration, n),
		scores: make([]float64, n),
		refits: make([]int, n),
	}
	for i := range res.recv {
		res.recv[i] = -1
	}
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url, pr)
	if err != nil {
		return res
	}
	req.Header.Set("Content-Type", "application/x-ndjson")

	// The writer owns written, late and start until writerDone closes.
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		defer pw.Close()
		line := make([]byte, 0, 512)
		for i, row := range s.rows {
			// A row the writer slept for counts from the wake-up: the
			// oversleep is the client's timer, not the server. A row
			// already overdue, because the writer is behind, counts from
			// its due time.
			due := t0.Add(s.due[i])
			start := due
			if d := time.Until(due); d > 0 {
				if err := sleep(ctx, d); err != nil {
					return
				}
				start = time.Now()
			}
			late := time.Since(due)
			line = appendRow(line[:0], row)
			if _, err := pw.Write(line); err != nil {
				return
			}
			res.written++
			res.late = append(res.late, late)
			res.start = append(res.start, start.Sub(t0))
		}
	}()

	resp, err := client.Do(req)
	if err != nil {
		// The session counts as answered with another status than 200.
		pr.CloseWithError(err)
		<-writerDone
		return res
	}
	res.open = time.Since(t0)
	res.status = resp.StatusCode
	if resp.StatusCode == http.StatusOK {
		readRecords(resp.Body, t0, &res)
	}
	resp.Body.Close()
	// Unblocks the writer if the server ended the session early.
	pr.CloseWithError(errSessionOver)
	<-writerDone
	return res
}

// readRecords consumes the NDJSON response, stamping each record's
// receipt time. A read error ends the session; its unanswered rows count
// as missing.
func readRecords(body io.Reader, t0 time.Time, res *sessionResult) {
	br := bufio.NewReaderSize(body, 64<<10)
	for {
		line, err := br.ReadSlice('\n')
		at := time.Since(t0)
		if len(line) > 1 {
			var rec streamRecord
			switch {
			case json.Unmarshal(line, &rec) != nil:
				res.errorRecords++
			case rec.Error != "":
				res.errorRecords++
			case rec.Index == nil || *rec.Index < 0 || *rec.Index >= len(res.recv):
				res.unknown++
			case res.recv[*rec.Index] >= 0:
				res.duplicates++
			default:
				i := *rec.Index
				res.recv[i] = at
				res.scores[i] = rec.Score
				res.refits[i] = rec.Refits
			}
		}
		if err != nil {
			return
		}
	}
}

// sleep pauses for d with a nanosleep system call. Go's runtime timers
// wake about 0.5 ms late at the median (1.1 ms at p99) on a 2-vCPU Linux
// VM, which would blur sub-millisecond latencies; the system call wakes
// about 0.1 ms late there.
func sleep(ctx context.Context, d time.Duration) error {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
	return ctx.Err()
}

// appendRow formats a row as one NDJSON line with the shortest decimal
// form of each value, which parses back to the identical float64.
func appendRow(b []byte, row []float64) []byte {
	b = append(b, '[')
	for j, v := range row {
		if j > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, ']', '\n')
}

// loadReport summarizes the client side of a stream run.
type loadReport struct {
	// attempted counts every row due on an admitted session, written or
	// not, plus every session refused or answered with another status
	// than 200; failed counts the rows without a valid record, error
	// records, refusals and other statuses.
	attempted, failed int
	records, missing  int
	errorRecords      int
	refused           int // sessions answered 429
	badStatus         int // sessions answered with another status than 200
	// latencyMS holds the latencies of the rows due after the warm-up,
	// counted as runSession describes; lateMS how late the generator
	// wrote those rows.
	latencyMS, lateMS []float64
	openMS            []float64
}

// summarize accounts for every session and collects the timed rows'
// latencies.
func summarize(results []sessionResult, sessions []session, warmup time.Duration) loadReport {
	var r loadReport
	for si, res := range results {
		switch {
		case res.status == http.StatusTooManyRequests:
			r.refused++
			continue
		case !res.admitted():
			r.badStatus++
			continue
		}
		r.attempted += len(sessions[si].rows)
		r.errorRecords += res.errorRecords + res.duplicates + res.unknown
		r.openMS = append(r.openMS, ms(res.open-sessions[si].due[0]))
		for i, due := range sessions[si].due {
			switch {
			case res.recv[i] < 0:
				// Unanswered, or never written because the session ended.
				r.missing++
				continue
			case i >= res.written:
				// A record for a row that was never sent.
				r.errorRecords++
				continue
			}
			r.records++
			if due >= warmup {
				r.latencyMS = append(r.latencyMS, ms(res.recv[i]-res.start[i]))
				r.lateMS = append(r.lateMS, ms(res.late[i]))
			}
		}
	}
	r.attempted += r.refused + r.badStatus
	r.failed = min(r.attempted, r.missing+r.errorRecords+r.refused+r.badStatus)
	return r
}
