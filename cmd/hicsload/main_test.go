package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hics"
	"hics/internal/fleet"
	"hics/internal/rng"
	"hics/internal/serve"
)

// capture returns a temp file opened for read/write to stand in for
// stdout or stderr.
func capture(t *testing.T, name string) *os.File {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), name))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func read(t *testing.T, f *os.File) string {
	t.Helper()
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func newTarget(t *testing.T) *httptest.Server {
	t.Helper()
	r := rng.New(3)
	rows := make([][]float64, 150)
	for i := range rows {
		rows[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
	}
	m, err := hics.Fit(rows, hics.Options{M: 10, Seed: 3, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	fl := fleet.New(fleet.Config{})
	if err := fl.Put(fleet.DefaultName, m, fleet.Quota{}, true); err != nil {
		t.Fatal(err)
	}
	if err := fl.Restore(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.New(serve.Config{Fleet: fl}))
	t.Cleanup(ts.Close)
	return ts
}

func TestRunArgumentErrors(t *testing.T) {
	stdout, stderr := capture(t, "out"), capture(t, "err")
	if err := run(context.Background(), nil, stdout, stderr); err == nil {
		t.Error("missing -target should fail")
	}
	if err := run(context.Background(), []string{"-target", "http://x", "extra"}, stdout, stderr); err == nil {
		t.Error("positional arguments should fail")
	}
	if err := run(context.Background(), []string{"-target", "http://x", "-mode", "bogus"}, stdout, stderr); err == nil {
		t.Error("bad -mode should fail")
	}
}

// TestRunStream drives a short stream load end to end: human text on
// stderr, exactly one parseable JSON record on stdout.
func TestRunStream(t *testing.T) {
	ts := newTarget(t)
	stdout, stderr := capture(t, "out"), capture(t, "err")
	err := run(context.Background(),
		[]string{"-target", ts.URL, "-sessions", "2", "-rows", "15", "-timeout", "30s"},
		stdout, stderr)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Mode    string `json:"mode"`
		Records int64  `json:"records_received"`
		Errors  int64  `json:"errors"`
	}
	out := read(t, stdout)
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("stdout is not one JSON record: %v\n%s", err, out)
	}
	if rep.Mode != "stream" || rep.Records != 30 || rep.Errors != 0 {
		t.Errorf("record = %+v, want stream/30/0", rep)
	}
	human := read(t, stderr)
	for _, want := range []string{"hicsload stream", "records received 30", "latency ms"} {
		if !strings.Contains(human, want) {
			t.Errorf("stderr summary missing %q:\n%s", want, human)
		}
	}
}

func TestRunScore(t *testing.T) {
	ts := newTarget(t)
	stdout, stderr := capture(t, "out"), capture(t, "err")
	err := run(context.Background(),
		[]string{"-target", ts.URL, "-mode", "score", "-sessions", "1", "-rows", "5", "-timeout", "30s"},
		stdout, stderr)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Records int64 `json:"records_received"`
	}
	if err := json.Unmarshal([]byte(read(t, stdout)), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Records != 5 {
		t.Errorf("records = %d, want 5", rep.Records)
	}
}
