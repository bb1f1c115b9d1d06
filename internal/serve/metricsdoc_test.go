package serve

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"hics/internal/metrics"

	// Register the shard-routing and load-generator metric families so
	// the doc check covers every series this repo can expose.
	_ "hics/internal/loadgen"
	_ "hics/internal/shard"
)

// docRow is one parsed table row of docs/metrics.md.
type docRow struct {
	kind   string
	labels []string
}

// docRowRe matches a series-table row whose first cell is a backticked
// metric name: | `name` | type | labels | meaning |
var docRowRe = regexp.MustCompile("^\\|\\s*`([a-zA-Z_:][a-zA-Z0-9_:]*)`\\s*\\|([^|]*)\\|([^|]*)\\|")

// labelRe extracts backticked label names from the labels cell.
var labelRe = regexp.MustCompile("`([a-zA-Z_][a-zA-Z0-9_]*)`")

// parseMetricsDoc reads the Series table of docs/metrics.md into a
// name -> row map. Other backticked table rows are excluded by
// requiring the type cell to be a known metric kind.
func parseMetricsDoc(t *testing.T) map[string]docRow {
	t.Helper()
	raw, err := os.ReadFile("../../docs/metrics.md")
	if err != nil {
		t.Fatalf("reading docs/metrics.md: %v", err)
	}
	rows := make(map[string]docRow)
	for _, line := range strings.Split(string(raw), "\n") {
		m := docRowRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		kind := strings.TrimSpace(m[2])
		switch kind {
		case "counter", "gauge", "histogram":
		default:
			continue
		}
		var labels []string
		for _, lm := range labelRe.FindAllStringSubmatch(m[3], -1) {
			labels = append(labels, lm[1])
		}
		if _, dup := rows[m[1]]; dup {
			t.Errorf("docs/metrics.md documents %s twice", m[1])
		}
		rows[m[1]] = docRow{kind: kind, labels: labels}
	}
	if len(rows) == 0 {
		t.Fatal("docs/metrics.md: no series table rows parsed")
	}
	return rows
}

// TestMetricsDocInSync walks the live registry against the
// docs/metrics.md series table in both directions: every registered
// metric must have a row with the right type and labels, and every row
// must name a registered metric. Importing this package registers the
// full family set (serve -> hics -> stream, parallel), so the registry
// here is the one /metrics serves.
func TestMetricsDocInSync(t *testing.T) {
	doc := parseMetricsDoc(t)
	live := metrics.Default.Describe()

	seen := make(map[string]bool, len(live))
	for _, d := range live {
		seen[d.Name] = true
		row, ok := doc[d.Name]
		if !ok {
			t.Errorf("metric %s (%s) is registered but undocumented — add a row to docs/metrics.md", d.Name, d.Kind)
			continue
		}
		if row.kind != d.Kind {
			t.Errorf("metric %s: docs say type %s, registry says %s", d.Name, row.kind, d.Kind)
		}
		if got, want := fmt.Sprint(row.labels), fmt.Sprint(d.Labels); got != want {
			t.Errorf("metric %s: docs list labels %v, registry has %v", d.Name, row.labels, d.Labels)
		}
	}
	for name := range doc {
		if !seen[name] {
			t.Errorf("docs/metrics.md documents %s, which is not registered — remove the row or restore the metric", name)
		}
	}
}
