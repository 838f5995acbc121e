// Package metrics accumulates per-inference observations into the summary
// statistics the paper reports (average latency, overall accuracy, hit
// ratio, hit accuracy, per-layer hit profiles) and renders paper-style
// tables.
package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// Obs is one inference observation.
type Obs struct {
	// LatencyMs is the total virtual latency of the inference, including
	// lookup costs.
	LatencyMs float64
	// LookupMs is the portion of LatencyMs spent probing cache layers.
	LookupMs float64
	// Correct reports whether the returned class matched ground truth.
	Correct bool
	// Hit reports whether a cache layer served the result.
	Hit bool
	// HitLayer is the serving cache site, or -1 on a miss.
	HitLayer int
}

// Accumulator aggregates observations. The zero value is ready to use.
type Accumulator struct {
	frames          int
	totalLatency    float64
	totalLookup     float64
	correct         int
	hits            int
	hitCorrect      int
	perLayerHits    map[int]int
	perLayerCorrect map[int]int
	latencies       []float64
}

// Record adds one observation.
func (a *Accumulator) Record(o Obs) {
	a.frames++
	a.totalLatency += o.LatencyMs
	a.totalLookup += o.LookupMs
	if o.Correct {
		a.correct++
	}
	if o.Hit {
		a.hits++
		if a.perLayerHits == nil {
			a.perLayerHits = make(map[int]int)
			a.perLayerCorrect = make(map[int]int)
		}
		a.perLayerHits[o.HitLayer]++
		if o.Correct {
			a.hitCorrect++
			a.perLayerCorrect[o.HitLayer]++
		}
	}
	a.latencies = append(a.latencies, o.LatencyMs)
}

// Merge folds another accumulator into a.
func (a *Accumulator) Merge(b *Accumulator) {
	a.frames += b.frames
	a.totalLatency += b.totalLatency
	a.totalLookup += b.totalLookup
	a.correct += b.correct
	a.hits += b.hits
	a.hitCorrect += b.hitCorrect
	for k, v := range b.perLayerHits {
		if a.perLayerHits == nil {
			a.perLayerHits = make(map[int]int)
			a.perLayerCorrect = make(map[int]int)
		}
		a.perLayerHits[k] += v
	}
	for k, v := range b.perLayerCorrect {
		a.perLayerCorrect[k] += v
	}
	a.latencies = append(a.latencies, b.latencies...)
}

// Frames returns the observation count.
func (a *Accumulator) Frames() int { return a.frames }

// Summary is the aggregate view of an accumulator.
type Summary struct {
	Frames       int
	AvgLatencyMs float64
	P50LatencyMs float64
	P95LatencyMs float64
	P99LatencyMs float64
	// Accuracy is overall top-1 accuracy in [0,1].
	Accuracy float64
	// HitRatio is the fraction of inferences served by the cache.
	HitRatio float64
	// HitAccuracy is accuracy conditioned on cache hits.
	HitAccuracy float64
	// AvgLookupMs is the mean per-inference lookup cost.
	AvgLookupMs float64
	// PerLayerHitRatio maps cache site -> fraction of all inferences that
	// hit at that site.
	PerLayerHitRatio map[int]float64
	// PerLayerHitAccuracy maps cache site -> accuracy of hits served at
	// that site.
	PerLayerHitAccuracy map[int]float64
}

// Summary computes the aggregate statistics.
func (a *Accumulator) Summary() Summary {
	s := Summary{Frames: a.frames}
	if a.frames == 0 {
		return s
	}
	n := float64(a.frames)
	s.AvgLatencyMs = a.totalLatency / n
	s.AvgLookupMs = a.totalLookup / n
	s.Accuracy = float64(a.correct) / n
	s.HitRatio = float64(a.hits) / n
	if a.hits > 0 {
		s.HitAccuracy = float64(a.hitCorrect) / float64(a.hits)
	}
	if len(a.perLayerHits) > 0 {
		s.PerLayerHitRatio = make(map[int]float64, len(a.perLayerHits))
		s.PerLayerHitAccuracy = make(map[int]float64, len(a.perLayerHits))
		for k, v := range a.perLayerHits {
			s.PerLayerHitRatio[k] = float64(v) / n
			s.PerLayerHitAccuracy[k] = float64(a.perLayerCorrect[k]) / float64(v)
		}
	}
	sorted := append([]float64(nil), a.latencies...)
	sort.Float64s(sorted)
	s.P50LatencyMs = percentile(sorted, 0.50)
	s.P95LatencyMs = percentile(sorted, 0.95)
	s.P99LatencyMs = percentile(sorted, 0.99)
	return s
}

// percentile returns the p-quantile of sorted (nearest-rank on a sorted
// slice). Empty input yields 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

// Table is a paper-style results table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	// Notes holds free-form annotations rendered under the table.
	Notes []string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// AddNote appends an annotation line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned text.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, w := range widths {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", w, cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	total := len(widths) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (cells containing commas
// or quotes are quoted).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteString(`"` + strings.ReplaceAll(c, `"`, `""`) + `"`)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Fmt formats a float with the given precision — shorthand for table cells.
func Fmt(v float64, prec int) string {
	return fmt.Sprintf("%.*f", prec, v)
}

// Pct formats a [0,1] fraction as a percentage with the given precision.
func Pct(v float64, prec int) string {
	return fmt.Sprintf("%.*f", prec, v*100)
}
