// Package bench regenerates every reproducible artifact of the paper as a
// formatted table: the worked examples of Section 3, an executable
// validation of each theorem and algorithm, and the extension experiments
// (heuristic quality on the open classes, simulator validation, the JPEG
// case study, scalability and ablation sweeps).
//
// Each experiment EXX has a function returning a *Table; cmd/paperbench
// prints them and the root-level benchmarks time the underlying
// computations. Experiments are deterministic (fixed seeds).
package bench

import (
	"fmt"
	"strconv"
	"strings"
)

// Table is one experiment's output: a title, a header row, data rows, and
// free-form notes (typically the paper-vs-measured comparison).
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a note line.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned monospace text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// f formats a float compactly (like %.6g, without the fmt reflection
// overhead — table rendering shows up in the experiment benchmarks).
// Integral values below 10^6 print identically under %.6g and base-10
// integer formatting, so they take the cheap path.
func f(x float64) string {
	if x > -1e6 && x < 1e6 {
		if i := int64(x); float64(i) == x {
			return strconv.FormatInt(i, 10)
		}
	}
	return strconv.FormatFloat(x, 'g', 6, 64)
}

// All runs every experiment and returns the tables in order.
func All() []*Table {
	return []*Table{
		E1Fig34(),
		E2Fig5(),
		E3MinFP(),
		E4MinLatencyCommHom(),
		E5TSPReduction(),
		E6GeneralShortestPath(),
		E7FullyHomBiCriteria(),
		E8CommHomBiCriteria(),
		E9PartitionReduction(),
		E10HeuristicsOpenCase(),
		E11SimulatorValidation(),
		E12JPEG(),
		E13Scalability(),
		E14ReplicationAblation(),
		E15TriCriteria(),
		E16PeriodValidation(),
		E17IntervalBounds(),
	}
}
