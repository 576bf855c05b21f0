package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"
)

// table renders rows as an aligned text table with a header line. It is
// the Renderable of every experiment whose result builds one table (see
// Table), and its CSV is what cmd/experiments -csv writes.
type table struct {
	title  string
	header []string
	rows   [][]string
	notes  []string
}

// Tabular is an experiment result that builds one table: every result
// but the figures that print themselves (Figs. 7, 8, 10, 12, 13, 19).
type Tabular interface{ tab() *table }

// Table returns r's table, which renders as aligned text (Render) and as
// CSV.
func Table(r Tabular) Renderable { return r.tab() }

func (t *table) addRow(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) addNote(format string, args ...any) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// Render prints the table as aligned text, with the notes below it.
func (t *table) Render() string {
	var sb strings.Builder
	if t.title != "" {
		fmt.Fprintf(&sb, "%s\n", t.title)
	}
	tw := tabwriter.NewWriter(&sb, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.header, "\t"))
	for _, r := range t.rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	// Flushing a tabwriter over a strings.Builder cannot fail.
	tw.Flush()
	for _, n := range t.notes {
		fmt.Fprintf(&sb, "%s\n", n)
	}
	return sb.String()
}

// CSV renders the table as comma-separated values (header row first,
// notes omitted). Cells are quoted only when they contain commas.
func (t *table) CSV() string {
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			sb.WriteString(c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.header)
	for _, row := range t.rows {
		writeRow(row)
	}
	return sb.String()
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
