package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WriteProm renders the registry in the Prometheus text exposition format
// (version 0.0.4): for each family a # HELP line, a # TYPE line, then its
// sample lines. Families render in name order and series in label-value
// order, so successive scrapes of the same state are byte-identical and
// diffs between scrapes are line-stable. Histograms render cumulative
// _bucket series (ending in le="+Inf"), then _sum and _count.
func (r *Registry) WriteProm(w io.Writer) error {
	r.runCollect()
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	r.mu.Unlock()
	sort.Strings(names)
	for _, name := range names {
		r.mu.Lock()
		f := r.families[name]
		r.mu.Unlock()
		if err := f.writeProm(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) writeProm(w io.Writer) error {
	rows := f.rows()
	if len(rows) == 0 {
		return nil // a labeled family with no series yet renders nothing
	}
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
		f.name, escapeHelp(f.help), f.name, f.kind); err != nil {
		return err
	}
	for _, row := range rows {
		switch f.kind {
		case KindHistogram:
			if err := f.writeHistogram(w, row); err != nil {
				return err
			}
		default:
			v := row.s.val.Load()
			if row.s.gaugeFn != nil {
				v = row.s.gaugeFn()
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n",
				f.name, labelString(f.labels, row.s.labelValues, "", 0), formatValue(v)); err != nil {
				return err
			}
		}
	}
	return nil
}

func (f *family) writeHistogram(w io.Writer, row seriesRow) error {
	cum := int64(0)
	for i, bound := range f.buckets {
		cum += row.s.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			f.name, labelString(f.labels, row.s.labelValues, "le", bound), cum); err != nil {
			return err
		}
	}
	cum += row.s.counts[len(f.buckets)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
		f.name, labelStringInf(f.labels, row.s.labelValues), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
		f.name, labelString(f.labels, row.s.labelValues, "", 0), formatValue(row.s.sum.Load())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n",
		f.name, labelString(f.labels, row.s.labelValues, "", 0), cum)
	return err
}

// seriesRow pairs a series with its sort key.
type seriesRow struct {
	key string
	s   *series
}

// rows snapshots the family's series sorted by label values.
func (f *family) rows() []seriesRow {
	f.mu.Lock()
	rows := make([]seriesRow, 0, len(f.order))
	for _, key := range f.order {
		rows = append(rows, seriesRow{key, f.series[key]})
	}
	f.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
	return rows
}

// labelString renders {a="x",b="y"} with values escaped, appending an
// optional le bound for histogram buckets. Empty label sets (and no le)
// render as "".
func labelString(labels, values []string, le string, bound float64) string {
	if len(labels) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(EscapeLabelValue(values[i]))
		b.WriteByte('"')
	}
	if le != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(le)
		b.WriteString(`="`)
		b.WriteString(formatValue(bound))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func labelStringInf(labels, values []string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(EscapeLabelValue(values[i]))
		b.WriteByte('"')
	}
	if len(labels) > 0 {
		b.WriteByte(',')
	}
	b.WriteString(`le="+Inf"}`)
	return b.String()
}

// EscapeLabelValue escapes a label value per the exposition format:
// backslash, double quote, and newline.
func EscapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes HELP text: backslash and newline (quotes are legal).
func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// formatValue renders a sample value: integers without a decimal point,
// everything else in shortest round-trip form — matching what the
// hand-rolled gauge endpoint emitted before the registry existed.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
