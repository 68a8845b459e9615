package telemetry

import (
	"bufio"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"

	"adaptivetoken/internal/metrics"
)

// Label is one Prometheus label pair.
type Label struct {
	Key, Value string
}

// PromWriter encodes metrics in the Prometheus text exposition format
// (version 0.0.4): the format every Prometheus-compatible scraper parses.
// Errors stick: after the first write error every call is a no-op and Err
// returns it.
type PromWriter struct {
	w    *bufio.Writer
	err  error
	seen map[string]bool
}

// NewPromWriter wraps w.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: bufio.NewWriter(w)}
}

// Counter writes one counter sample with optional labels.
func (p *PromWriter) Counter(name, help string, v float64, labels ...Label) {
	p.header(name, help, "counter")
	p.sample(name, "", labels, v)
}

// Gauge writes one gauge sample with optional labels.
func (p *PromWriter) Gauge(name, help string, v float64, labels ...Label) {
	p.header(name, help, "gauge")
	p.sample(name, "", labels, v)
}

// CounterVec writes one TYPE/HELP header followed by a sample per
// (labels, value) pair — the per-kind message counters.
func (p *PromWriter) CounterVec(name, help string, samples []metrics.KindCount, labelKey string, labels ...Label) {
	p.header(name, help, "counter")
	for _, kc := range samples {
		ls := make([]Label, 0, len(labels)+1)
		ls = append(ls, Label{Key: labelKey, Value: kc.Kind})
		ls = append(ls, labels...)
		p.sample(name, "", ls, float64(kc.Count))
	}
}

// Histogram writes h in Prometheus histogram form: cumulative _bucket
// samples with le bounds at the log₂ bucket upper edges, then _sum and
// _count. Buckets are emitted up to the last non-empty one plus the +Inf
// bucket, so the series stays compact and the cumulative counts are
// monotone by construction.
func (p *PromWriter) Histogram(name, help string, h *metrics.Histogram, labels ...Label) {
	p.header(name, help, "histogram")
	var cum int64
	last := h.NonEmptyBuckets()
	for i := 0; i < last; i++ {
		cum += h.Bucket(i)
		le := strconv.FormatInt(metrics.BucketUpper(i), 10)
		p.sample(name+"_bucket", le, labels, float64(cum))
	}
	p.sample(name+"_bucket", "+Inf", labels, float64(h.Count()))
	p.sample(name+"_sum", "", labels, float64(h.Sum()))
	p.sample(name+"_count", "", labels, float64(h.Count()))
}

// Flush writes any buffered output and returns the sticky error.
func (p *PromWriter) Flush() error {
	if p.err == nil {
		p.err = p.w.Flush()
	}
	return p.err
}

// header writes the HELP/TYPE preamble, once per metric name — a writer
// fed by several exporters (one per shard) must not repeat it, because the
// exposition format forbids duplicate HELP/TYPE lines.
func (p *PromWriter) header(name, help, typ string) {
	if p.err != nil {
		return
	}
	if p.seen[name] {
		return
	}
	if p.seen == nil {
		p.seen = make(map[string]bool)
	}
	p.seen[name] = true
	if help != "" {
		p.writeString("# HELP " + name + " " + escapeHelp(help) + "\n")
	}
	p.writeString("# TYPE " + name + " " + typ + "\n")
}

// sample writes one `name{labels,le} value` line. le, when non-empty, is
// appended as the histogram bucket bound label.
func (p *PromWriter) sample(name, le string, labels []Label, v float64) {
	if p.err != nil {
		return
	}
	p.writeString(name)
	if len(labels) > 0 || le != "" {
		p.writeString("{")
		for i, l := range labels {
			if i > 0 {
				p.writeString(",")
			}
			p.writeString(l.Key + "=\"" + escapeLabel(l.Value) + "\"")
		}
		if le != "" {
			if len(labels) > 0 {
				p.writeString(",")
			}
			p.writeString("le=\"" + le + "\"")
		}
		p.writeString("}")
	}
	p.writeString(" " + formatValue(v) + "\n")
}

func (p *PromWriter) writeString(s string) {
	if p.err != nil {
		return
	}
	_, p.err = p.w.WriteString(s)
}

// formatValue renders v the way Prometheus expects: integral values
// without an exponent, the rest in shortest form.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote and newline. Invalid UTF-8 bytes become U+FFFD — the format
// requires valid UTF-8.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") && utf8.ValidString(s) {
		return s
	}
	var sb strings.Builder
	sb.Grow(len(s) + 8)
	for _, r := range s {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// escapeHelp escapes a HELP string: backslash and newline (quotes are fine
// in help text).
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	var sb strings.Builder
	sb.Grow(len(s) + 8)
	for _, r := range s {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}
