package obs

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TextContentType is the Content-Type of the Prometheus text exposition
// format the Registry renders.
const TextContentType = "text/plain; version=0.0.4; charset=utf-8"

// DefaultLatencyBucketsMs are the fixed histogram bucket upper bounds (in
// milliseconds) the serving layer uses for request latencies; the
// implicit final bucket is +Inf. Every obs.Histogram built without bounds
// of its own uses them.
var DefaultLatencyBucketsMs = []float64{0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500}

// Histogram is a fixed-bucket duration histogram safe for concurrent
// observation; any subsystem can pick its own bucket bounds. The sum is
// kept in integer microseconds so the hot path never does floating-point
// atomics.
//
// Observe increments the bucket before the total, and Snapshot reads the
// total before the buckets, so a snapshot taken concurrently with
// observations always satisfies Count <= sum(Counts): snapshots may be
// momentarily behind, never torn into an impossible state
// (TestHistogramSnapshotNotTorn asserts exactly this invariant while
// hammering the histogram).
type Histogram struct {
	bucketsMs []float64
	counts    []atomic.Uint64 // len(bucketsMs)+1; last is the +Inf overflow
	total     atomic.Uint64
	sumMicros atomic.Uint64
}

// NewHistogram builds a histogram over the given bucket upper bounds in
// milliseconds (strictly ascending; nil or empty means
// DefaultLatencyBucketsMs).
func NewHistogram(bucketsMs []float64) *Histogram {
	if len(bucketsMs) == 0 {
		bucketsMs = DefaultLatencyBucketsMs
	}
	for i := 1; i < len(bucketsMs); i++ {
		if bucketsMs[i] <= bucketsMs[i-1] {
			panic(fmt.Sprintf("obs: histogram buckets not ascending at %d: %v", i, bucketsMs))
		}
	}
	b := make([]float64, len(bucketsMs))
	copy(b, bucketsMs)
	return &Histogram{bucketsMs: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one duration. No-op on a nil histogram.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ms := float64(d) / float64(time.Millisecond)
	i := 0
	for i < len(h.bucketsMs) && ms > h.bucketsMs[i] {
		i++
	}
	h.counts[i].Add(1)
	h.total.Add(1)
	h.sumMicros.Add(uint64(d / time.Microsecond))
}

// HistogramSnapshot is a point-in-time copy of a histogram. Counts are
// per-bucket (non-cumulative), Counts[len(BucketsMs)] being the +Inf
// overflow; Count <= sum(Counts) always holds (see Histogram).
type HistogramSnapshot struct {
	BucketsMs []float64 // shared with the histogram; callers must not mutate
	Counts    []uint64
	Count     uint64
	SumMs     float64
}

// Snapshot copies the histogram's current state. A nil histogram
// snapshots as empty over the default buckets.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{
			BucketsMs: DefaultLatencyBucketsMs,
			Counts:    make([]uint64, len(DefaultLatencyBucketsMs)+1),
		}
	}
	s := HistogramSnapshot{
		BucketsMs: h.bucketsMs,
		Count:     h.total.Load(),
	}
	s.Counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.SumMs = float64(h.sumMicros.Load()) / 1e3
	return s
}

// Label is one metric label pair.
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// Registry is a scrape-time metrics registry: collectors registered with
// Collect run on every WriteText call and emit whatever the system's
// current state is. Nothing is stored between scrapes, so dynamic label
// sets (datasets that appear and vanish on reload) need no lifecycle
// management.
type Registry struct {
	mu         sync.Mutex
	collectors []func(*Exporter)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Collect registers a collector; it runs on every scrape, in
// registration order.
func (r *Registry) Collect(fn func(*Exporter)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// WriteText runs every collector and renders the gathered metrics in the
// Prometheus text exposition format, families sorted by metric name. An
// emission error (invalid name, type conflict) fails the whole scrape —
// better a loud 500 than a silently dropped metric.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	collectors := make([]func(*Exporter), len(r.collectors))
	copy(collectors, r.collectors)
	r.mu.Unlock()
	e := &Exporter{families: make(map[string]*family)}
	for _, fn := range collectors {
		fn(e)
	}
	if len(e.errs) > 0 {
		return e.errs[0]
	}
	names := make([]string, 0, len(e.families))
	for name := range e.families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := e.families[name]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, f.help, name, f.typ); err != nil {
			return err
		}
		for _, line := range f.lines {
			if _, err := io.WriteString(w, line); err != nil {
				return err
			}
		}
	}
	return nil
}

// Exporter gathers one scrape's metrics. Emission methods may be called
// any number of times per metric name; all samples of one name must agree
// on type and help (they form one family) and are rendered grouped.
type Exporter struct {
	families map[string]*family
	errs     []error
}

type family struct {
	help, typ string
	lines     []string
}

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

func (e *Exporter) fam(name, help, typ string) *family {
	if !metricNameRe.MatchString(name) {
		e.errs = append(e.errs, fmt.Errorf("obs: invalid metric name %q", name))
		return nil
	}
	if strings.ContainsAny(help, "\n") {
		e.errs = append(e.errs, fmt.Errorf("obs: metric %s: help contains a newline", name))
		return nil
	}
	f, ok := e.families[name]
	if !ok {
		f = &family{help: help, typ: typ}
		e.families[name] = f
		return f
	}
	if f.typ != typ {
		e.errs = append(e.errs, fmt.Errorf("obs: metric %s emitted as both %s and %s", name, f.typ, typ))
		return nil
	}
	return f
}

// labelString renders a label set as {a="b",c="d"} ("" when empty),
// recording an error for invalid label names.
func (e *Exporter) labelString(metric string, labels []Label, extra ...Label) string {
	all := labels
	if len(extra) > 0 {
		all = make([]Label, 0, len(labels)+len(extra))
		all = append(all, labels...)
		all = append(all, extra...)
	}
	if len(all) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range all {
		if !labelNameRe.MatchString(l.Name) {
			e.errs = append(e.errs, fmt.Errorf("obs: metric %s: invalid label name %q", metric, l.Name))
			return ""
		}
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Name)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	for _, r := range v {
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

// formatValue renders a sample value: integers exactly, everything else
// in the shortest round-trippable float form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Bool is a gauge's value for a yes/no state: 1 or 0.
func Bool(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Counter emits one monotonically increasing sample.
func (e *Exporter) Counter(name, help string, value float64, labels ...Label) {
	e.sample(name, help, "counter", value, labels)
}

// Gauge emits one point-in-time sample.
func (e *Exporter) Gauge(name, help string, value float64, labels ...Label) {
	e.sample(name, help, "gauge", value, labels)
}

func (e *Exporter) sample(name, help, typ string, value float64, labels []Label) {
	f := e.fam(name, help, typ)
	if f == nil {
		return
	}
	f.lines = append(f.lines, name+e.labelString(name, labels)+" "+formatValue(value)+"\n")
}

// Histogram emits a histogram snapshot in exposition form: cumulative
// le-labeled buckets in seconds (the histogram's buckets are in
// milliseconds; the conversion happens here, once, at scrape time), a
// +Inf bucket, and _sum/_count series.
func (e *Exporter) Histogram(name, help string, snap HistogramSnapshot, labels ...Label) {
	f := e.fam(name, help, "histogram")
	if f == nil {
		return
	}
	base := e.labelString(name, labels)
	var cum uint64
	for i, c := range snap.Counts {
		cum += c
		le := "+Inf"
		if i < len(snap.BucketsMs) {
			le = formatValue(snap.BucketsMs[i] / 1e3)
		}
		f.lines = append(f.lines,
			name+"_bucket"+e.labelString(name, labels, Label{"le", le})+" "+strconv.FormatUint(cum, 10)+"\n")
	}
	f.lines = append(f.lines, name+"_sum"+base+" "+formatValue(snap.SumMs/1e3)+"\n")
	f.lines = append(f.lines, name+"_count"+base+" "+strconv.FormatUint(cum, 10)+"\n")
}
