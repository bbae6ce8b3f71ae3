package obs

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramObserveSnapshot(t *testing.T) {
	h := NewHistogram(nil)
	h.Observe(200 * time.Microsecond) // <= 0.25ms bucket
	h.Observe(3 * time.Millisecond)   // <= 5ms bucket
	h.Observe(10 * time.Second)       // overflow
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3", s.Count)
	}
	if got := s.SumMs; got < 10002 || got > 10004 {
		t.Fatalf("sumMs = %v, want ~10003.2", got)
	}
	if s.Counts[0] != 1 {
		t.Fatalf("bucket 0 = %d, want 1", s.Counts[0])
	}
	if s.Counts[len(s.Counts)-1] != 1 {
		t.Fatalf("overflow bucket = %d, want 1", s.Counts[len(s.Counts)-1])
	}
	var total uint64
	for _, c := range s.Counts {
		total += c
	}
	if total != 3 {
		t.Fatalf("bucket total = %d, want 3", total)
	}
}

// TestHistogramSnapshotNotTorn hammers Observe while snapshotting and
// asserts the documented invariant: Count never exceeds the bucket sum.
func TestHistogramSnapshotNotTorn(t *testing.T) {
	h := NewHistogram([]float64{1, 10})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(500 * time.Microsecond)
				}
			}
		}()
	}
	deadline := time.Now().Add(100 * time.Millisecond)
	for time.Now().Before(deadline) {
		s := h.Snapshot()
		var sum uint64
		for _, c := range s.Counts {
			sum += c
		}
		if s.Count > sum {
			close(stop)
			wg.Wait()
			t.Fatalf("torn snapshot: count %d > bucket sum %d", s.Count, sum)
		}
	}
	close(stop)
	wg.Wait()
}

func TestRegistryWriteText(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram([]float64{1, 10})
	h.Observe(500 * time.Microsecond)
	h.Observe(5 * time.Millisecond)
	r.Collect(func(e *Exporter) {
		e.Counter("xmatch_queries_total", "Queries served.", 42, Label{"dataset", "books"})
		e.Counter("xmatch_queries_total", "Queries served.", 7, Label{"dataset", "dblp"})
		e.Gauge(`xmatch_in_flight`, "In-flight requests.", 3)
		e.Histogram("xmatch_query_seconds", "Query latency.", h.Snapshot(), Label{"endpoint", `we"ird`})
	})
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`xmatch_queries_total{dataset="books"} 42`,
		`xmatch_queries_total{dataset="dblp"} 7`,
		"# TYPE xmatch_queries_total counter",
		"xmatch_in_flight 3",
		`xmatch_query_seconds_bucket{endpoint="we\"ird",le="0.001"} 1`,
		`xmatch_query_seconds_bucket{endpoint="we\"ird",le="+Inf"} 2`,
		`xmatch_query_seconds_count{endpoint="we\"ird"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, text)
		}
	}
	// The output must round-trip through our own grammar parser.
	metrics, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("self-parse: %v\n%s", err, text)
	}
	if len(metrics) != 8 { // 2 counters + 1 gauge + 3 buckets + sum + count
		t.Fatalf("parsed %d samples, want 8:\n%s", len(metrics), text)
	}
}

func TestRegistryRejectsBadNames(t *testing.T) {
	r := NewRegistry()
	r.Collect(func(e *Exporter) {
		e.Counter("bad-name", "nope", 1)
	})
	if err := r.WriteText(&strings.Builder{}); err == nil {
		t.Fatal("expected error for invalid metric name")
	}
	r2 := NewRegistry()
	r2.Collect(func(e *Exporter) {
		e.Counter("ok_total", "fine", 1)
		e.Gauge("ok_total", "fine", 2) // type conflict
	})
	if err := r2.WriteText(&strings.Builder{}); err == nil {
		t.Fatal("expected error for type conflict")
	}
}

func TestParseExpositionRejectsMalformed(t *testing.T) {
	cases := []string{
		"bad-name 1\n",
		"# TYPE m widget\nm 1\n",
		"m{l=\"unterminated} 1\n",
		"m{l=\"v\"} notanumber\n",
		"# TYPE m counter\n# TYPE m counter\nm 1\n",
		"# TYPE m counter\nother 1\n",
	}
	for _, c := range cases {
		if _, err := ParseExposition(strings.NewReader(c)); err == nil {
			t.Fatalf("ParseExposition accepted %q", c)
		}
	}
	ok := "# HELP m help\n# TYPE m histogram\nm_bucket{le=\"+Inf\"} 3\nm_sum 1.5\nm_count 3\n"
	if _, err := ParseExposition(strings.NewReader(ok)); err != nil {
		t.Fatalf("ParseExposition rejected valid input: %v", err)
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.Add("x", "", time.Now(), time.Millisecond)
	tr.Region("y", "").End()
	if tr.ID() != "" || !tr.Start().IsZero() {
		t.Fatal("nil trace not inert")
	}
	if d := tr.Data(time.Second); len(d.Spans) != 0 {
		t.Fatal("nil trace produced spans")
	}
}

// newTrace begins a trace of its own.
func newTrace(id string) *Trace {
	tr := new(Trace)
	tr.Begin(id)
	return tr
}

func TestTraceRecordsAndCaps(t *testing.T) {
	tr := newTrace("req-1")
	begin := tr.Start()
	for i := 0; i < maxSpans+10; i++ {
		tr.Add("span", "", begin, time.Millisecond)
	}
	d := tr.Data(50 * time.Millisecond)
	if len(d.Spans) != maxSpans {
		t.Fatalf("spans = %d, want cap %d", len(d.Spans), maxSpans)
	}
	if d.DroppedSpans != 10 {
		t.Fatalf("dropped = %d, want 10", d.DroppedSpans)
	}
	if d.ID != "req-1" || d.DurUs != 50000 {
		t.Fatalf("bad trace data: %+v", d)
	}
}

// TestTraceSpansAcrossInlineArray: spans keep their order and content as
// the list outgrows the trace's inline array, Data is a copy that later
// spans do not reach, a Region records what Add would, and a trace begun
// again allocates nothing for a request that fits the array and once, the
// list's move to the heap, for one of twice as many spans.
func TestTraceSpansAcrossInlineArray(t *testing.T) {
	tr := newTrace("req-2")
	var snapshots []TraceData
	for i := 0; i < 3*inlineSpans; i++ {
		if i%2 == 0 {
			tr.Add("span", strconv.Itoa(i), tr.Start().Add(time.Duration(i)*time.Microsecond), time.Microsecond)
		} else {
			reg := tr.Region("span", strconv.Itoa(i))
			reg.End()
		}
		snapshots = append(snapshots, tr.Data(time.Millisecond))
	}
	for n, d := range snapshots {
		if len(d.Spans) != n+1 {
			t.Fatalf("snapshot %d holds %d spans", n, len(d.Spans))
		}
		for i, sp := range d.Spans {
			if sp.Name != "span" || sp.Detail != strconv.Itoa(i) || sp.StartUs < 0 {
				t.Fatalf("snapshot %d span %d = %+v", n, i, sp)
			}
		}
	}
	begin := time.Now()
	if avg := testing.AllocsPerRun(100, func() {
		tr.Begin("req-3")
		for i := 0; i < inlineSpans/2; i++ {
			tr.Add("span", "", begin, time.Microsecond)
			tr.Region("region", "").End()
		}
	}); avg != 0 {
		t.Fatalf("a trace begun again for %d spans allocates %.1f times", inlineSpans, avg)
	}
	if d := tr.Data(time.Millisecond); d.ID != "req-3" || len(d.Spans) != inlineSpans || d.DroppedSpans != 0 {
		t.Fatalf("trace begun again holds %+v", d)
	}
	if avg := testing.AllocsPerRun(100, func() {
		tr.Begin("req-4")
		for i := 0; i < inlineSpans; i++ {
			tr.Add("span", "", begin, time.Microsecond)
			tr.Region("region", "").End()
		}
	}); avg > 1 {
		t.Fatalf("a trace begun again for %d spans allocates %.1f times", 2*inlineSpans, avg)
	}
	if d := tr.Data(time.Millisecond); d.ID != "req-4" || len(d.Spans) != 2*inlineSpans || d.DroppedSpans != 0 {
		t.Fatalf("trace begun again holds %+v", d)
	}
	// The ID's form is what fmt wrote before it was assembled by hand.
	id := RequestID()
	if want := fmt.Sprintf("r%x-%d", processEpoch, reqCounter.Load()); id != want || id == RequestID() {
		t.Fatalf("request ID %q, want %q and then another", id, want)
	}
}

func TestTraceLogTailSampling(t *testing.T) {
	l := NewTraceLog(3, 10*time.Millisecond)
	for i := 0; i < 5; i++ {
		tr := newTrace(string(rune('a' + i)))
		if l.Finish(tr, 5*time.Millisecond, "ds", "query") {
			t.Fatal("fast trace retained")
		}
	}
	for i := 0; i < 5; i++ {
		tr := newTrace(string(rune('A' + i)))
		if !l.Finish(tr, 20*time.Millisecond, "ds", "query") {
			t.Fatal("slow trace dropped")
		}
	}
	snap := l.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("retained %d, want 3", len(snap))
	}
	// Newest first: E, D, C.
	if snap[0].ID != "E" || snap[1].ID != "D" || snap[2].ID != "C" {
		t.Fatalf("wrong order: %s %s %s", snap[0].ID, snap[1].ID, snap[2].ID)
	}
	fin, sam := l.Counts()
	if fin != 10 || sam != 5 {
		t.Fatalf("counts = %d/%d, want 10/5", fin, sam)
	}
	// Negative threshold disables retention.
	off := NewTraceLog(3, -1)
	if off.Finish(newTrace("x"), time.Hour, "ds", "query") {
		t.Fatal("disabled log retained a trace")
	}
}

func TestRequestIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := RequestID()
		if seen[id] {
			t.Fatalf("duplicate request id %s", id)
		}
		seen[id] = true
	}
}

func TestNewLogger(t *testing.T) {
	var sb strings.Builder
	lg, err := NewLogger("json", "info", &sb)
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("hello", "k", "v")
	if !strings.Contains(sb.String(), `"k":"v"`) {
		t.Fatalf("json log missing field: %s", sb.String())
	}
	lg.Debug("quiet")
	if strings.Contains(sb.String(), "quiet") {
		t.Fatal("debug line emitted at info level")
	}
	if _, err := NewLogger("xml", "info", &sb); err == nil {
		t.Fatal("expected error for unknown format")
	}
	if _, err := NewLogger("text", "loud", &sb); err == nil {
		t.Fatal("expected error for unknown level")
	}
}
