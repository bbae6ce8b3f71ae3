package obs

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestWindowedRotation(t *testing.T) {
	w := NewWindowed([]float64{1, 10, 100}, 60*time.Second, 6)
	clock := time.Unix(1000, 0)
	w.now = func() time.Time { return clock }

	w.Observe(5 * time.Millisecond)
	w.Observe(5 * time.Millisecond)
	// Before any slot boundary passes, the window is the lifetime view.
	if got := w.Window(); got.Count != 2 {
		t.Fatalf("young window count = %d, want 2", got.Count)
	}

	// Let the full ring elapse: the two early observations must age out.
	clock = clock.Add(61 * time.Second)
	if got := w.Window(); got.Count != 0 {
		t.Fatalf("aged window count = %d, want 0", got.Count)
	}

	// Fresh observations appear immediately.
	w.Observe(50 * time.Millisecond)
	got := w.Window()
	if got.Count != 1 || got.Counts[2] != 1 {
		t.Fatalf("fresh window = %+v, want one observation in bucket 2", got)
	}

	// Lifetime histogram still sees everything.
	if life := w.Snapshot(); life.Count != 3 {
		t.Fatalf("lifetime count = %d, want 3", life.Count)
	}
}

func TestWindowedPartialAging(t *testing.T) {
	// 10s window in 5 slots, read every 2s like a scraper would.
	w := NewWindowed([]float64{1, 10}, 10*time.Second, 5)
	clock := time.Unix(0, 0)
	w.now = func() time.Time { return clock }

	w.Window() // anchor
	w.Observe(time.Millisecond)
	read := func() HistogramSnapshot {
		clock = clock.Add(2 * time.Second)
		return w.Window()
	}
	read() // t=2
	read() // t=4
	w.Observe(time.Millisecond)
	for i, want := range []uint64{2, 2, 2, 1} { // t=6..12: first obs ages out at t=12
		if got := read(); got.Count != want {
			t.Fatalf("read %d: window count = %d, want %d", i, got.Count, want)
		}
	}
	// Four more slots and the second observation is gone too.
	var got HistogramSnapshot
	for i := 0; i < 4; i++ {
		got = read()
	}
	if got.Count != 0 {
		t.Fatalf("fully aged count = %d, want 0", got.Count)
	}
}

func TestWindowedNilSafe(t *testing.T) {
	var w *Windowed
	if got := w.Window(); got.Count != 0 {
		t.Fatalf("nil Windowed count = %d", got.Count)
	}
}

func TestHistogramSnapshotSub(t *testing.T) {
	h := NewHistogram([]float64{1, 10})
	h.Observe(500 * time.Microsecond)
	h.Observe(5 * time.Millisecond)
	old := h.Snapshot()
	h.Observe(20 * time.Millisecond)
	d := h.Snapshot().Sub(old)
	if d.Count != 1 || d.Counts[2] != 1 || d.Counts[0] != 0 {
		t.Fatalf("delta = %+v, want single overflow observation", d)
	}
	// Sub against a snapshot that is somehow ahead clamps at zero.
	ahead := h.Snapshot()
	ahead.Counts[0] += 5
	ahead.SumMs += 100
	d = h.Snapshot().Sub(ahead)
	if d.Counts[0] != 0 || d.SumMs != 0 {
		t.Fatalf("clamped delta = %+v, want zeros", d)
	}
}

func TestQuantile(t *testing.T) {
	s := HistogramSnapshot{
		BucketsMs: []float64{1, 10, 100},
		Counts:    []uint64{50, 30, 20, 0},
	}
	if p50 := s.Quantile(0.5); p50 != 1 {
		t.Fatalf("p50 = %v, want 1 (rank 50 is exactly the first bucket's edge)", p50)
	}
	p95 := s.Quantile(0.95)
	if p95 <= 10 || p95 > 100 {
		t.Fatalf("p95 = %v, want within (10, 100]", p95)
	}
	// All mass in the overflow bucket: report the largest finite bound.
	over := HistogramSnapshot{BucketsMs: []float64{1, 10}, Counts: []uint64{0, 0, 7}}
	if q := over.Quantile(0.99); q != 10 {
		t.Fatalf("overflow quantile = %v, want 10", q)
	}
	empty := HistogramSnapshot{BucketsMs: []float64{1}, Counts: []uint64{0, 0}}
	if q := empty.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
}

func TestSLOBurn(t *testing.T) {
	slo := SLO{Target: 10 * time.Millisecond, Objective: 0.9}
	s := HistogramSnapshot{
		BucketsMs: []float64{1, 10, 100},
		Counts:    []uint64{40, 40, 15, 5}, // 20/100 above 10ms
	}
	bad, burn := slo.Burn(s)
	if math.Abs(bad-0.2) > 1e-9 {
		t.Fatalf("badFraction = %v, want 0.2", bad)
	}
	if math.Abs(burn-2.0) > 1e-9 {
		t.Fatalf("burnRate = %v, want 2.0", burn)
	}

	// Target between bucket bounds rounds up to the next bound.
	slo = SLO{Target: 5 * time.Millisecond, Objective: 0.9}
	if eff := slo.EffectiveTargetMs(s.BucketsMs); eff != 10 {
		t.Fatalf("effective target = %v, want 10", eff)
	}

	// Empty snapshot burns nothing.
	if bad, burn := slo.Burn(HistogramSnapshot{BucketsMs: s.BucketsMs, Counts: make([]uint64, 4)}); bad != 0 || burn != 0 {
		t.Fatalf("empty burn = %v/%v, want 0/0", bad, burn)
	}

	// A tight objective burns fast but finitely: 0.2 bad against a 0.001
	// budget is 200x.
	strict := SLO{Target: 10 * time.Millisecond, Objective: 0.999}
	if _, burn := strict.Burn(s); math.Abs(burn-200) > 1e-6 {
		t.Fatalf("tight-objective burn = %v, want 200", burn)
	}
}

// Satellite: +Inf bucket rendering must appear exactly once per label
// set with a cumulative count equal to the total.
func TestExporterInfBucketRendering(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram([]float64{1})
	h.Observe(500 * time.Microsecond)
	h.Observe(50 * time.Millisecond) // overflow
	r.Collect(func(e *Exporter) {
		e.Histogram("t_seconds", "h", h.Snapshot())
	})
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if n := strings.Count(text, `le="+Inf"`); n != 1 {
		t.Fatalf("+Inf bucket rendered %d times, want 1:\n%s", n, text)
	}
	for _, want := range []string{
		`t_seconds_bucket{le="0.001"} 1`,
		`t_seconds_bucket{le="+Inf"} 2`,
		"t_seconds_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in:\n%s", want, text)
		}
	}
}

// Satellite: label values containing backslash, quote, and newline must
// escape on emission and round-trip through ParseExposition.
func TestLabelValueEscapingRoundTrip(t *testing.T) {
	hairy := "a\\b\"c\nd"
	r := NewRegistry()
	r.Collect(func(e *Exporter) {
		e.Counter("t_total", "h", 1, Label{"path", hairy})
	})
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if !strings.Contains(text, `path="a\\b\"c\nd"`) {
		t.Fatalf("escaped label not found in:\n%s", text)
	}
	metrics, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("self-parse: %v\n%s", err, text)
	}
	if len(metrics) != 1 || len(metrics[0].Labels) != 1 || metrics[0].Labels[0].Value != hairy {
		t.Fatalf("round-trip lost the label value: %+v", metrics)
	}
}

// Satellite: the same series (name + label set) twice is an emitter bug
// the parser must reject — including when label order differs.
func TestParseExpositionRejectsDuplicateSeries(t *testing.T) {
	cases := []string{
		"m 1\nm 2\n",
		`m{a="1",b="2"} 1` + "\n" + `m{a="1",b="2"} 2` + "\n",
		`m{a="1",b="2"} 1` + "\n" + `m{b="2",a="1"} 2` + "\n", // reordered labels, same series
	}
	for _, c := range cases {
		if _, err := ParseExposition(strings.NewReader(c)); err == nil || !strings.Contains(err.Error(), "duplicate series") {
			t.Fatalf("ParseExposition(%q) err = %v, want duplicate series", c, err)
		}
	}
	// Distinct label values are distinct series.
	ok := `m{a="1"} 1` + "\n" + `m{a="2"} 2` + "\n"
	if _, err := ParseExposition(strings.NewReader(ok)); err != nil {
		t.Fatalf("ParseExposition rejected distinct series: %v", err)
	}
}
