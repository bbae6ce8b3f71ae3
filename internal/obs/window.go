package obs

import (
	"sync"
	"time"
)

// Windowed wraps a Histogram with a ring of boundary snapshots so callers
// can read sliding-window quantiles ("p95 over the last five minutes")
// instead of lifetime aggregates. Observation stays on the embedded
// Histogram's lock-free path; the ring is only touched at read time.
//
// The window is divided into slots. On every windowed read the wrapper
// checks how many slot boundaries have elapsed since the last rotation
// and pushes one boundary snapshot per elapsed slot, so no background
// goroutine is needed and an idle histogram costs nothing. The windowed
// view is then the elementwise difference between the current snapshot
// and the oldest retained boundary. Observations made between reads
// cannot be attributed to a precise slot; they are attributed to the
// interval after the last rotation (each pushed boundary carries the
// state captured at the previous rotation), which errs toward keeping
// them in the window longer rather than dropping fresh data. With
// regular reads (every scrape rotates) the window covers between
// (slots-1) and (slots+1) slot-durations of history; before the ring
// fills it covers the histogram's whole lifetime, which is the right
// answer for a young process.
type Windowed struct {
	*Histogram
	slotDur time.Duration

	mu     sync.Mutex
	marks  []HistogramSnapshot // ring of boundary snapshots
	filled int                 // number of valid marks
	next   int                 // ring write position
	last   time.Time           // wall time of the most recent rotation
	prev   HistogramSnapshot   // state captured at the most recent rotation
	now    func() time.Time    // test hook
}

// NewWindowed builds a windowed histogram over the given buckets (nil
// means DefaultLatencyBucketsMs) covering roughly window split into
// slots boundary snapshots. window and slots are clamped to sane
// minimums (one second, two slots).
func NewWindowed(bucketsMs []float64, window time.Duration, slots int) *Windowed {
	if window < time.Second {
		window = time.Second
	}
	if slots < 2 {
		slots = 2
	}
	return &Windowed{
		Histogram: NewHistogram(bucketsMs),
		slotDur:   window / time.Duration(slots),
		marks:     make([]HistogramSnapshot, slots),
		now:       time.Now,
	}
}

// rotate pushes boundary snapshots for every slot that has elapsed since
// the last call. Caller holds w.mu.
func (w *Windowed) rotate() {
	now := w.now()
	if w.last.IsZero() {
		w.last = now
		w.prev = w.Histogram.Snapshot()
		return
	}
	steps := int(now.Sub(w.last) / w.slotDur)
	if steps <= 0 {
		return
	}
	w.last = w.last.Add(time.Duration(steps) * w.slotDur)
	if steps > len(w.marks) {
		steps = len(w.marks)
	}
	for i := 0; i < steps; i++ {
		w.marks[w.next] = w.prev
		w.next = (w.next + 1) % len(w.marks)
		if w.filled < len(w.marks) {
			w.filled++
		}
	}
	w.prev = w.Histogram.Snapshot()
}

// Window returns the histogram's activity over (roughly) the configured
// window: current state minus the oldest retained boundary snapshot.
// Count is recomputed from the bucket deltas so the windowed view is
// internally consistent even when a boundary snapshot raced observations
// (the underlying atomics are monotonic, so per-bucket deltas are never
// negative). Nil-safe: a nil Windowed returns an empty snapshot.
func (w *Windowed) Window() HistogramSnapshot {
	if w == nil {
		return (*Histogram)(nil).Snapshot()
	}
	w.mu.Lock()
	w.rotate()
	var old HistogramSnapshot
	if w.filled > 0 {
		oldest := w.next - w.filled
		if oldest < 0 {
			oldest += len(w.marks)
		}
		old = w.marks[oldest]
	}
	w.mu.Unlock()
	return w.Histogram.Snapshot().Sub(old)
}

// Sub returns the elementwise difference s - old, clamping at zero so a
// stale or racing old snapshot can never produce negative counts. Count
// is recomputed as the sum of the bucket deltas (see Windowed.Window).
// An empty old (zero value) returns a normalized copy of s.
func (s HistogramSnapshot) Sub(old HistogramSnapshot) HistogramSnapshot {
	d := HistogramSnapshot{
		BucketsMs: s.BucketsMs,
		Counts:    make([]uint64, len(s.Counts)),
	}
	var total uint64
	for i, c := range s.Counts {
		if i < len(old.Counts) && old.Counts[i] <= c {
			c -= old.Counts[i]
		} else if i < len(old.Counts) {
			c = 0
		}
		d.Counts[i] = c
		total += c
	}
	d.Count = total
	d.SumMs = s.SumMs - old.SumMs
	if d.SumMs < 0 {
		d.SumMs = 0
	}
	return d
}

// Quantile estimates the q-quantile (0 < q <= 1) in milliseconds by
// linear interpolation within the containing bucket, the standard
// fixed-bucket estimate. The +Inf overflow bucket reports the largest
// finite bound (there is nothing better to say about it). An empty
// snapshot reports 0. The denominator is the bucket sum, not Count,
// because Count may momentarily lag the buckets on a live histogram.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	var total uint64
	for _, c := range s.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = s.BucketsMs[i-1]
		}
		hi := lo
		if i < len(s.BucketsMs) {
			hi = s.BucketsMs[i]
		}
		cum += float64(c)
		if cum >= rank {
			if hi == lo {
				return hi
			}
			// Position of the rank within this bucket.
			frac := 1 - (cum-rank)/float64(c)
			return lo + frac*(hi-lo)
		}
	}
	if len(s.BucketsMs) > 0 {
		return s.BucketsMs[len(s.BucketsMs)-1]
	}
	return 0
}

// SLO is a latency service-level objective: Objective of requests (e.g.
// 0.99) should complete within Target. Because the histogram has fixed
// bucket bounds, Target is effectively rounded up to the nearest bucket
// bound — a request is "good" when it landed in a bucket whose upper
// bound is <= the effective target.
type SLO struct {
	Target    time.Duration
	Objective float64 // fraction of requests that must meet Target, e.g. 0.99
}

// EffectiveTargetMs returns the bucket bound the target rounds up to
// under the snapshot's bucket layout (+Inf collapses to the largest
// finite bound, making every finite-bucket request good).
func (o SLO) EffectiveTargetMs(bucketsMs []float64) float64 {
	ms := float64(o.Target) / float64(time.Millisecond)
	for _, b := range bucketsMs {
		if b >= ms {
			return b
		}
	}
	if len(bucketsMs) > 0 {
		return bucketsMs[len(bucketsMs)-1]
	}
	return ms
}

// Burn evaluates the SLO against a (typically windowed) snapshot. It
// returns the fraction of requests that missed the target and the
// error-budget burn rate: badFraction / (1 - Objective). A burn rate of
// 1 means the budget is being spent exactly as fast as it accrues;
// above 1 the budget is burning hot. An empty snapshot burns nothing.
// Objective must lie in (0, 1) — server.New refuses any other — so the
// rate is always finite.
func (o SLO) Burn(s HistogramSnapshot) (badFraction, burnRate float64) {
	var total, good uint64
	target := o.EffectiveTargetMs(s.BucketsMs)
	for i, c := range s.Counts {
		total += c
		if i < len(s.BucketsMs) && s.BucketsMs[i] <= target {
			good += c
		}
	}
	if total == 0 {
		return 0, 0
	}
	badFraction = float64(total-good) / float64(total)
	return badFraction, badFraction / (1 - o.Objective)
}
