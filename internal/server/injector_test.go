package server_test

// Deterministic fault injection for the chaos suites (chaos_test.go): an
// injector owns a seeded random schedule and a table of named injection
// points, each configured with error, latency, and torn-write
// probabilities plus a fault budget. It lives with the only tests that use
// it; the hooks it drives (store.SetHooks, replica.Client.Fault) are plain
// nil-checked function pointers, so the uninjected fast path costs one
// atomic load.
//
// The chaos differential suites lean on two properties. Determinism: one
// seed and one call sequence produce one schedule, so a failing run can
// be replayed exactly. Convergence: MaxFaults bounds each point's injected
// failures, so retried operations eventually succeed and a fault-laden run
// terminates with the same acknowledged state as a fault-free one.

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// errInjected is the sentinel all injected errors wrap; consumers use
// errors.Is to tell an injected failure from a real one.
var errInjected = errors.New("fault: injected")

// faultConfig shapes one injection point's behavior. All rates are
// probabilities in [0, 1], drawn independently per hit.
type faultConfig struct {
	// ErrorRate is the probability a hit fails with an injected error.
	ErrorRate float64
	// LatencyRate is the probability a hit first sleeps for Latency.
	LatencyRate float64
	Latency     time.Duration
	// TornRate is the probability a torn-write query tears the frame,
	// keeping a random non-empty strict prefix — simulating a crash
	// mid-write that leaves undecodable tail bytes on disk.
	TornRate float64
	// MaxFaults caps the point's injected failures (errors plus torn
	// writes); once reached the point always passes. 0 means unlimited.
	MaxFaults int
}

// faultCounts is one injection point's ledger.
type faultCounts struct {
	// Hits is how many times the point was consulted.
	Hits int
	// Errors and Torn are the injected failures, by kind.
	Errors int
	Torn   int
	// Slept is how many hits had latency injected.
	Slept int
}

type faultPoint struct {
	cfg faultConfig
	n   faultCounts
}

func (p *faultPoint) faults() int { return p.n.Errors + p.n.Torn }

// injector drives a chaos run's injection points from one seeded
// schedule. The zero value injects nothing; it is safe for concurrent use.
type injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	points map[string]*faultPoint
}

// newInjector returns an injector whose schedule is fully determined by seed and
// the sequence of Hit/Torn calls.
func newInjector(seed int64) *injector {
	return &injector{rng: rand.New(rand.NewSource(seed)), points: map[string]*faultPoint{}}
}

// Set installs (or replaces) the configuration of one injection point.
func (in *injector) Set(point string, cfg faultConfig) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.points == nil {
		in.points = map[string]*faultPoint{}
	}
	in.points[point] = &faultPoint{cfg: cfg}
}

// Hit consults the schedule at a named point: it may sleep (injected
// latency) and may return an injected error. Unconfigured points — and a
// nil injector — always pass instantly.
func (in *injector) Hit(point string) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	p := in.points[point]
	if p == nil {
		in.mu.Unlock()
		return nil
	}
	p.n.Hits++
	var sleep time.Duration
	if p.cfg.LatencyRate > 0 && in.rng.Float64() < p.cfg.LatencyRate {
		p.n.Slept++
		sleep = p.cfg.Latency
	}
	var err error
	if p.cfg.ErrorRate > 0 && (p.cfg.MaxFaults == 0 || p.faults() < p.cfg.MaxFaults) &&
		in.rng.Float64() < p.cfg.ErrorRate {
		p.n.Errors++
		err = fmt.Errorf("%w: %s (error %d)", errInjected, point, p.n.Errors)
	}
	in.mu.Unlock()
	if sleep > 0 {
		time.Sleep(sleep)
	}
	return err
}

// Torn asks whether a write at the point should be torn. It returns the
// fraction of the frame to keep — a value in (0, 1) — and true when the
// schedule tears this write; (0, false) otherwise.
func (in *injector) Torn(point string) (keep float64, torn bool) {
	if in == nil {
		return 0, false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	p := in.points[point]
	if p == nil || p.cfg.TornRate <= 0 {
		return 0, false
	}
	if p.cfg.MaxFaults > 0 && p.faults() >= p.cfg.MaxFaults {
		return 0, false
	}
	if in.rng.Float64() >= p.cfg.TornRate {
		return 0, false
	}
	p.n.Torn++
	// A strict prefix: never 0 bytes (that is a clean failure, not a torn
	// one) and never the whole frame (that would be a success).
	return 0.05 + 0.9*in.rng.Float64(), true
}

// Counts returns a snapshot of every configured point's ledger.
func (in *injector) Counts() map[string]faultCounts {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]faultCounts, len(in.points))
	for name, p := range in.points {
		out[name] = p.n
	}
	return out
}

// TotalFaults sums injected errors and torn writes across all points.
func (in *injector) TotalFaults() int {
	total := 0
	for _, c := range in.Counts() {
		total += c.Errors + c.Torn
	}
	return total
}
