package replica

import (
	"math/rand"
	"sync"
	"time"
)

// BreakerState names a circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed admits every attempt (failures below the threshold
	// still impose an exponential backoff wait between attempts).
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects attempts until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen has admitted one probe and rejects the rest until
	// the probe reports: success closes the breaker, failure reopens it
	// with a doubled cooldown.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// BreakerConfig tunes one sync circuit breaker.
type BreakerConfig struct {
	// Threshold is the consecutive-failure count that opens the breaker.
	Threshold int
	// BaseCooldown seeds both the pre-threshold backoff (base·2^(n-1)
	// after the n-th consecutive failure) and the open-state cooldown,
	// which doubles on every failed half-open probe; MaxCooldown caps
	// both.
	BaseCooldown time.Duration
	MaxCooldown  time.Duration
	// Jitter spreads each wait uniformly over ±Jitter/2 of its nominal
	// value, decorrelating the retry schedules of many shards. 0 gets
	// the 0.2 default; negative disables jitter entirely (tests).
	Jitter float64
	// Seed makes the jitter schedule deterministic for tests; 0 derives
	// one from the wall clock.
	Seed int64
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = 5
	}
	if c.BaseCooldown <= 0 {
		c.BaseCooldown = 200 * time.Millisecond
	}
	if c.MaxCooldown <= 0 {
		c.MaxCooldown = 30 * time.Second
	}
	switch {
	case c.Jitter < 0:
		c.Jitter = 0
	case c.Jitter == 0:
		c.Jitter = 0.2
	case c.Jitter > 1:
		c.Jitter = 1
	}
	if c.Seed == 0 {
		c.Seed = time.Now().UnixNano()
	}
	return c
}

// BreakerStatus is a point-in-time view of one breaker: Follower.MaxLag
// reports it whole, and the xmatch_replica_breaker_* series export its
// state and opens.
type BreakerStatus struct {
	State               string  `json:"state"`
	ConsecutiveFailures int     `json:"consecutiveFailures,omitempty"`
	Opens               uint64  `json:"opens,omitempty"`
	RetryInMs           float64 `json:"retryInMs,omitempty"`
}

// Breaker is a circuit breaker with built-in exponential backoff: every
// failure imposes a jittered wait before the next attempt (doubling per
// consecutive failure), Threshold consecutive failures open the circuit,
// and an open circuit admits a single half-open probe per cooldown. All
// methods take explicit times so schedules are testable without sleeping;
// it is safe for concurrent use.
type Breaker struct {
	mu          sync.Mutex
	cfg         BreakerConfig
	rng         *rand.Rand
	state       BreakerState
	consecutive int
	opens       uint64
	cooldown    time.Duration // current open-state cooldown
	until       time.Time     // next attempt admitted at/after this time
}

// NewBreaker returns a closed breaker with the given configuration
// (zero-valued fields get defaults).
func NewBreaker(cfg BreakerConfig) *Breaker {
	cfg = cfg.withDefaults()
	return &Breaker{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Allow reports whether an attempt may proceed at time now. An open
// breaker whose cooldown has elapsed transitions to half-open and admits
// exactly that one probe.
func (b *Breaker) Allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerOpen:
		if now.Before(b.until) {
			return false
		}
		b.state = BreakerHalfOpen
		return true
	case BreakerHalfOpen:
		return false // the admitted probe has not reported yet
	default:
		return !now.Before(b.until)
	}
}

// Success reports a completed attempt: the breaker closes and every
// backoff resets.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = BreakerClosed
	b.consecutive = 0
	b.cooldown = 0
	b.until = time.Time{}
}

// Failure reports a failed attempt at time now, scheduling the next
// admission per the backoff/cooldown rules.
func (b *Breaker) Failure(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive++
	switch {
	case b.state == BreakerHalfOpen:
		// Failed probe: reopen with a doubled cooldown.
		b.state = BreakerOpen
		b.opens++
		b.cooldown = b.capped(2 * b.cooldown)
	case b.consecutive >= b.cfg.Threshold:
		if b.state != BreakerOpen {
			b.state = BreakerOpen
			b.opens++
			b.cooldown = b.cfg.BaseCooldown
		}
	default:
		// Below threshold: exponential backoff between attempts, still
		// nominally closed.
		b.until = now.Add(b.jittered(b.capped(b.cfg.BaseCooldown << (b.consecutive - 1))))
		return
	}
	b.until = now.Add(b.jittered(b.cooldown))
}

// Status returns the breaker's state as of time now.
func (b *Breaker) Status(now time.Time) BreakerStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := BreakerStatus{
		State:               b.state.String(),
		ConsecutiveFailures: b.consecutive,
		Opens:               b.opens,
	}
	if wait := b.until.Sub(now); wait > 0 {
		st.RetryInMs = float64(wait) / float64(time.Millisecond)
	}
	return st
}

// State returns the breaker's current position.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

func (b *Breaker) capped(d time.Duration) time.Duration {
	if d <= 0 || d > b.cfg.MaxCooldown {
		return b.cfg.MaxCooldown
	}
	return d
}

// jittered spreads d uniformly over ±Jitter/2 around its nominal value.
func (b *Breaker) jittered(d time.Duration) time.Duration {
	if b.cfg.Jitter <= 0 {
		return d
	}
	f := 1 - b.cfg.Jitter/2 + b.cfg.Jitter*b.rng.Float64()
	return time.Duration(float64(d) * f)
}
