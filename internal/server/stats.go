package server

import (
	"sync/atomic"
	"time"

	"xmatch/internal/obs"
)

// serverStats aggregates the daemon's operational counters. The collectors
// on the metrics registry read them at scrape time; /metricsz renders that
// registry as text and /statsz as JSON, so nothing here has a second
// reader.
type serverStats struct {
	start    time.Time
	inFlight atomic.Int64
	reloads  atomic.Uint64
	edits    atomic.Uint64
	errors   atomic.Uint64
	// timeouts counts 503s from fired request deadlines (or clients that
	// went away mid-request); shed counts 429s from the admission gate;
	// panics counts handler panics converted into 500s.
	timeouts atomic.Uint64
	shed     atomic.Uint64
	panics   atomic.Uint64

	// endpoints are the timed endpoints in declaration order; query is the
	// first of them, the one the SLO reads.
	endpoints []*endpoint
	query     *endpoint
}

// endpoint is one timed endpoint's accounting. Each is declared once (in
// New) and read from there: timed counts and times its requests,
// collectServer exports it, and the SLO reads the query endpoint's window.
type endpoint struct {
	name     string
	requests atomic.Uint64
	// lat is windowed: the embedded Histogram keeps the cumulative totals
	// /metricsz exposes, while Window() gives the sliding view the SLO
	// burn rate and the windowed quantile gauges read.
	lat *obs.Windowed
}

// windowSlots is the ring resolution of every windowed histogram: the
// window ages out in window/windowSlots steps, so a 5m window advances
// every 50s — coarse enough to stay cheap, fine enough that the burn
// rate reacts within a minute.
const windowSlots = 6

// declare adds a timed endpoint whose latency window spans window.
func (st *serverStats) declare(name string, window time.Duration) *endpoint {
	ep := &endpoint{name: name, lat: obs.NewWindowed(nil, window, windowSlots)}
	st.endpoints = append(st.endpoints, ep)
	return ep
}
