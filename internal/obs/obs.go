// Package obs is xmatch's dependency-free observability substrate:
//
//   - a metrics surface — scrape-time collectors emitting counters,
//     gauges, and fixed-bucket histograms through a Registry that renders
//     the Prometheus text exposition format (/metricsz). Hot paths keep
//     their plain atomic counters; the registry only reads them when
//     scraped, so instrumentation costs nothing between scrapes;
//   - a request-scoped span recorder (Trace), handed to whatever records
//     into it, with a bounded, tail-sampled slow-trace ring buffer
//     (TraceLog) behind /v1/debug/traces. A trace is one allocation for
//     the usual request, spawns no goroutines, and caps its span count,
//     so a runaway request cannot grow one without bound;
//   - structured-logging setup (NewLogger) over log/slog, with process-
//     unique request IDs (RequestID) correlating log lines to traces;
//   - an exposition-format parser (ParseExposition) that validates
//     /metricsz output against the text grammar — the CI lint uses it so
//     a malformed metric line fails a unit test, not a scrape in
//     production.
//
// The package deliberately depends on the standard library only, so every
// layer of the system (server, engine, index, delta, replica) can
// register metrics without import cycles or new dependencies.
package obs
