// Package xmatch reproduces "Managing Uncertainty of XML Schema Matching"
// (Cheng, Gong, Cheung, ICDE 2010) as a Go library: possible-mapping
// generation from scored schema matchings (Murty ranking and the paper's
// partition-based divide-and-conquer), the block-tree compact
// representation of possible mappings, and probabilistic twig query (PTQ)
// evaluation, including top-k PTQ.
//
// The implementation lives under internal/ (see DESIGN.md for the module
// map and the engine architecture); internal/engine runs the compiled
// evaluation plans of internal/core in a concurrent engine — shards and
// batch members on one worker pool, prepared-query cache, per-request Sub
// views — that returns byte-identical results at any worker count.
// cmd/experiments regenerates every table and figure of the paper's
// evaluation, and bench_test.go in this package provides testing.B
// benchmarks mirroring each experiment.
//
// The xmatchd daemon (cmd/xmatchd over internal/server) serves a
// multi-tenant catalog of prepared datasets over HTTP/JSON:
//
//	xmatchd -datasets D1,D7                # serve built-in workloads
//	curl -s localhost:8777/v1/query \
//	  -d '{"dataset":"D7","pattern":"Order//EMail","mode":"topk","k":5}'
//	xmatch query -remote http://localhost:8777 -d D7 -q 'Order//EMail'
//
// Catalogs load from store manifests (xmatchd -manifest catalog.xm,
// authored with -write-manifest) or built-in dataset IDs, hot-reload via
// POST /v1/admin/reload, and expose health at /healthz and every metric
// at /metricsz (Prometheus text) and /statsz (the same series as JSON).
// Every response's results decode byte-identically to sequential
// internal/core evaluation — the engine's differential guarantee holds
// over the wire.
package xmatch
