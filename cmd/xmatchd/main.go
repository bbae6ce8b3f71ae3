// Command xmatchd is the PTQ serving daemon: a long-running HTTP/JSON
// server that owns a multi-tenant catalog of prepared datasets (mapping set
// + document + block tree + per-dataset engine) and answers probabilistic
// twig queries over them.
//
// Usage:
//
//	xmatchd -datasets D1,D7                      # serve built-in workloads
//	xmatchd -manifest catalog.xm                 # serve a store catalog manifest
//	xmatchd -datasets D7 -write-manifest c.xm    # author a manifest and exit
//	xmatchd -follow http://primary:8777          # read replica of a primary
//
// Endpoints: POST /v1/query, POST /v1/batch, GET /v1/datasets, GET
// /healthz, GET /readyz (503 while draining for shutdown), GET /metricsz
// (Prometheus text exposition), GET /statsz (the same series as JSON), GET
// /v1/debug/traces (tail-sampled slow-query traces), POST /v1/admin/reload
// (rebuilds the catalog from the manifest — edit the file, hit the
// endpoint, no restart), POST /v1/admin/mutate, POST /v1/admin/checkpoint
// (compacts each durable shard's edit log into a checkpoint blob), and the
// replication surface (/v1/replicate/{manifest,stream,checkpoint}) a
// follower consumes.
//
// A follower (-follow) fetches the primary's manifest, rebuilds the same
// catalog locally, then tails each shard's edit log over HTTP — replaying
// records through the same delta path the primary used, so replica state
// is byte-identical at every epoch. When the primary has compacted the
// history away, the follower bootstraps from a checkpoint blob instead.
// Followers are read-only (admin endpoints answer 403), report per-shard
// replication lag as xmatch_replica_* series, and degrade /healthz (503)
// when the worst shard falls more than -max-lag epochs behind.
//
// Logs are structured (log/slog): -log-format picks text or json,
// -log-level the floor. Slow requests log with the same request ID the
// X-Request-Id response header and /v1/debug/traces carry. -debug-addr
// starts a second listener serving net/http/pprof (off by default).
//
// Workload intelligence: every query is fingerprinted (canonical pattern
// + mode + k + dataset) and accounted per fingerprint; GET
// /v1/debug/workload serves the hottest fingerprints with sliding-window
// latency quantiles. -slo-target sets a query latency SLO: /metricsz
// gains burn-rate gauges and /healthz reports "degraded" detail while
// the error budget burns faster than it accrues (-slo-objective,
// -slo-window tune it). -capture appends a sampled (-capture-sample),
// disk-budgeted (-capture-budget) binary log of served queries that
// `xmatch workload replay` re-runs
// against a daemon or a local catalog and byte-diffs.
//
// Query it with curl or the bundled client:
//
//	curl -s localhost:8777/v1/query -d '{"dataset":"D7","pattern":"Order/DeliverTo/Contact/EMail","k":5,"mode":"topk"}'
//	xmatch query -remote http://localhost:8777 -d D7 -q 'Order//EMail'
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served only on -debug-addr
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"xmatch/internal/engine"
	"xmatch/internal/obs"
	"xmatch/internal/replica"
	"xmatch/internal/server"
	"xmatch/internal/store"
)

// config carries every flag the daemon parses.
type config struct {
	addr           string
	manifest       string
	datasets       string
	mappings       int
	docNodes       int
	docSeed        int64
	shards         int
	tau            float64
	workers        int
	cache          int
	editlogDir     string
	fsync          bool
	follow         string
	followInterval time.Duration
	writeManifest  string
	logFormat      string
	logLevel       string
	debugAddr      string
	traceThreshold time.Duration
	maxLag         int64
	sloTarget      time.Duration
	sloObjective   float64
	sloWindow      time.Duration
	capture        string
	captureSample  int
	captureBudget  int64
	queryTimeout   time.Duration
	maxInflight    int
	maxQueue       int
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8777", "listen address")
	flag.StringVar(&cfg.manifest, "manifest", "", "store catalog manifest to serve (overrides -datasets)")
	flag.StringVar(&cfg.datasets, "datasets", "D7", "comma-separated built-in dataset IDs to serve")
	flag.IntVar(&cfg.mappings, "m", server.DefaultMappings, "possible mappings per built-in dataset")
	flag.IntVar(&cfg.docNodes, "doc", server.DefaultDocNodes, "document size per built-in dataset")
	flag.Int64Var(&cfg.docSeed, "seed", 42, "document generator seed")
	flag.IntVar(&cfg.shards, "shards", 1, "member documents per built-in dataset (-doc nodes total across them); >1 serves a scatter-gather collection")
	flag.Float64Var(&cfg.tau, "tau", 0.2, "block-tree confidence threshold")
	flag.IntVar(&cfg.workers, "workers", 0, "worker-pool size per dataset engine (0 = all cores)")
	flag.IntVar(&cfg.cache, "cache", engine.DefaultCacheCapacity, "prepared-query cache capacity per dataset")
	flag.StringVar(&cfg.editlogDir, "editlog-dir", "", "persist /v1/admin/mutate batches per built-in dataset as <dir>/<name>.editlog, replayed on start and reload (built-in -datasets mode only; manifests carry their own EditLogPath)")
	flag.BoolVar(&cfg.fsync, "fsync", true, "fsync durable edit-log appends before acknowledging a mutation; -fsync=false trades crash durability of the latest batches for write latency")
	flag.StringVar(&cfg.follow, "follow", "", "run as a read replica of the primary at this base URL (e.g. http://primary:8777): fetch its manifest, replay its edit logs, bootstrap from its checkpoints; local admin endpoints become read-only")
	flag.DurationVar(&cfg.followInterval, "follow-interval", 500*time.Millisecond, "poll interval between replication sync rounds in -follow mode")
	flag.StringVar(&cfg.writeManifest, "write-manifest", "", "write the built-in -datasets selection as a manifest file and exit")
	flag.StringVar(&cfg.logFormat, "log-format", "text", "structured log encoding: text or json")
	flag.StringVar(&cfg.logLevel, "log-level", "info", "minimum log level: debug, info, warn, or error")
	flag.StringVar(&cfg.debugAddr, "debug-addr", "", "serve net/http/pprof on a separate listener at this address (empty = off)")
	flag.DurationVar(&cfg.traceThreshold, "trace-threshold", 100*time.Millisecond, "retain a request's trace on /v1/debug/traces when its latency reaches this threshold; 0 retains every trace, negative disables retention")
	flag.Int64Var(&cfg.maxLag, "max-lag", 1000, "in -follow mode, epochs behind the primary (worst shard) before /healthz reports degraded; negative disables the check")
	flag.DurationVar(&cfg.sloTarget, "slo-target", 0, "query latency SLO target (e.g. 50ms): /metricsz exposes the error-budget burn rate and /healthz degrades while the budget burns hot; 0 disables")
	flag.Float64Var(&cfg.sloObjective, "slo-objective", 0.99, "fraction of queries that must meet -slo-target, strictly between 0 and 1")
	flag.DurationVar(&cfg.sloWindow, "slo-window", 5*time.Minute, "sliding window behind the SLO burn rate and windowed latency quantiles")
	flag.StringVar(&cfg.capture, "capture", "", "append a sampled binary log of served queries (fingerprint, pattern, epoch, latency, result digest) to this file for `xmatch workload replay`; truncated at start, empty disables")
	flag.IntVar(&cfg.captureSample, "capture-sample", 1, "capture 1 in N queries")
	flag.Int64Var(&cfg.captureBudget, "capture-budget", 64<<20, "stop capturing once the file reaches this many bytes")
	flag.DurationVar(&cfg.queryTimeout, "query-timeout", 30*time.Second, "request deadline for every /v1 endpoint; a request's timeout_ms may tighten but never exceed it; expired requests answer 503; negative disables")
	flag.IntVar(&cfg.maxInflight, "max-inflight", 0, "concurrently evaluating query/batch requests before new ones queue (0 = 4x GOMAXPROCS, negative disables admission control)")
	flag.IntVar(&cfg.maxQueue, "max-queue", 0, "requests allowed to wait for an admission slot before the server sheds with 429 (0 = 2x -max-inflight)")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "xmatchd:", err)
		os.Exit(1)
	}
}

// builtinManifest assembles a manifest from a comma-separated ID list.
// With editlog set, each entry persists its mutations to <name>.editlog
// (resolved against the loader's base directory).
func builtinManifest(cfg config) (*store.Catalog, error) {
	var man store.Catalog
	for _, id := range strings.Split(cfg.datasets, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		e := store.CatalogEntry{
			Name: id, Dataset: id, Mappings: cfg.mappings,
			DocNodes: cfg.docNodes, DocSeed: cfg.docSeed, Shards: cfg.shards, Tau: cfg.tau,
		}
		if cfg.editlogDir != "" {
			e.EditLogPath = id + ".editlog"
		}
		man.Entries = append(man.Entries, e)
	}
	if err := man.Validate(); err != nil {
		return nil, err
	}
	return &man, nil
}

func run(cfg config) error {
	logger, err := obs.NewLogger(cfg.logFormat, cfg.logLevel, os.Stderr)
	if err != nil {
		return err
	}
	slog.SetDefault(logger)

	eopts := engine.Options{Workers: cfg.workers, CacheCapacity: cfg.cache}

	if cfg.editlogDir != "" {
		// Create it up front: the daemon starts fine against a missing
		// directory (no logs yet = pristine datasets), but the first
		// mutation's append would fail with a confusing 500.
		if err := os.MkdirAll(cfg.editlogDir, 0o755); err != nil {
			return fmt.Errorf("creating -editlog-dir: %w", err)
		}
	}

	// loadManifest re-reads the manifest source on every call, so a reload
	// after editing the manifest file picks up the changes.
	loadManifest := func() (*store.Catalog, string, error) {
		if cfg.manifest == "" {
			man, err := builtinManifest(cfg)
			baseDir := "."
			if cfg.editlogDir != "" {
				baseDir = cfg.editlogDir
			}
			return man, baseDir, err
		}
		f, err := os.Open(cfg.manifest)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		man, err := store.LoadCatalog(f)
		if err != nil {
			return nil, "", fmt.Errorf("manifest %s: %w", cfg.manifest, err)
		}
		return man, filepath.Dir(cfg.manifest), nil
	}

	if cfg.writeManifest != "" {
		man, err := builtinManifest(cfg)
		if err != nil {
			return err
		}
		f, err := os.Create(cfg.writeManifest)
		if err != nil {
			return err
		}
		if err := store.SaveCatalog(f, man); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote manifest with %d dataset(s) to %s\n", len(man.Entries), cfg.writeManifest)
		return nil
	}

	copts := server.CatalogOptions{NoFsync: !cfg.fsync}
	loader := func() (*server.Catalog, error) {
		man, baseDir, err := loadManifest()
		if err != nil {
			return nil, err
		}
		return server.BuildCatalogOpts(man, baseDir, eopts, copts)
	}

	traceThreshold := cfg.traceThreshold
	if traceThreshold == 0 {
		// The flag's 0 means "retain every trace"; the Options zero value
		// means "server default", so express retain-all as the smallest
		// positive threshold.
		traceThreshold = time.Nanosecond
	}
	sopts := server.Options{
		TraceThreshold:     traceThreshold,
		MaxLagEpochs:       cfg.maxLag,
		Logger:             logger,
		SLOTarget:          cfg.sloTarget,
		SLOObjective:       cfg.sloObjective,
		SLOWindow:          cfg.sloWindow,
		CapturePath:        cfg.capture,
		CaptureSampleN:     cfg.captureSample,
		CaptureBudgetBytes: cfg.captureBudget,
		QueryTimeout:       cfg.queryTimeout,
		MaxInflight:        cfg.maxInflight,
		MaxQueue:           cfg.maxQueue,
	}
	if cfg.queryTimeout == 0 {
		// The flag's explicit 0 means "no deadline"; the Options zero value
		// means "server default", so express disabled as negative.
		sopts.QueryTimeout = -1
	}

	start := time.Now()
	var srv *server.Server
	if cfg.follow != "" {
		// Replica mode: the catalog comes from the primary's manifest, the
		// state from its edit logs and checkpoints. The sync loop runs for
		// the life of the process.
		var f *replica.Follower
		srv, f, err = server.NewFollower(cfg.follow, server.FollowerOptions{
			Server: sopts,
			Engine: eopts,
		})
		if err != nil {
			return fmt.Errorf("following %s: %w", cfg.follow, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go f.Run(ctx, cfg.followInterval)
		logger.Info("following primary", "primary", cfg.follow, "interval", cfg.followInterval.String())
	} else {
		sopts.Manifest = func() (*store.Catalog, error) {
			man, _, merr := loadManifest()
			return man, merr
		}
		srv, err = server.New(loader, sopts)
	}
	if err != nil {
		return err
	}
	for _, d := range srv.Catalog().Datasets() {
		var nodes, idxBytes int
		var epoch uint64
		var build time.Duration
		for _, sh := range d.Shards() {
			snap := sh.Live.Snapshot()
			xs := snap.Index.Stats()
			nodes += snap.Doc.Len()
			idxBytes += xs.ResidentBytes
			build += xs.BuildTime
			if snap.Epoch > epoch {
				epoch = snap.Epoch
			}
		}
		logger.Info("dataset ready",
			"dataset", d.Name,
			"mappings", d.Set.Len(),
			"shards", d.NumShards(),
			"docNodes", nodes,
			"epoch", epoch,
			"blocks", d.Tree.Stats().NumBlocks,
			"indexBytes", idxBytes,
			"buildMs", float64(build.Microseconds())/1e3)
	}
	logger.Info("catalog ready", "elapsed", time.Since(start).Round(time.Millisecond).String())
	if cfg.capture != "" {
		logger.Info("workload capture enabled", "path", cfg.capture, "sample", cfg.captureSample, "budgetBytes", cfg.captureBudget)
	}

	if cfg.debugAddr != "" {
		// pprof rides a separate listener so profiling exposure is an
		// explicit deployment decision, never implied by the serving port.
		dbg := &http.Server{Addr: cfg.debugAddr, Handler: http.DefaultServeMux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			logger.Info("debug listener (pprof)", "addr", cfg.debugAddr)
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("debug listener failed", "err", err)
			}
		}()
	}

	logger.Info("listening", "addr", cfg.addr)
	hs := &http.Server{Addr: cfg.addr, Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-stop:
		logger.Info("shutting down", "signal", sig.String())
		// Flip /readyz to 503 before closing the listener: load balancers
		// probing readiness stop routing here while Shutdown drains the
		// requests already in flight.
		srv.SetReady(false)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		// Closing the server closes the workload capture.
		if cerr := srv.Close(); err == nil {
			err = cerr
		}
		return err
	}
}
