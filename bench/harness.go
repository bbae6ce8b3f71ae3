package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"xmatch/internal/engine"
	"xmatch/internal/server"
	"xmatch/internal/store"
)

// digest identifies a response body: its length and CRC-32C. The check is
// made on every response, so it has to cost far less than producing the
// body; CRC-32C runs at memory speed on amd64 and arm64.
type digest struct {
	n   int
	crc uint32
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func digestOf(body []byte) digest {
	return digest{n: len(body), crc: crc32.Checksum(body, crcTable)}
}

// countingWriter is the http.ResponseWriter the handler writes into: it
// keeps the status, counts the bytes and folds them into a digest, and
// retains nothing.
type countingWriter struct {
	header http.Header
	code   int
	d      digest
}

func (w *countingWriter) Header() http.Header { return w.header }
func (w *countingWriter) WriteHeader(c int)   { w.code = c }
func (w *countingWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.d.n += len(p)
	w.d.crc = crc32.Update(w.d.crc, crcTable, p)
	return len(p), nil
}

func (w *countingWriter) reset() {
	clear(w.header)
	w.code = 0
	w.d = digest{}
}

// bodyReader is a reusable request body.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// instance is one built server plus what the caller needs to drive it
// in-process: the single closed-loop caller of the benchmark.
type instance struct {
	srv *server.Server
	dir string // edit-log directory, "" when the collection has none

	w        countingWriter
	body     bodyReader
	queryReq *http.Request
	mutReq   *http.Request
	batchReq *http.Request

	*counts
}

// counts tallies the ops a run sent and the ones that failed: a status
// other than 200, or a body other than the oracle's.
type counts struct {
	attempted int
	failed    int
}

// docSeed derives the served document's generator seed from the run seed.
func docSeed(seed int64) int64 { return 42 + seed }

// manifest is the catalog manifest xmatchd would build for the workload
// (xmatchd -datasets D7 -m 100 -doc N -shards S [-editlog-dir dir]).
func manifest(spec workloadSpec, seed int64) *store.Catalog {
	e := store.CatalogEntry{
		Name: datasetName, Dataset: datasetName, Mappings: numMappings,
		DocNodes: spec.docNodes, DocSeed: docSeed(seed), Shards: spec.shards, Tau: 0.2,
	}
	if spec.mutateEvery > 0 {
		e.EditLogPath = datasetName + ".editlog"
	}
	return &store.Catalog{Entries: []store.CatalogEntry{e}}
}

// quietLogger formats like xmatchd's logger does and discards the bytes:
// a slow-request line costs the same, the terminal stays readable.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// build is the program's own start-up path: the catalog loader xmatchd
// uses, handed to server.New with the daemon's default options. dir is
// the base directory of the edit logs (fsync off: the device's time is
// not the program's, see README).
func build(spec workloadSpec, seed int64, dir string, cnt *counts) (*instance, error) {
	man := manifest(spec, seed)
	srv, err := server.New(func() (*server.Catalog, error) {
		return server.BuildCatalogOpts(man, dir, engine.Options{CacheCapacity: engine.DefaultCacheCapacity}, server.CatalogOptions{NoFsync: true})
	}, server.Options{Logger: quietLogger()})
	if err != nil {
		return nil, err
	}
	in := &instance{srv: srv, dir: dir, w: countingWriter{header: make(http.Header)}, counts: cnt}
	for _, t := range []struct {
		req  **http.Request
		path string
	}{{&in.queryReq, "/v1/query"}, {&in.mutReq, "/v1/admin/mutate"}, {&in.batchReq, "/v1/batch"}} {
		r, err := http.NewRequest(http.MethodPost, t.path, nil)
		if err != nil {
			return nil, err
		}
		*t.req = r
	}
	return in, nil
}

// serve sends one request through the handler and returns the handler's
// latency. The response is left in in.w.
func (in *instance) serve(tmpl *http.Request, body []byte) time.Duration {
	in.w.reset()
	in.body.Reset(body)
	r := *tmpl // the handler derives its own copies; the template stays clean
	r.Body = &in.body
	r.ContentLength = int64(len(body))
	start := time.Now()
	in.srv.ServeHTTP(&in.w, &r)
	return time.Since(start)
}

// serveOp sends one op of a generated sequence through the handler.
func (in *instance) serveOp(inp *inputs, o op) time.Duration {
	if o.mutate {
		return in.serve(in.mutReq, inp.mutations[o.idx].body)
	}
	return in.serve(in.queryReq, inp.requests[o.idx].body)
}

// check accounts one served op: it fails unless the status is 200 and,
// when want is given, the body is the expected one.
func (in *instance) check(want *digest) bool {
	in.attempted++
	if in.w.code != http.StatusOK || (want != nil && in.w.d != *want) {
		in.failed++
		return false
	}
	return true
}

// checkOp is check for one op of a generated sequence: a query is compared
// with its request's entry in expect, unless expect is nil (bodies change
// under mutation and cannot be known beforehand); a mutation must answer
// 200.
func (in *instance) checkOp(o op, expect []digest) {
	if o.mutate || expect == nil {
		in.check(nil)
		return
	}
	in.check(&expect[o.idx])
}

// newRunDir makes a fresh scratch directory (edit logs, probe files) under
// bench/out/tmp, inside the checkout.
func newRunDir() (string, error) {
	root := filepath.Join(outDir(), "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "run-")
}

// outDir is where the benchmark writes: edit logs, result documents and
// the trace. It sits inside the benchmark's own directory.
func outDir() string { return filepath.Join("bench", "out") }

func (in *instance) close() error {
	err := in.srv.Close()
	if in.dir != "" {
		if rerr := os.RemoveAll(in.dir); err == nil {
			err = rerr
		}
	}
	if err != nil {
		return fmt.Errorf("closing instance: %w", err)
	}
	return nil
}
