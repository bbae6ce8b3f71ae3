package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"xmatch/internal/core"
	"xmatch/internal/obs"
	"xmatch/internal/store"
)

// Workload intelligence: the server keys every /v1/query by its
// fingerprint (engine.FingerprintPattern over the prepared query's
// canonical pattern), keeps windowed per-fingerprint accounting for
// /v1/debug/workload and /metricsz, and — when capture is enabled —
// appends a sampled record of each request to a disk-budgeted binary log
// that `xmatch workload replay` re-runs and byte-diffs. Batch queries
// are deliberately out of scope: a batch is a transport optimization,
// and its member queries would need per-member latency attribution the
// engine's fan-out does not expose; the query endpoint is where the
// workload's shape lives.

// fpStat is one fingerprint's accounting. Counters are guarded by the
// owning workloadStats mutex; the latency histogram has its own.
type fpStat struct {
	fingerprint uint64
	dataset     string
	pattern     string // canonical rendering
	mode        string
	k           int

	requests    uint64
	prepareHits uint64 // prepared-query cache hits
	resultItems uint64 // sum of len(results), for the mean result size
	lastEpoch   uint64
	lat         *obs.Windowed
}

// workloadStats is the bounded per-fingerprint table. Past the cap the
// fingerprint with the fewest requests is evicted — the table keeps the
// head of the workload distribution, which for the skewed workloads the
// paper's Table III models is the part worth watching.
type workloadStats struct {
	mu      sync.Mutex
	byFP    map[uint64]*fpStat
	cap     int
	window  time.Duration
	evicted uint64
}

func newWorkloadStats(cap int, window time.Duration) *workloadStats {
	if cap < 1 {
		cap = 1
	}
	return &workloadStats{byFP: make(map[uint64]*fpStat), cap: cap, window: window}
}

func (ws *workloadStats) record(fp uint64, dataset, pattern, mode string, k int, prepareHit bool, results int, epoch uint64, latency time.Duration) {
	ws.mu.Lock()
	st := ws.byFP[fp]
	if st == nil {
		if len(ws.byFP) >= ws.cap {
			ws.evictLocked()
		}
		st = &fpStat{
			fingerprint: fp,
			dataset:     dataset,
			pattern:     pattern,
			mode:        mode,
			k:           k,
			lat:         obs.NewWindowed(nil, ws.window, windowSlots),
		}
		ws.byFP[fp] = st
	}
	st.requests++
	if prepareHit {
		st.prepareHits++
	}
	st.resultItems += uint64(results)
	if epoch > st.lastEpoch {
		st.lastEpoch = epoch
	}
	lat := st.lat
	ws.mu.Unlock()
	lat.Observe(latency)
}

// evictLocked drops the rarest fingerprint to make room for a new one.
func (ws *workloadStats) evictLocked() {
	var victim uint64
	min := ^uint64(0)
	for fp, st := range ws.byFP {
		if st.requests < min {
			min = st.requests
			victim = fp
		}
	}
	delete(ws.byFP, victim)
	ws.evicted++
}

// WorkloadEntry is one fingerprint's row in the /v1/debug/workload
// payload, hottest first. Quantiles are over the sliding window; the
// counters are lifetime (since the fingerprint entered the table).
type WorkloadEntry struct {
	Fingerprint string  `json:"fingerprint"` // %016x
	Dataset     string  `json:"dataset"`
	Pattern     string  `json:"pattern"`
	Mode        string  `json:"mode"`
	K           int     `json:"k,omitempty"`
	Requests    uint64  `json:"requests"`
	PrepareHits uint64  `json:"prepareHits"`
	AvgResults  float64 `json:"avgResults"`
	LastEpoch   uint64  `json:"lastEpoch"`

	WindowRequests uint64  `json:"windowRequests"`
	P50Ms          float64 `json:"p50Ms"`
	P95Ms          float64 `json:"p95Ms"`
	P99Ms          float64 `json:"p99Ms"`
}

// top returns the n hottest fingerprints by lifetime request count. The
// counters are copied under the mutex — sorting and windowed-quantile
// work (which takes each histogram's own lock) runs on the snapshots, so
// a scrape never holds up the query path.
func (ws *workloadStats) top(n int) []WorkloadEntry {
	ws.mu.Lock()
	stats := make([]fpStat, 0, len(ws.byFP))
	for _, st := range ws.byFP {
		stats = append(stats, *st)
	}
	ws.mu.Unlock()
	sort.Slice(stats, func(i, j int) bool {
		if stats[i].requests != stats[j].requests {
			return stats[i].requests > stats[j].requests
		}
		return stats[i].fingerprint < stats[j].fingerprint
	})
	if n > 0 && len(stats) > n {
		stats = stats[:n]
	}
	out := make([]WorkloadEntry, len(stats))
	for i, st := range stats {
		win := st.lat.Window()
		// record counts a request before it observes its latency, so
		// counters re-read after the window can never trail it (a copy made
		// before could: requests keep landing between the two reads).
		ws.mu.Lock()
		if live := ws.byFP[st.fingerprint]; live != nil && live.lat == st.lat {
			st = *live
		}
		ws.mu.Unlock()
		e := WorkloadEntry{
			Fingerprint:    fmt.Sprintf("%016x", st.fingerprint),
			Dataset:        st.dataset,
			Pattern:        st.pattern,
			Mode:           st.mode,
			K:              st.k,
			Requests:       st.requests,
			PrepareHits:    st.prepareHits,
			LastEpoch:      st.lastEpoch,
			WindowRequests: win.Count,
			P50Ms:          win.Quantile(0.50),
			P95Ms:          win.Quantile(0.95),
			P99Ms:          win.Quantile(0.99),
		}
		if st.requests > 0 {
			e.AvgResults = float64(st.resultItems) / float64(st.requests)
		}
		out[i] = e
	}
	return out
}

// size reports (tracked fingerprints, evictions) for the metrics
// collector.
func (ws *workloadStats) size() (int, uint64) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return len(ws.byFP), ws.evicted
}

// WorkloadDebug is the /v1/debug/workload payload.
type WorkloadDebug struct {
	Fingerprints int             `json:"fingerprints"`
	Evicted      uint64          `json:"evicted"`
	Capture      *CaptureStatus  `json:"capture,omitempty"`
	Entries      []WorkloadEntry `json:"entries"`
}

func (s *Server) handleDebugWorkload(w http.ResponseWriter, r *http.Request) {
	n := 20
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 {
			s.fail(w, http.StatusBadRequest, "bad n %q", v)
			return
		}
		n = parsed
	}
	tracked, evicted := s.workload.size()
	body := WorkloadDebug{
		Fingerprints: tracked,
		Evicted:      evicted,
		Entries:      s.workload.top(n),
	}
	if s.capture != nil {
		st := s.capture.status()
		body.Capture = &st
	}
	writeJSON(w, http.StatusOK, body)
}

// CaptureStatus describes the capture log's progress.
type CaptureStatus struct {
	Path         string `json:"path"`
	SampleN      int    `json:"sampleN"`
	Records      uint64 `json:"records"`
	BytesWritten int64  `json:"bytesWritten"`
	BudgetBytes  int64  `json:"budgetBytes"`
	SampledOut   uint64 `json:"sampledOut"`
	DroppedOver  uint64 `json:"droppedOverBudget"`
	// Disabled is set after a write error permanently stopped the log.
	Disabled bool `json:"disabled,omitempty"`
}

// captureLog appends sampled workload records to a store-framed file.
// All state lives under one mutex — an append is a short buffered write,
// and captures are sampled, so the serialization is not a hot lock.
type captureLog struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	sampleN int
	budget  int64
	written int64

	seq        uint64 // requests offered, sampled or not
	records    uint64
	sampledOut uint64
	dropped    uint64 // over budget

	logger *slog.Logger
}

func newCaptureLog(path string, sampleN int, budget int64, logger *slog.Logger) (*captureLog, error) {
	if sampleN < 1 {
		sampleN = 1
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if err := store.CreateWorkload(f, sampleN); err != nil {
		f.Close()
		return nil, err
	}
	off, err := f.Seek(0, 2)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &captureLog{
		f:       f,
		path:    path,
		sampleN: sampleN,
		budget:  budget,
		written: off,
		logger:  logger,
	}, nil
}

// sample counts one offered request and reports whether the log wants its
// record: it is one of the 1-in-N the log keeps and the file still has
// budget. Deciding first lets a request that will not be logged skip its
// result digest, and lets one that will compute it before record takes the
// mutex. Nil-safe: capture disabled means a nil *captureLog.
func (c *captureLog) sample() bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	if c.sampleN > 1 && (c.seq-1)%uint64(c.sampleN) != 0 {
		c.sampledOut++
		return false
	}
	if c.f == nil {
		return false
	}
	if c.written >= c.budget {
		if c.dropped == 0 {
			c.logger.Warn("workload capture budget exhausted; further records dropped",
				"path", c.path, "budgetBytes", c.budget, "records", c.records)
		}
		c.dropped++
		return false
	}
	return true
}

// record appends the record of a request sample accepted. Requests sampled
// concurrently may each append, so the file can pass its budget by a few
// records.
func (c *captureLog) record(rec store.WorkloadRecord) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return
	}
	n, err := store.AppendWorkloadRecord(c.f, rec)
	c.written += int64(n)
	if err != nil {
		c.logger.Error("workload capture write failed; capture disabled", "path", c.path, "err", err)
		c.f.Close()
		c.f = nil
		return
	}
	c.records++
}

func (c *captureLog) status() CaptureStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CaptureStatus{
		Path:         c.path,
		SampleN:      c.sampleN,
		Records:      c.records,
		BytesWritten: c.written,
		BudgetBytes:  c.budget,
		SampledOut:   c.sampledOut,
		DroppedOver:  c.dropped,
		Disabled:     c.f == nil,
	}
}

func (c *captureLog) close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	err := c.f.Close()
	c.f = nil
	return err
}

// DigestResults is the canonical hash of a query response's payload: FNV-64a
// over the JSON encodings of the wire results and answers. Both the capture
// path (hashing structs about to be marshaled) and the replay paths (hashing
// structs just unmarshaled) go through this one function, and encoding/json
// round-trips these types byte-stably (shortest-form floats, ordered
// structs), so equal digests mean byte-equal payloads.
func DigestResults(results []core.WireResult, answers []core.WireAnswer) uint64 {
	h := fnv.New64a()
	enc := json.NewEncoder(h)
	// Encoding []WireResult / []WireAnswer cannot fail.
	_ = enc.Encode(results)
	_ = enc.Encode(answers)
	return h.Sum64()
}

// ReplayRunner re-runs one captured record and returns the digest of the
// response it observed.
type ReplayRunner func(rec store.WorkloadRecord) (uint64, error)

// ReplayDiff is one record whose replay did not reproduce the captured
// digest (or failed outright).
type ReplayDiff struct {
	Index       int    `json:"index"`
	Fingerprint string `json:"fingerprint"`
	Dataset     string `json:"dataset"`
	Pattern     string `json:"pattern"`
	Mode        string `json:"mode"`
	K           int    `json:"k,omitempty"`
	Want        string `json:"want"` // captured digest, %016x
	Got         string `json:"got,omitempty"`
	Err         string `json:"err,omitempty"`
}

// ReplayReport summarizes a workload replay.
type ReplayReport struct {
	Total   int          `json:"total"`
	Matched int          `json:"matched"`
	Diffs   []ReplayDiff `json:"diffs,omitempty"`
}

// ReplayWorkload re-runs every captured record through the runner and
// byte-diffs the result digests. A replay is meaningful against a state
// at least at each record's epoch: runners pass the captured epoch as
// min_epoch, so a lagging target waits (or 412s, surfacing as a diff)
// rather than silently diffing against stale state.
func ReplayWorkload(recs []store.WorkloadRecord, run ReplayRunner) ReplayReport {
	rep := ReplayReport{Total: len(recs)}
	for i, rec := range recs {
		got, err := run(rec)
		if err == nil && got == rec.Digest {
			rep.Matched++
			continue
		}
		diff := ReplayDiff{
			Index:       i,
			Fingerprint: fmt.Sprintf("%016x", rec.Fingerprint),
			Dataset:     rec.Dataset,
			Pattern:     rec.Pattern,
			Mode:        rec.Mode,
			K:           rec.K,
			Want:        fmt.Sprintf("%016x", rec.Digest),
		}
		if err != nil {
			diff.Err = err.Error()
		} else {
			diff.Got = fmt.Sprintf("%016x", got)
		}
		rep.Diffs = append(rep.Diffs, diff)
	}
	return rep
}

// replayRequest is the query a captured record replays as.
func replayRequest(rec store.WorkloadRecord) QueryRequest {
	return QueryRequest{
		Dataset:  rec.Dataset,
		Pattern:  rec.Pattern,
		Mode:     rec.Mode,
		K:        rec.K,
		MinEpoch: rec.Epoch,
	}
}

// digestResponse decodes a query response body and digests its payload
// exactly as the serving path did.
func digestResponse(body []byte) (uint64, error) {
	var resp QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, fmt.Errorf("decode response: %w", err)
	}
	return DigestResults(resp.Results, resp.Answers), nil
}

// HandlerReplayRunner replays records through an in-process handler
// (normally a *Server): the request travels the full HTTP path — mux,
// middleware, JSON round-trip — so a local replay exercises exactly what
// a remote one does, minus the socket.
func HandlerReplayRunner(h http.Handler) ReplayRunner {
	return func(rec store.WorkloadRecord) (uint64, error) {
		body, err := json.Marshal(replayRequest(rec))
		if err != nil {
			return 0, err
		}
		r := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
		r.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			return 0, fmt.Errorf("status %d: %s", w.Code, bytes.TrimSpace(w.Body.Bytes()))
		}
		return digestResponse(w.Body.Bytes())
	}
}

// RemoteReplayRunner replays records against a live daemon at base
// (e.g. "http://localhost:8080"). client nil means http.DefaultClient.
func RemoteReplayRunner(base string, client *http.Client) ReplayRunner {
	if client == nil {
		client = http.DefaultClient
	}
	return func(rec store.WorkloadRecord) (uint64, error) {
		body, err := json.Marshal(replayRequest(rec))
		if err != nil {
			return 0, err
		}
		resp, err := client.Post(base+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			return 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
		}
		return digestResponse(buf.Bytes())
	}
}
