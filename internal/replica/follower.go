package replica

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"xmatch/internal/delta"
	"xmatch/internal/obs"
)

// Target is the local state one follower shard drives: the live handle
// edits replay through and the (memory-only) shard log that retains the
// replayed records, which lets a follower itself be streamed from and
// feeds its lag accounting.
type Target struct {
	Handle *delta.Handle
	Log    *ShardLog
}

// Lag is one shard's replication lag as of its last sync attempt.
type Lag struct {
	// PrimaryEpoch is the primary's epoch as of the last successful
	// stream response; LocalEpoch is this follower's current epoch.
	PrimaryEpoch uint64 `json:"primaryEpoch"`
	LocalEpoch   uint64 `json:"localEpoch"`
	// EpochsBehind and BytesPending measure the gap the last stream
	// response revealed: how many epochs the follower still had to apply
	// and the wire bytes it fetched to close them. Zero when caught up.
	EpochsBehind uint64 `json:"epochsBehind"`
	BytesPending int64  `json:"bytesPending"`
	// Bootstraps counts checkpoint bootstraps (history compacted away);
	// SyncErrors counts failed sync attempts; LastError keeps the most
	// recent failure's message.
	Bootstraps uint64 `json:"bootstraps,omitempty"`
	SyncErrors uint64 `json:"syncErrors,omitempty"`
	LastError  string `json:"lastError,omitempty"`
	// Breaker is the shard's sync circuit breaker as of the read —
	// "closed" / "open" / "half-open", with its failure streak, cumulative
	// opens, and the wait until the next admitted attempt. Populated by
	// MaxLag, not stored.
	Breaker *BreakerStatus `json:"breaker,omitempty"`
}

// Follower replays a primary's edit streams onto local handles. One
// follower serves a whole catalog: SetTargets registers each dataset's
// shards, Sync pulls one dataset level with the primary, SyncAll sweeps
// the catalog, Run sweeps on an interval. Sync passes are serialized
// internally — two concurrent pulls of the same shard would double-apply
// records.
type Follower struct {
	client *Client

	// Observe, when set, is called after every replay that applied at
	// least one record — the hook the server uses to emit replication
	// spans and per-shard replay metrics. Set before Run starts; it may
	// be called from the sync goroutine only.
	Observe func(dataset string, shard int, records int, took time.Duration)

	// Logger receives sync-failure log lines; nil falls back to
	// slog.Default(). Set before Run starts.
	Logger *slog.Logger

	// BreakerConfig tunes the per-shard sync circuit breakers (zero
	// values get defaults). Set before the first Sync; breakers are
	// created lazily per shard with whatever the field holds then.
	BreakerConfig BreakerConfig

	mu      sync.Mutex // serializes sync passes
	targets map[string][]*Target

	bkMu     sync.Mutex
	breakers map[string][]*Breaker

	lagMu sync.Mutex
	lag   map[string][]Lag

	replayed  atomic.Uint64 // records replayed
	replayLat *obs.Histogram
}

// NewFollower creates a follower pulling from the given client.
func NewFollower(client *Client) *Follower {
	return &Follower{
		client:    client,
		targets:   make(map[string][]*Target),
		breakers:  make(map[string][]*Breaker),
		lag:       make(map[string][]Lag),
		replayLat: obs.NewHistogram(nil),
	}
}

// breaker returns (creating if needed) the circuit breaker of one shard.
func (f *Follower) breaker(dataset string, shard int) *Breaker {
	f.bkMu.Lock()
	defer f.bkMu.Unlock()
	bs := f.breakers[dataset]
	for len(bs) <= shard {
		bs = append(bs, NewBreaker(f.BreakerConfig))
	}
	f.breakers[dataset] = bs
	return bs[shard]
}

// Primary returns the primary's base URL.
func (f *Follower) Primary() string { return f.client.Base }

// SetTargets registers (or replaces) the local shards of one dataset.
func (f *Follower) SetTargets(dataset string, ts []*Target) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.targets[dataset] = ts
	f.lagMu.Lock()
	f.lag[dataset] = make([]Lag, len(ts))
	f.lagMu.Unlock()
}

func (f *Follower) setLag(dataset string, shard int, update func(*Lag)) {
	f.lagMu.Lock()
	defer f.lagMu.Unlock()
	if ls := f.lag[dataset]; shard < len(ls) {
		update(&ls[shard])
	}
}

// Sync pulls one dataset level with the primary: every shard streams the
// records above its current epoch and replays them in order; a shard
// whose history has been compacted away bootstraps from a checkpoint
// first. A shard whose circuit breaker is cooling down is skipped — not
// an error; the breaker admits a retry (or a half-open probe) once its
// backoff elapses. Returns the first error; remaining shards are still
// attempted.
func (f *Follower) Sync(dataset string) error {
	f.mu.Lock()
	ts := f.targets[dataset]
	if ts == nil {
		f.mu.Unlock()
		return fmt.Errorf("replica: unknown dataset %q", dataset)
	}
	var first error
	for i, t := range ts {
		b := f.breaker(dataset, i)
		if !b.Allow(time.Now()) {
			continue
		}
		if err := f.syncShard(dataset, i, t); err != nil {
			b.Failure(time.Now())
			if first == nil {
				first = err
			}
		} else {
			b.Success()
		}
	}
	f.mu.Unlock()
	return first
}

// SyncAll sweeps every registered dataset once.
func (f *Follower) SyncAll() error {
	f.mu.Lock()
	names := make([]string, 0, len(f.targets))
	for name := range f.targets {
		names = append(names, name)
	}
	f.mu.Unlock()
	var first error
	for _, name := range names {
		if err := f.Sync(name); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// syncShard runs under f.mu.
func (f *Follower) syncShard(dataset string, shard int, t *Target) error {
	// Two passes at most: one that discovers a compacted history and
	// bootstraps from the checkpoint, one that streams the records above
	// it. A fresh checkpoint landing between the two just means the next
	// sync bootstraps again.
	for attempt := 0; attempt < 2; attempt++ {
		from := t.Handle.Snapshot().Epoch
		res, err := f.client.Stream(dataset, shard, from)
		if err != nil {
			f.recordError(dataset, shard, err)
			return err
		}
		if res.NeedCheckpoint {
			if err := f.bootstrap(dataset, shard, t); err != nil {
				f.recordError(dataset, shard, err)
				return err
			}
			continue
		}
		behind := uint64(0)
		if res.PrimaryEpoch > from {
			behind = res.PrimaryEpoch - from
		}
		replayStart := time.Now()
		for _, rec := range res.Records {
			snap, err := t.Handle.ApplyLogged(rec.Edits, func(epoch uint64, es []delta.Edit) error {
				return t.Log.Append(epoch, es)
			})
			if err != nil {
				err = fmt.Errorf("replica: %s/%d: replaying epoch %d: %w", dataset, shard, rec.Epoch, err)
				f.recordError(dataset, shard, err)
				return err
			}
			if snap.Epoch != rec.Epoch {
				err = fmt.Errorf("replica: %s/%d: replay diverged: record epoch %d produced snapshot epoch %d", dataset, shard, rec.Epoch, snap.Epoch)
				f.recordError(dataset, shard, err)
				return err
			}
		}
		if n := len(res.Records); n > 0 {
			took := time.Since(replayStart)
			f.replayed.Add(uint64(n))
			f.replayLat.Observe(took)
			if f.Observe != nil {
				f.Observe(dataset, shard, n, took)
			}
		}
		local := t.Handle.Snapshot().Epoch
		f.setLag(dataset, shard, func(l *Lag) {
			l.PrimaryEpoch = res.PrimaryEpoch
			l.LocalEpoch = local
			l.EpochsBehind = behind
			l.BytesPending = res.Bytes
			l.LastError = ""
		})
		return nil
	}
	err := fmt.Errorf("replica: %s/%d: primary checkpointed twice during one sync", dataset, shard)
	f.recordError(dataset, shard, err)
	return err
}

// bootstrap adopts a checkpoint fetched from the primary, replacing the
// shard's state wholesale and rebasing its retained log.
func (f *Follower) bootstrap(dataset string, shard int, t *Target) error {
	ck, err := f.client.Checkpoint(dataset, shard)
	if err != nil {
		return err
	}
	if cur := t.Handle.Snapshot().Epoch; ck.Epoch < cur {
		return fmt.Errorf("replica: %s/%d: checkpoint at epoch %d is older than local state at %d", dataset, shard, ck.Epoch, cur)
	}
	if _, err := t.Handle.Adopt(ck.Doc); err != nil {
		return fmt.Errorf("replica: %s/%d: adopting checkpoint: %w", dataset, shard, err)
	}
	t.Log.ResetTo(ck.Epoch)
	f.setLag(dataset, shard, func(l *Lag) {
		l.Bootstraps++
		l.LocalEpoch = ck.Epoch
	})
	return nil
}

// MaxLag returns the worst per-shard lag across every registered
// dataset, by epochs behind (sync errors and bootstraps tie-break
// upward so a shard that cannot sync at all surfaces even when its last
// known epoch gap was zero). ok is false when no shard is registered.
func (f *Follower) MaxLag() (dataset string, shard int, lag Lag, ok bool) {
	f.lagMu.Lock()
	for name, ls := range f.lag {
		for i := range ls {
			if !ok || ls[i].EpochsBehind > lag.EpochsBehind {
				dataset, shard, lag, ok = name, i, ls[i], true
			}
		}
	}
	f.lagMu.Unlock()
	if ok {
		st := f.breaker(dataset, shard).Status(time.Now())
		lag.Breaker = &st
	}
	return
}

// CollectMetrics emits the follower's replication metrics onto e — the
// replica subsystem's follower-side contribution to /metricsz.
func (f *Follower) CollectMetrics(e *obs.Exporter) {
	f.lagMu.Lock()
	lags := make(map[string][]Lag, len(f.lag))
	for name, ls := range f.lag {
		out := make([]Lag, len(ls))
		copy(out, ls)
		lags[name] = out
	}
	f.lagMu.Unlock()
	now := time.Now()
	for name, ls := range lags {
		for i, l := range ls {
			labels := []obs.Label{{Name: "dataset", Value: name}, {Name: "shard", Value: fmt.Sprint(i)}}
			e.Gauge("xmatch_replica_lag_epochs", "Epochs the follower shard is behind the primary.", float64(l.EpochsBehind), labels...)
			e.Gauge("xmatch_replica_local_epoch", "Follower shard's current epoch.", float64(l.LocalEpoch), labels...)
			e.Gauge("xmatch_replica_primary_epoch", "Primary shard's epoch as of the last successful stream response.", float64(l.PrimaryEpoch), labels...)
			e.Gauge("xmatch_replica_pending_bytes", "Wire bytes the last stream response fetched to close the gap; 0 when caught up.", float64(l.BytesPending), labels...)
			e.Counter("xmatch_replica_bootstraps_total", "Checkpoint bootstraps taken.", float64(l.Bootstraps), labels...)
			e.Counter("xmatch_replica_sync_errors_total", "Failed sync attempts.", float64(l.SyncErrors), labels...)
			st := f.breaker(name, i).Status(now)
			open := 0.0
			switch st.State {
			case "open":
				open = 2
			case "half-open":
				open = 1
			}
			e.Gauge("xmatch_replica_breaker_state", "Sync circuit breaker position (0 closed, 1 half-open, 2 open).", open, labels...)
			e.Counter("xmatch_replica_breaker_opens_total", "Times the sync circuit breaker opened.", float64(st.Opens), labels...)
		}
	}
	e.Counter("xmatch_replica_replayed_records_total", "Edit records replayed onto local shards.", float64(f.replayed.Load()))
	e.Histogram("xmatch_replica_replay_seconds", "Per-sync replay latency over applied records.", f.replayLat.Snapshot())
}

func (f *Follower) recordError(dataset string, shard int, err error) {
	f.setLag(dataset, shard, func(l *Lag) {
		l.SyncErrors++
		l.LastError = err.Error()
	})
}

// Run sweeps the catalog every interval until ctx is done, logging sync
// failures (the next tick retries).
func (f *Follower) Run(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			if err := f.SyncAll(); err != nil {
				lg := f.Logger
				if lg == nil {
					lg = slog.Default()
				}
				lg.Warn("replica sync failed", "err", err)
			}
		}
	}
}
