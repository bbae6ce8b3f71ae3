package server

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"

	"xmatch/internal/core"
	"xmatch/internal/dataset"
	"xmatch/internal/delta"
	"xmatch/internal/engine"
	"xmatch/internal/index"
	"xmatch/internal/mapgen"
	"xmatch/internal/mapping"
	"xmatch/internal/obs"
	"xmatch/internal/replica"
	"xmatch/internal/schema"
	"xmatch/internal/store"
	"xmatch/internal/xmltree"
)

// Shard is one member document of a serving collection: its mutable
// identity behind a delta.Handle (own positional index, own snapshot
// pins, own replication log) plus a per-shard query-latency histogram
// fed by the engine's scatter observer.
type Shard struct {
	// Live owns the member document's mutable identity: Live.Snapshot()
	// is the current (document, index) pair, /v1/admin/mutate applies
	// batches through it.
	Live *delta.Handle

	// Log is the shard's replication log: every applied batch is recorded
	// through it (durably when the catalog entry has an EditLogPath,
	// in-memory otherwise) and followers stream from it. Never nil on a
	// catalog-built collection. One log belongs to one catalog
	// generation; Reload retires it.
	Log *replica.ShardLog

	// lat accumulates per-shard evaluation wall time, one observation per
	// (embedding, shard) scatter unit; spanDetail ("shard=N") labels the
	// unit's span on a request trace.
	lat        *obs.Histogram
	spanDetail string
}

// Collection is one prepared serving tenant: a mapping set, the block
// tree, a per-collection engine (own worker pool and prepared-query
// cache), and one or more member document shards queried together.
// The mapping set, block tree, and engine are immutable and shared by
// every shard; each shard's document and positional index live behind its
// own delta.Handle, which serializes writers and publishes immutable
// (document, index) snapshot pairs — a request pins one snapshot per
// shard up front and every engine worker shares them read-only with zero
// synchronization. Shard documents carry disjoint ascending interval
// ranges (dataset.OrderCorpus), so a scatter-gather query returns
// byte-identical answers to evaluating the concatenated corpus as one
// document.
type Collection struct {
	Name   string
	Set    *mapping.Set
	Tree   *core.BlockTree
	Engine *engine.Engine
	// Live is shard 0's handle, kept as a field so the overwhelmingly
	// common single-shard collection reads like the dataset it used to be.
	Live *delta.Handle

	shards []*Shard
	// heads is what every result object of a mapping opens with on the
	// wire. It changes only with the mapping set, so it is rendered once,
	// beside the block tree.
	heads core.ResultHeads
}

// Dataset is the historical name for a single-shard collection; the two
// are the same type and every Dataset method works on any collection.
type Dataset = Collection

// NewCollection builds a serving collection over the member documents:
// block tree (tau 0 = default 0.2), one positional index per member
// (built by delta.Open unless one — a restored checkpoint's — is already
// attached), plus a dedicated engine. The documents must not be mutated
// afterwards except through the shards' handles.
func NewCollection(name string, set *mapping.Set, docs []*xmltree.Document, tau float64, eopts engine.Options) (*Collection, error) {
	if name == "" {
		return nil, fmt.Errorf("server: dataset has no name")
	}
	if len(docs) == 0 {
		return nil, fmt.Errorf("server: dataset %s has no documents", name)
	}
	bt, err := core.Build(set, core.Options{Tau: tau})
	if err != nil {
		return nil, fmt.Errorf("server: dataset %s: %w", name, err)
	}
	if eopts.Workers == 0 {
		eopts.Workers = runtime.GOMAXPROCS(0)
	}
	c := &Collection{Name: name, Set: set, Tree: bt, heads: core.NewResultHeads(set), Engine: engine.New(eopts)}
	for i, doc := range docs {
		h := delta.Open(doc)
		// The memory-only log starts at the document's current epoch (a
		// checkpoint-restored document opens mid-history); durable logs
		// replace it in buildDataset.
		c.shards = append(c.shards, &Shard{
			Live: h, Log: replica.NewShardLog(h.Snapshot().Epoch),
			lat: obs.NewHistogram(nil), spanDetail: "shard=" + strconv.Itoa(i),
		})
	}
	c.Live = c.shards[0].Live
	return c, nil
}

// NumShards returns the number of member documents.
func (d *Collection) NumShards() int { return len(d.shards) }

// Shards returns the member shards in collection order. The slice is the
// collection's own; callers must not mutate it.
func (d *Collection) Shards() []*Shard { return d.shards }

// Snapshot pins shard 0's current (document, index) snapshot — the whole
// collection for the single-shard case.
func (d *Collection) Snapshot() *delta.Snapshot { return d.shards[0].Live.Snapshot() }

// Snapshots pins every shard's current snapshot, in collection order.
// Request handlers call it exactly once and evaluate everything against
// the pinned pairs, so a concurrent mutation never changes a request
// mid-flight (per shard; cross-shard cuts are not atomic — each member
// document is an independent consistency domain).
func (d *Collection) Snapshots() []*delta.Snapshot {
	out := make([]*delta.Snapshot, len(d.shards))
	for i, s := range d.shards {
		out[i] = s.Live.Snapshot()
	}
	return out
}

// Doc returns shard 0's current document. Prefer Snapshot when more
// than one field of the pair is needed.
func (d *Collection) Doc() *xmltree.Document { return d.shards[0].Live.Snapshot().Doc }

// Index returns shard 0's current positional index.
func (d *Collection) Index() *index.Index { return d.shards[0].Live.Snapshot().Index }

// shardLogPath resolves one shard's edit-log file: shard 0 appends to
// the entry's path itself, shard i > 0 to path+".s<i>".
func shardLogPath(path string, shard int) string {
	if shard == 0 {
		return path
	}
	return fmt.Sprintf("%s.s%d", path, shard)
}

// openDurableLogs attaches durable replication logs to every shard and
// replays their surviving records over the (pristine or
// checkpoint-restored) documents, restoring the collection's edited
// state. Called once at catalog-prepare time, before the collection is
// published. Each replayed record's epoch must match the epoch its
// replay produces — a mismatch means the log and the restored base state
// disagree, which is corruption, not something to serve through.
func (d *Collection) openDurableLogs(path string, fsync bool) error {
	for si, s := range d.shards {
		p := shardLogPath(path, si)
		ckptEpoch := s.Live.Snapshot().Epoch // 0 unless checkpoint-restored
		lg, recs, err := replica.OpenShardLog(p, fsync, ckptEpoch)
		if err != nil {
			return fmt.Errorf("server: dataset %s shard %d: edit log %s: %w", d.Name, si, p, err)
		}
		for _, rec := range recs {
			snap, err := s.Live.Apply(rec.Edits)
			if err != nil {
				return fmt.Errorf("server: dataset %s shard %d: edit log %s: replaying epoch %d: %w", d.Name, si, p, rec.Epoch, err)
			}
			if snap.Epoch != rec.Epoch {
				return fmt.Errorf("server: dataset %s shard %d: edit log %s: record epoch %d replayed to epoch %d", d.Name, si, p, rec.Epoch, snap.Epoch)
			}
		}
		s.Log = lg
	}
	return nil
}

// CheckpointShard persists one shard's current state as its checkpoint
// and truncates its replication log, under the shard's write lock so no
// concurrent mutate can log a record the truncation would destroy.
// Returns the checkpoint epoch and the retained-log bytes freed.
func (d *Collection) CheckpointShard(shard int) (epoch uint64, freed int64, err error) {
	s := d.shards[shard]
	err = s.Live.Freeze(func(snap *delta.Snapshot) error {
		var ferr error
		freed, ferr = s.Log.Checkpoint(snap.Doc, snap.Epoch)
		epoch = snap.Epoch
		return ferr
	})
	return epoch, freed, err
}

// Catalog is an immutable snapshot of the serving datasets, looked up by
// name. The server swaps catalogs atomically on reload; requests in flight
// keep the snapshot they started with.
type Catalog struct {
	byName map[string]*Dataset
	names  []string // insertion order, for stable listings
}

// NewCatalog indexes the datasets, rejecting duplicate names.
func NewCatalog(ds ...*Dataset) (*Catalog, error) {
	c := &Catalog{byName: make(map[string]*Dataset, len(ds))}
	for _, d := range ds {
		if _, dup := c.byName[d.Name]; dup {
			return nil, fmt.Errorf("server: duplicate dataset name %q", d.Name)
		}
		c.byName[d.Name] = d
		c.names = append(c.names, d.Name)
	}
	return c, nil
}

// Get returns the named dataset, or nil.
func (c *Catalog) Get(name string) *Dataset { return c.byName[name] }

// Datasets returns the datasets in catalog order.
func (c *Catalog) Datasets() []*Dataset {
	out := make([]*Dataset, len(c.names))
	for i, n := range c.names {
		out[i] = c.byName[n]
	}
	return out
}

// Defaults applied to zero-valued manifest entry fields, matching the
// paper's experimental setup (|M| = 100 possible mappings, the 3473-node
// Order.xml document).
const (
	DefaultMappings = 100
	DefaultDocNodes = 3473
)

// CatalogOptions tune catalog materialization beyond the engine knobs.
type CatalogOptions struct {
	// NoFsync skips the per-record fsync on durable edit-log appends. The
	// default (fsync on) makes an acknowledged /v1/admin/mutate survive a
	// process or machine crash — the contract followers rely on when they
	// trust the shipped log.
	NoFsync bool
}

// BuildCatalog materializes a manifest into a serving catalog. Built-in
// entries regenerate their Table II dataset deterministically; blob-backed
// entries load their mapping set (and optional document) from files resolved
// relative to baseDir. Engine options apply to every dataset's engine.
func BuildCatalog(man *store.Catalog, baseDir string, eopts engine.Options) (*Catalog, error) {
	return BuildCatalogOpts(man, baseDir, eopts, CatalogOptions{})
}

// BuildCatalogOpts is BuildCatalog with explicit catalog options.
func BuildCatalogOpts(man *store.Catalog, baseDir string, eopts engine.Options, copts CatalogOptions) (*Catalog, error) {
	if err := man.Validate(); err != nil {
		return nil, err
	}
	ds := make([]*Dataset, 0, len(man.Entries))
	for _, e := range man.Entries {
		d, err := buildDataset(e, baseDir, eopts, copts)
		if err != nil {
			return nil, err
		}
		ds = append(ds, d)
	}
	return NewCatalog(ds...)
}

func buildDataset(e store.CatalogEntry, baseDir string, eopts engine.Options, copts CatalogOptions) (*Dataset, error) {
	var set *mapping.Set
	var docs []*xmltree.Document
	if e.Dataset != "" {
		d, err := dataset.Load(e.Dataset)
		if err != nil {
			return nil, fmt.Errorf("server: dataset %s: %w", e.Name, err)
		}
		m := e.Mappings
		if m == 0 {
			m = DefaultMappings
		}
		set, err = mapgen.TopH(d.Matching, m, mapgen.Partition)
		if err != nil {
			return nil, fmt.Errorf("server: dataset %s: %w", e.Name, err)
		}
		nodes := e.DocNodes
		if nodes == 0 {
			nodes = DefaultDocNodes
		}
		if e.Shards > 1 {
			// DocNodes is the total budget across members; OrderCorpus
			// assigns each member its own disjoint interval range.
			docs = d.OrderCorpus(e.Shards, nodes, e.DocSeed)
		} else {
			docs = []*xmltree.Document{d.OrderDocument(nodes, e.DocSeed)}
		}
	} else {
		f, err := os.Open(filepath.Join(baseDir, e.SetPath))
		if err != nil {
			return nil, fmt.Errorf("server: dataset %s: %w", e.Name, err)
		}
		set, err = store.LoadSet(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("server: dataset %s: %w", e.Name, err)
		}
		var doc *xmltree.Document
		if e.DocPath != "" {
			df, err := os.Open(filepath.Join(baseDir, e.DocPath))
			if err != nil {
				return nil, fmt.Errorf("server: dataset %s: %w", e.Name, err)
			}
			doc, err = xmltree.Parse(df)
			df.Close()
			if err != nil {
				return nil, fmt.Errorf("server: dataset %s: %w", e.Name, err)
			}
		} else {
			doc = instantiateSchema(set.Source, e.DocSeed)
		}
		docs = []*xmltree.Document{doc}
	}
	logPath := ""
	if e.EditLogPath != "" {
		logPath = filepath.Join(baseDir, e.EditLogPath)
		// A shard with a checkpoint restarts from it instead of the
		// pristine document: the checkpoint document comes back with its
		// exact interval numbering and a rebuilt, epoch-stamped index
		// installed, so delta.Open below adopts it mid-history and the
		// (truncated) edit log replays only the records after it.
		for i := range docs {
			ck, err := store.LoadCheckpointFile(replica.CheckpointPath(shardLogPath(logPath, i)))
			if err != nil {
				return nil, fmt.Errorf("server: dataset %s shard %d: %w", e.Name, i, err)
			}
			if ck != nil {
				docs[i] = ck.Doc
			}
		}
	}
	d, err := NewCollection(e.Name, set, docs, e.Tau, eopts)
	if err != nil {
		return nil, err
	}
	if logPath != "" {
		// Replay restores the entry's edited state over the restored
		// documents (blob-backed or regenerated alike) without re-parsing
		// mutated XML; later mutations append to the same logs.
		if err := d.openDurableLogs(logPath, !copts.NoFsync); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// instantiateSchema generates a deterministic single-instance document for a
// blob-backed dataset that ships no document: every schema element appears
// once, leaves carrying seeded synthetic text.
func instantiateSchema(s *schema.Schema, seed int64) *xmltree.Document {
	rng := rand.New(rand.NewSource(seed))
	var build func(e *schema.Element) *xmltree.Node
	build = func(e *schema.Element) *xmltree.Node {
		n := xmltree.NewRoot(e.Name)
		if e.IsLeaf() {
			n.Text = fmt.Sprintf("v%d", rng.Intn(1000))
			return n
		}
		for _, c := range e.Children {
			n.Children = append(n.Children, build(c))
		}
		return n
	}
	return xmltree.New(build(s.Root))
}
