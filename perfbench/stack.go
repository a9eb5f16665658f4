package main

import (
	"sync/atomic"
	"time"

	"famedb/internal/access"
	"famedb/internal/buffer"
	"famedb/internal/composer"
	"famedb/internal/core"
	"famedb/internal/index"
	"famedb/internal/osal"
	"famedb/internal/sql"
	"famedb/internal/stats"
	"famedb/internal/storage"
	"famedb/internal/txn"
)

// kvStore is the key-value surface of fame.DB (and of access.Store,
// which fame.DB forwards to).
type kvStore interface {
	Put(key, value []byte) error
	Get(key []byte) ([]byte, error)
	Update(key, value []byte) error
	Remove(key []byte) error
	Scan(from, to []byte, fn func(key, value []byte) bool) error
}

// sqlExec is the SQL surface of fame.DB.
type sqlExec interface {
	Exec(query string) (*sql.Result, error)
}

// stack is one opened product: either composed by the product line's
// composer exactly as fame.Open composes it (tr == nil), or built by
// hand from the layers' public constructors with timing wrappers at
// every layer interface (tr != nil).
type stack struct {
	dfs   *osal.DirFS
	inst  *composer.Instance // composed products only
	kv    kvStore
	sql   sqlExec
	mgr   *txn.Manager
	reg   *stats.Registry // nil unless Statistics is composed
	cache *buffer.Manager // traced products only
	tr    *tracer         // traced products only
	close func() error
}

// ioSnap is a copy of the osal device counters.
type ioSnap struct{ reads, writes, syncs, bytesRead, bytesWritten int64 }

func (s *stack) io() ioSnap {
	var c ioSnap
	c.reads, c.writes, c.syncs, c.bytesRead, c.bytesWritten = s.dfs.Stats().Snapshot()
	return c
}

func (a ioSnap) sub(b ioSnap) ioSnap {
	return ioSnap{a.reads - b.reads, a.writes - b.writes, a.syncs - b.syncs,
		a.bytesRead - b.bytesRead, a.bytesWritten - b.bytesWritten}
}

// openComposed derives the product and composes it over a DirFS at dir
// with the same composer call and options fame.Open(fame.Options{Dir:
// dir, CachePages: n}, features...) makes; the DirFS handle is kept so
// the device counters can be read. Opening an existing dir reopens it
// (with recovery when composed).
func openComposed(w *workload, dir string) (*stack, error) {
	cfg, err := core.FAMEModel().Product(w.features...)
	if err != nil {
		return nil, err
	}
	dfs, err := osal.NewDirFS(dir)
	if err != nil {
		return nil, err
	}
	inst, err := composer.Compose(cfg, composer.Options{FS: dfs, CachePages: w.cachePages})
	if err != nil {
		return nil, err
	}
	s := &stack{dfs: dfs, inst: inst, kv: inst.Store, mgr: inst.Txn,
		reg: inst.StatsRegistry(), close: inst.Close}
	if inst.SQL != nil {
		s.sql = inst.SQL
	}
	return s, nil
}

// openTraced builds the same product as openComposed on a fresh dir,
// layer by layer from the public constructors, with a timing wrapper at
// each existing interface: osal.FS/File, storage.Pager below and above
// the buffer manager, index.Index (also through sql.IndexFactory), and
// the top-level store/SQL surface. The wiring mirrors the composer for
// the features the benchmark's products select; the checkpoint image
// and layout file are left out, since a traced stack is never reopened.
func openTraced(w *workload, dir string) (*stack, error) {
	cfg, err := core.FAMEModel().Product(w.features...)
	if err != nil {
		return nil, err
	}
	dfs, err := osal.NewDirFS(dir)
	if err != nil {
		return nil, err
	}
	tr := &tracer{}
	fs := &traceFS{FS: dfs, t: tr}
	var reg *stats.Registry
	if cfg.Has("Statistics") {
		reg = stats.New()
	}
	f, err := fs.Create("fame.db")
	if err != nil {
		return nil, err
	}
	pf, err := storage.CreatePageFile(f, osal.Linux.PageSize)
	if err != nil {
		return nil, err
	}
	pf.SetMetrics(reg.Pager())
	health := storage.NewHealth()
	retry := storage.DefaultRetryPolicy()
	rp := storage.NewRetryPager(pf, retry, health)
	rp.SetMetrics(reg.Fault())
	below := &tracePager{Pager: rp, ns: &tr.storageNs, reads: &tr.pageReads, writes: &tr.pageWrites}
	cache, err := buffer.NewManager(below, w.cachePages, buffer.NewLRU(), buffer.NewDynamicAllocator(below.PageSize()))
	if err != nil {
		return nil, err
	}
	cache.SetMetrics(reg.Buffer())
	above := &tracePager{Pager: cache, ns: &tr.bufferNs, reads: &tr.bufReads, allocs: &tr.bufAllocs}
	btOps := index.BTreeOps{Search: cfg.Has("BTreeSearch"), Update: cfg.Has("BTreeUpdate"), Remove: cfg.Has("BTreeRemove")}
	bt, _, err := index.CreateBTree(above, btOps)
	if err != nil {
		return nil, err
	}
	if reg != nil {
		bt.Tree().SetMetrics(reg.BTree())
	}
	ops := access.Ops{Put: cfg.Has("Put"), Get: cfg.Has("Get"), Remove: cfg.Has("Remove"), Update: cfg.Has("Update")}
	store := access.New(&traceIndex{Index: bt, t: tr}, ops)
	store.SetMetrics(reg.Access())
	s := &stack{dfs: dfs, kv: &traceStore{kvStore: store, t: tr},
		reg: reg, cache: cache, tr: tr}
	if cfg.Has("Transaction") {
		var proto txn.Protocol = txn.Force{}
		if cfg.Has("GroupCommit") {
			proto = &txn.Group{BatchSize: 8}
		}
		s.mgr, err = txn.Open(fs, "fame.wal", store, txn.Options{
			Protocol: proto, Locking: cfg.Has("Locking"), Recovery: cfg.Has("Recovery"),
			SyncStore: above.Sync, Metrics: reg.Txn(), Health: health, Retry: retry, Fault: reg.Fault(),
		})
		if err != nil {
			return nil, err
		}
	}
	if cfg.Has("SQLEngine") {
		base := sql.BTreeFactory(btOps)
		factory := base
		first := true
		wrap := func(idx index.Index) index.Index {
			// The engine creates (or opens) its catalog first; rows
			// examined count table trees only.
			ti := &traceIndex{Index: idx, t: tr, catalog: first}
			first = false
			return ti
		}
		factory.Create = func(p storage.Pager) (index.Index, storage.PageID, error) {
			idx, meta, err := base.Create(p)
			if err != nil {
				return nil, 0, err
			}
			return wrap(idx), meta, nil
		}
		factory.Open = func(p storage.Pager, meta storage.PageID) (index.Index, error) {
			idx, err := base.Open(p, meta)
			if err != nil {
				return nil, err
			}
			return wrap(idx), nil
		}
		eng, _, err := sql.Create(sql.Config{Pager: above, Factory: factory, Ops: ops,
			Optimizer: cfg.Has("Optimizer"), Compiled: cfg.Has("CompiledQueries"), Metrics: reg.SQL()})
		if err != nil {
			return nil, err
		}
		s.sql = &traceSQL{sqlExec: eng, t: tr}
	}
	if cfg.Has("Recovery") {
		// The composer syncs a fresh Recovery product before seeding its
		// checkpoint image; do the same so both caches start alike.
		if err := above.Sync(); err != nil {
			return nil, err
		}
	}
	s.close = func() error {
		if s.mgr != nil {
			if err := s.mgr.Close(); err != nil {
				return err
			}
		}
		return above.Close()
	}
	return s, nil
}

// checkpoint makes the loaded state durable and empties the journal,
// or syncs the store on products without a transaction manager.
func (s *stack) checkpoint() error {
	if s.mgr != nil {
		return s.mgr.Checkpoint()
	}
	if s.inst != nil {
		return s.inst.Sync()
	}
	return s.cache.Sync()
}

// --- layer accounting ---

// File kinds split osal time by the layer that issued it: the page file
// belongs to storage, the journal to txn.
const (
	kindData = iota
	kindWAL
	kindOther
	nKinds
)

func kindOf(name string) int {
	switch name {
	case "fame.db":
		return kindData
	case "fame.wal":
		return kindWAL
	}
	return kindOther
}

// Device operations the osal wrapper counts.
const (
	ioRead = iota
	ioWrite
	ioSync
	nIOOps
)

// ioStat totals one device operation on one file kind.
type ioStat struct{ calls, bytes, ns atomic.Int64 }

func (st *ioStat) add(n int, t0 time.Time) {
	st.ns.Add(int64(time.Since(t0)))
	st.calls.Add(1)
	st.bytes.Add(int64(n))
}

// tracer accumulates, per layer, the inclusive time of every call into
// that layer's interface plus the counters the per-layer table needs.
// Each layer is called only by the one above it (and osal by storage
// and txn, told apart by file), so a layer's self time is its inclusive
// time minus the inclusive time of the layer below — exact even with
// concurrent callers. Totals are atomics: the node's two sessions call
// in concurrently.
type tracer struct {
	io [nIOOps][nKinds]ioStat

	storageNs, pageReads, pageWrites atomic.Int64
	bufferNs, bufReads, bufAllocs    atomic.Int64

	btreeNs, gets, getPages atomic.Int64
	// examined counts rows visited in table trees while countRows is
	// set (the SQL harness sets it around SELECTs; single client).
	examined  atomic.Int64
	countRows bool

	topNs atomic.Int64
}

func (t *tracer) top(t0 time.Time) { t.topNs.Add(int64(time.Since(t0))) }

type traceFS struct {
	osal.FS
	t *tracer
}

func (fs *traceFS) Open(name string) (osal.File, error) {
	f, err := fs.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &traceFile{File: f, t: fs.t, kind: kindOf(name)}, nil
}

func (fs *traceFS) Create(name string) (osal.File, error) {
	f, err := fs.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &traceFile{File: f, t: fs.t, kind: kindOf(name)}, nil
}

type traceFile struct {
	osal.File
	t    *tracer
	kind int
}

func (f *traceFile) ReadAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := f.File.ReadAt(p, off)
	f.t.io[ioRead][f.kind].add(n, t0)
	return n, err
}

func (f *traceFile) WriteAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := f.File.WriteAt(p, off)
	f.t.io[ioWrite][f.kind].add(n, t0)
	return n, err
}

func (f *traceFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.t.io[ioSync][f.kind].add(0, t0)
	return err
}

// tracePager times every storage.Pager call into one layer's bucket and
// counts the calls the per-layer table uses (nil counters are skipped).
type tracePager struct {
	storage.Pager
	ns, reads, writes, allocs *atomic.Int64
}

func (p *tracePager) timed(t0 time.Time) { p.ns.Add(int64(time.Since(t0))) }

func (p *tracePager) ReadPage(id storage.PageID, buf []byte) error {
	t0 := time.Now()
	err := p.Pager.ReadPage(id, buf)
	p.timed(t0)
	p.reads.Add(1)
	return err
}

func (p *tracePager) WritePage(id storage.PageID, buf []byte) error {
	t0 := time.Now()
	err := p.Pager.WritePage(id, buf)
	p.timed(t0)
	if p.writes != nil {
		p.writes.Add(1)
	}
	return err
}

func (p *tracePager) Alloc() (storage.PageID, error) {
	t0 := time.Now()
	id, err := p.Pager.Alloc()
	p.timed(t0)
	if p.allocs != nil {
		p.allocs.Add(1)
	}
	return id, err
}

func (p *tracePager) Free(id storage.PageID) error {
	defer p.timed(time.Now())
	return p.Pager.Free(id)
}

func (p *tracePager) Sync() error {
	defer p.timed(time.Now())
	return p.Pager.Sync()
}

// traceIndex times every index.Index call into the btree bucket.
type traceIndex struct {
	index.Index
	t       *tracer
	catalog bool
}

func (x *traceIndex) done(t0 time.Time) { x.t.btreeNs.Add(int64(time.Since(t0))) }

func (x *traceIndex) Get(key []byte) ([]byte, bool, error) {
	t0 := time.Now()
	before := x.t.bufReads.Load()
	v, ok, err := x.Index.Get(key)
	x.t.getPages.Add(x.t.bufReads.Load() - before)
	x.t.gets.Add(1)
	if ok && x.t.countRows && !x.catalog {
		x.t.examined.Add(1)
	}
	x.done(t0)
	return v, ok, err
}

func (x *traceIndex) Insert(key, value []byte) error {
	defer x.done(time.Now())
	return x.Index.Insert(key, value)
}

func (x *traceIndex) Update(key, value []byte) (bool, error) {
	defer x.done(time.Now())
	return x.Index.Update(key, value)
}

func (x *traceIndex) Delete(key []byte) (bool, error) {
	defer x.done(time.Now())
	return x.Index.Delete(key)
}

func (x *traceIndex) Scan(from, to []byte, fn func(key, value []byte) bool) error {
	defer x.done(time.Now())
	if x.t.countRows && !x.catalog {
		inner := fn
		fn = func(k, v []byte) bool {
			x.t.examined.Add(1)
			return inner(k, v)
		}
	}
	return x.Index.Scan(from, to, fn)
}

func (x *traceIndex) Len() (uint64, error) {
	defer x.done(time.Now())
	return x.Index.Len()
}

// traceStore times the access layer's public operations (the calls
// fame.DB forwards) as the top-level spans of the kv workloads.
type traceStore struct {
	kvStore
	t *tracer
}

func (s *traceStore) Put(k, v []byte) error {
	defer s.t.top(time.Now())
	return s.kvStore.Put(k, v)
}

func (s *traceStore) Get(k []byte) ([]byte, error) {
	defer s.t.top(time.Now())
	return s.kvStore.Get(k)
}

func (s *traceStore) Update(k, v []byte) error {
	defer s.t.top(time.Now())
	return s.kvStore.Update(k, v)
}

func (s *traceStore) Remove(k []byte) error {
	defer s.t.top(time.Now())
	return s.kvStore.Remove(k)
}

func (s *traceStore) Scan(from, to []byte, fn func(k, v []byte) bool) error {
	defer s.t.top(time.Now())
	return s.kvStore.Scan(from, to, fn)
}

// traceSQL times SQL statements as the top-level spans of sql-calendar.
type traceSQL struct {
	sqlExec
	t *tracer
}

func (s *traceSQL) Exec(q string) (*sql.Result, error) {
	defer s.t.top(time.Now())
	return s.sqlExec.Exec(q)
}

// layerSnap is a copy of a tracer's totals, so a phase can be measured
// as the difference of two snapshots.
type layerSnap struct {
	io                                       [nIOOps][nKinds][3]int64 // calls, bytes, ns
	storageNs, pageReads, pageWrites         int64
	bufferNs, bufReads, bufAllocs            int64
	btreeNs, gets, getPages, examined, topNs int64
}

func (t *tracer) snap() layerSnap {
	var s layerSnap
	for o := range t.io {
		for k := range t.io[o] {
			st := &t.io[o][k]
			s.io[o][k] = [3]int64{st.calls.Load(), st.bytes.Load(), st.ns.Load()}
		}
	}
	s.storageNs, s.pageReads, s.pageWrites = t.storageNs.Load(), t.pageReads.Load(), t.pageWrites.Load()
	s.bufferNs, s.bufReads, s.bufAllocs = t.bufferNs.Load(), t.bufReads.Load(), t.bufAllocs.Load()
	s.btreeNs, s.gets, s.getPages, s.examined = t.btreeNs.Load(), t.gets.Load(), t.getPages.Load(), t.examined.Load()
	s.topNs = t.topNs.Load()
	return s
}

func (a layerSnap) sub(b layerSnap) layerSnap {
	d := a
	for o := range d.io {
		for k := range d.io[o] {
			for i := range d.io[o][k] {
				d.io[o][k][i] -= b.io[o][k][i]
			}
		}
	}
	d.storageNs -= b.storageNs
	d.pageReads -= b.pageReads
	d.pageWrites -= b.pageWrites
	d.bufferNs -= b.bufferNs
	d.bufReads -= b.bufReads
	d.bufAllocs -= b.bufAllocs
	d.btreeNs -= b.btreeNs
	d.gets -= b.gets
	d.getPages -= b.getPages
	d.examined -= b.examined
	d.topNs -= b.topNs
	return d
}

// osalNs sums device time over the given file kinds.
func (s layerSnap) osalNs(kinds ...int) int64 {
	var ns int64
	for _, k := range kinds {
		for o := range s.io {
			ns += s.io[o][k][2]
		}
	}
	return ns
}
