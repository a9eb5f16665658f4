package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"famedb/internal/server"
)

// A workload is a seeded, fixed-operation-count, closed-loop request mix
// run through one product's public surface. One round = fresh DirFS
// directory, setup (open + load + checkpoint), measured phase, restart.
type workload struct {
	name, why  string
	features   []string
	cachePages int
	keys       int // records loaded during setup
	ops        int // operations in one round's measured phase
	clients    int
	gen        func(w *workload, rng *rand.Rand) input
	// stallExposed marks latencies that span milliseconds and many
	// goroutine hand-offs, so that host stalls delay them as they delay
	// wall-clock totals (see refspeed.go).
	stallExposed bool
}

// input is everything a round sends, generated before any timing.
type input interface {
	load(s *stack) error
	// phase runs the measured operations against s and returns the
	// number of writes (keys or rows written).
	phase(s *stack, rec *recorder) int
	// firstRead is the read that ends a restart.
	firstRead(s *stack) error
	// verify checks the reopened product against the oracle.
	verify(s *stack, rec *recorder)
	liveBytes() int64
}

var kvBase = []string{"Linux", "BPlusTree", "BTreeUpdate", "BTreeRemove", "BufferManager",
	"LRU", "DynamicAlloc", "Put", "Get", "Remove", "Update"}

var workloads = []*workload{
	{
		name:       "kv-hot",
		why:        "embedded KV with Statistics, data within half the cache: the cache-hit read path (tree descent, page copy-out, Statistics tax) dominates",
		features:   append(append([]string{}, kvBase...), "Statistics"),
		cachePages: 1024, keys: 8000, ops: 200000, clients: 1,
		gen: genKVHot,
	},
	{
		name:       "kv-churn",
		why:        "embedded KV, data over 10x the cache, write-heavy: eviction, write-back, pager I/O, B+-tree writes and the overwrite space leak",
		features:   kvBase,
		cachePages: 64, keys: 20000, ops: 40000, clients: 1,
		gen: genKVChurn,
	},
	{
		name:       "node-commit",
		why:        "TCP server node, two pipelined connections: wire protocol, group commit, WAL fsync and recovery replay on restart",
		features:   append(append([]string{}, kvBase...), "Transaction", "GroupCommit", "Recovery", "Locking", "Server", "Statistics"),
		cachePages: 1024, keys: 4000, ops: 16000, clients: 2,
		gen: genNode, stallExposed: true,
	},
	{
		name: "sql-calendar",
		why:  "the calendar example's product and events table, unprepared SQL with literals: parse, plan and the interpreted executor dominate",
		features: append(append([]string{}, kvBase...), "Transaction", "ForceCommit", "Recovery",
			"SQLEngine", "Optimizer"),
		cachePages: 1024, keys: 4000, ops: 16000, clients: 1,
		gen: genSQL,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// recorder collects one client's latencies and oracle verdicts.
type recorder struct {
	read, write, scan *hist
	attempted, failed int64
	userBytes         int64
	firstErr          error
}

func newRecorder() *recorder {
	return &recorder{read: newHist(), write: newHist(), scan: newHist()}
}

// check counts one verified operation and returns its verdict. Callers
// describe a failure with note, so a passing check builds nothing.
func (r *recorder) check(ok bool) bool {
	r.attempted++
	if !ok {
		r.failed++
	}
	return ok
}

// note keeps the first failure's description for the log.
func (r *recorder) note(format string, args ...any) {
	if r.firstErr == nil {
		r.firstErr = fmt.Errorf(format, args...)
	}
}

func (r *recorder) merge(o *recorder) {
	r.read.merge(o.read)
	r.write.merge(o.write)
	r.scan.merge(o.scan)
	r.attempted += o.attempted
	r.failed += o.failed
	r.userBytes += o.userBytes
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

func since(t0 time.Time) int64 { return int64(time.Since(t0)) }

// --- key-value workloads (kv-hot, kv-churn) ---

const (
	opGet = iota
	opScan
	opUpdate
	opPut
	opRemove
	opBatch
)

const (
	keyLen   = 16
	valueLen = 100
	scanLen  = 20
	batchLen = 8
)

// makeKeys returns n fixed-width keys whose byte order is id order.
func makeKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%012d", i))
	}
	return keys
}

func keyID(k []byte) int {
	id := 0
	for _, c := range k[4:] {
		id = id*10 + int(c-'0')
	}
	return id
}

func makeValues(rng *rand.Rand, n int) [][]byte {
	vals := make([][]byte, n)
	for i := range vals {
		v := make([]byte, valueLen)
		rng.Read(v)
		vals[i] = v
	}
	return vals
}

type kvOp struct {
	kind     uint8
	key, val int32
}

type kvInput struct {
	keys    [][]byte
	vals    [][]byte
	order   []int32 // load order of key ids 0..n-1
	initial []int32 // value index per loaded key
	ops     []kvOp
	cur     []int32 // oracle: value index per key id, -1 when absent
}

func newKVInput(w *workload, rng *rand.Rand, extra int) *kvInput {
	in := &kvInput{
		keys:    makeKeys(w.keys + extra + scanLen),
		vals:    makeValues(rng, 4096),
		order:   make([]int32, w.keys),
		initial: make([]int32, w.keys),
	}
	for i, p := range rng.Perm(w.keys) {
		in.order[i] = int32(p)
		in.initial[i] = int32(rng.Intn(len(in.vals)))
	}
	in.cur = make([]int32, len(in.keys))
	return in
}

// genKVHot: 85% Get, 10% 20-key Scan, 5% same-size Update, uniform keys.
func genKVHot(w *workload, rng *rand.Rand) input {
	in := newKVInput(w, rng, 0)
	in.ops = make([]kvOp, w.ops)
	for i := range in.ops {
		switch r := rng.Intn(100); {
		case r < 85:
			in.ops[i] = kvOp{kind: opGet, key: int32(rng.Intn(w.keys))}
		case r < 95:
			in.ops[i] = kvOp{kind: opScan, key: int32(rng.Intn(w.keys - scanLen))}
		default:
			in.ops[i] = kvOp{kind: opUpdate, key: int32(rng.Intn(w.keys)), val: int32(rng.Intn(len(in.vals)))}
		}
	}
	return in
}

// genKVChurn: 50% same-size Update, 25% Get, 10% Put of a new key, 10%
// Remove, 5% 20-key Scan. Keys are drawn from the live set the sequence
// itself produces, so every Update/Get/Remove targets a present key.
func genKVChurn(w *workload, rng *rand.Rand) input {
	puts := w.ops / 10 * 2 // upper bound on new keys
	in := newKVInput(w, rng, puts)
	live := make([]int32, w.keys)
	for i := range live {
		live[i] = int32(i)
	}
	pos := make([]int, w.keys+puts)
	for i := range live {
		pos[i] = i
	}
	next := w.keys
	pick := func() int32 { return live[rng.Intn(len(live))] }
	in.ops = make([]kvOp, w.ops)
	for i := range in.ops {
		val := int32(rng.Intn(len(in.vals)))
		switch r := rng.Intn(100); {
		case r < 50:
			in.ops[i] = kvOp{kind: opUpdate, key: pick(), val: val}
		case r < 75:
			in.ops[i] = kvOp{kind: opGet, key: pick()}
		case r < 85:
			in.ops[i] = kvOp{kind: opPut, key: int32(next), val: val}
			pos[next] = len(live)
			live = append(live, int32(next))
			next++
		case r < 95:
			k := pick()
			last := live[len(live)-1]
			live[pos[k]] = last
			pos[last] = pos[k]
			live = live[:len(live)-1]
			in.ops[i] = kvOp{kind: opRemove, key: k}
		default:
			in.ops[i] = kvOp{kind: opScan, key: int32(rng.Intn(next))}
		}
	}
	return in
}

func (in *kvInput) load(s *stack) error {
	for i := range in.cur {
		in.cur[i] = -1
	}
	for i, id := range in.order {
		if err := s.kv.Put(in.keys[id], in.vals[in.initial[i]]); err != nil {
			return err
		}
		in.cur[id] = in.initial[i]
	}
	return nil
}

// scanCheck verifies one range scan against the oracle in key order.
type scanCheck struct {
	in        *kvInput
	next, end int
	ok        bool
}

func (c *scanCheck) skipAbsent() {
	for c.next < c.end && c.in.cur[c.next] < 0 {
		c.next++
	}
}

func (c *scanCheck) visit(k, v []byte) bool {
	c.skipAbsent()
	id := keyID(k)
	if id != c.next || !bytes.Equal(v, c.in.vals[c.in.cur[id]]) {
		c.ok = false
		return false
	}
	c.next++
	return true
}

func (in *kvInput) phase(s *stack, rec *recorder) int {
	sc := &scanCheck{in: in}
	visit := sc.visit
	writes := 0
	for _, op := range in.ops {
		k := in.keys[op.key]
		t0 := time.Now()
		switch op.kind {
		case opGet:
			v, err := s.kv.Get(k)
			rec.read.record(since(t0))
			if !rec.check(err == nil && bytes.Equal(v, in.vals[in.cur[op.key]])) {
				rec.note("get %s: %v", k, err)
			}
		case opScan:
			sc.next, sc.end, sc.ok = int(op.key), int(op.key)+scanLen, true
			err := s.kv.Scan(k, in.keys[sc.end], visit)
			rec.scan.record(since(t0))
			if sc.ok {
				sc.skipAbsent()
			}
			if !rec.check(err == nil && sc.ok && sc.next == sc.end) {
				rec.note("scan from %s: %v", k, err)
			}
		case opUpdate, opPut:
			v := in.vals[op.val]
			var err error
			if op.kind == opPut {
				err = s.kv.Put(k, v)
			} else {
				err = s.kv.Update(k, v)
			}
			rec.write.record(since(t0))
			if !rec.check(err == nil) {
				rec.note("write %s: %v", k, err)
			}
			in.cur[op.key] = op.val
			rec.userBytes += int64(len(k) + len(v))
			writes++
		case opRemove:
			err := s.kv.Remove(k)
			rec.write.record(since(t0))
			if !rec.check(err == nil) {
				rec.note("remove %s: %v", k, err)
			}
			in.cur[op.key] = -1
			rec.userBytes += int64(len(k))
			writes++
		}
	}
	return writes
}

func (in *kvInput) firstRead(s *stack) error {
	id := in.order[0]
	v, err := s.kv.Get(in.keys[id])
	if err == nil && in.cur[id] >= 0 && !bytes.Equal(v, in.vals[in.cur[id]]) {
		err = errors.New("first read after restart returned a wrong value")
	}
	if in.cur[id] < 0 && err != nil {
		err = nil // removed during the phase; not-found is the right answer
	}
	return err
}

// verify reads every key after the restart: each acknowledged write
// must have survived it.
func (in *kvInput) verify(s *stack, rec *recorder) {
	for id, want := range in.cur {
		if want < 0 {
			continue
		}
		v, err := s.kv.Get(in.keys[id])
		if !rec.check(err == nil && bytes.Equal(v, in.vals[want])) {
			rec.note("after restart %s: %v", in.keys[id], err)
		}
	}
}

func (in *kvInput) liveBytes() int64 {
	var n int64
	for id, v := range in.cur {
		if v >= 0 {
			n += int64(len(in.keys[id]) + len(in.vals[v]))
		}
	}
	return n
}

// --- node-commit: two pipelined wire connections ---

const window = 16

type nodeOp struct {
	kind     uint8
	key, val int32
	batch    []server.Op
	ids      [batchLen]int32
	bvals    [batchLen]int32
}

type nodeInput struct {
	kvInput
	conns   [][]nodeOp // per connection; connection c owns the key ids ≡ c (mod clients)
	clients []*server.Client
}

// genNode: per connection 50% put (overwrite), 40% get, 10% 8-put batch
// over the keys that connection owns, so each connection's oracle is
// exact under the server's in-order execution.
func genNode(w *workload, rng *rand.Rand) input {
	in := &nodeInput{kvInput: *newKVInput(w, rng, 0)}
	in.conns = make([][]nodeOp, w.clients)
	per := w.ops / w.clients
	owned := func(c int) int32 {
		return int32(rng.Intn(w.keys/w.clients)*w.clients + c)
	}
	for c := range in.conns {
		ops := make([]nodeOp, per)
		for i := range ops {
			val := int32(rng.Intn(len(in.vals)))
			switch r := rng.Intn(100); {
			case r < 50:
				ops[i] = nodeOp{kind: opPut, key: owned(c), val: val}
			case r < 90:
				ops[i] = nodeOp{kind: opGet, key: owned(c)}
			default:
				op := nodeOp{kind: opBatch, batch: make([]server.Op, batchLen)}
				for j := range op.batch {
					op.ids[j], op.bvals[j] = owned(c), int32(rng.Intn(len(in.vals)))
					op.batch[j] = server.Op{Key: in.keys[op.ids[j]], Value: in.vals[op.bvals[j]]}
				}
				ops[i] = op
			}
		}
		in.conns[c] = ops
	}
	return in
}

// load writes the records through transactions so they reach the
// journal; the setup's checkpoint then makes them the recovery image.
func (in *nodeInput) load(s *stack) error {
	for i := range in.cur {
		in.cur[i] = -1
	}
	for i := 0; i < len(in.order); i += 100 {
		tx := s.mgr.Begin()
		for j := i; j < min(i+100, len(in.order)); j++ {
			id := in.order[j]
			if err := tx.Put(in.keys[id], in.vals[in.initial[j]]); err != nil {
				tx.Abort()
				return err
			}
			in.cur[id] = in.initial[j]
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	return nil
}

// dial opens one protocol connection per request sequence (setup).
func (in *nodeInput) dial(addr string) error {
	in.clients = make([]*server.Client, len(in.conns))
	for c := range in.clients {
		cl, err := server.DialClient(addr)
		if err != nil {
			return err
		}
		in.clients[c] = cl
	}
	return nil
}

// phase drives both connections over the wire; each keeps a window of
// requests in flight and times a request from its send to its ack.
func (in *nodeInput) phase(s *stack, rec *recorder) int {
	recs := make([]*recorder, len(in.conns))
	var wg sync.WaitGroup
	for c := range in.conns {
		recs[c] = newRecorder()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			in.drive(in.clients[c], in.conns[c], recs[c])
		}(c)
	}
	wg.Wait()
	for c, cl := range in.clients {
		cl.Close()
		rec.merge(recs[c])
	}
	return in.writes()
}

func (in *nodeInput) writes() int {
	n := 0
	for _, ops := range in.conns {
		for _, op := range ops {
			switch op.kind {
			case opPut:
				n++
			case opBatch:
				n += batchLen
			}
		}
	}
	return n
}

func (in *nodeInput) drive(cl *server.Client, ops []nodeOp, rec *recorder) {
	var sent [window]time.Time
	send := func(i int) error {
		op := &ops[i]
		var err error
		switch op.kind {
		case opPut:
			err = cl.QueuePut(in.keys[op.key], in.vals[op.val])
		case opGet:
			err = cl.QueueGet(in.keys[op.key])
		case opBatch:
			err = cl.QueueBatch(op.batch)
		}
		sent[i%window] = time.Now()
		if err == nil {
			err = cl.Flush()
		}
		return err
	}
	for i := 0; i < min(window, len(ops)); i++ {
		if err := send(i); err != nil {
			rec.check(false)
			rec.note("send: %v", err)
			return
		}
	}
	for i := range ops {
		op := &ops[i]
		switch op.kind {
		case opGet:
			v, err := cl.AwaitValue()
			rec.read.record(since(sent[i%window]))
			if !rec.check(err == nil && bytes.Equal(v, in.vals[in.cur[op.key]])) {
				rec.note("get %s: %v", in.keys[op.key], err)
			}
		case opPut:
			err := cl.AwaitOK()
			rec.write.record(since(sent[i%window]))
			if !rec.check(err == nil) {
				rec.note("put %s: %v", in.keys[op.key], err)
			}
			in.cur[op.key] = op.val
			rec.userBytes += keyLen + valueLen
		case opBatch:
			err := cl.AwaitOK()
			rec.scan.record(since(sent[i%window]))
			if !rec.check(err == nil) {
				rec.note("batch: %v", err)
			}
			for j, id := range op.ids {
				in.cur[id] = op.bvals[j]
			}
			rec.userBytes += batchLen * (keyLen + valueLen)
		}
		if next := i + window; next < len(ops) {
			if err := send(next); err != nil {
				rec.check(false)
				rec.note("send: %v", err)
				return
			}
		}
	}
}

// direct replays the same per-connection sequences straight against
// the transaction manager, one goroutine per connection, executing each
// request exactly as the server does. Each request is one top-level
// span of the traced stack.
func (in *nodeInput) direct(s *stack, rec *recorder) {
	for _, cl := range in.clients {
		cl.Close() // setup dialed them; the replay bypasses the wire
	}
	recs := make([]*recorder, len(in.conns))
	var wg sync.WaitGroup
	for c := range in.conns {
		recs[c] = newRecorder()
		wg.Add(1)
		go func(ops []nodeOp, rec *recorder) {
			defer wg.Done()
			for i := range ops {
				op := &ops[i]
				t0 := time.Now()
				tx := s.mgr.Begin()
				switch op.kind {
				case opGet:
					v, err := tx.Get(in.keys[op.key])
					tx.Abort()
					s.tr.top(t0)
					if !rec.check(err == nil && bytes.Equal(v, in.vals[in.cur[op.key]])) {
						rec.note("get: %v", err)
					}
				case opPut:
					err := tx.Put(in.keys[op.key], in.vals[op.val])
					if err == nil {
						err = tx.Commit()
					}
					s.tr.top(t0)
					if !rec.check(err == nil) {
						rec.note("put: %v", err)
					}
					in.cur[op.key] = op.val
				case opBatch:
					var err error
					for j, id := range op.ids {
						if err = tx.Put(in.keys[id], in.vals[op.bvals[j]]); err != nil {
							break
						}
					}
					if err == nil {
						err = tx.Commit()
					}
					s.tr.top(t0)
					if !rec.check(err == nil) {
						rec.note("batch: %v", err)
					}
					for j, id := range op.ids {
						in.cur[id] = op.bvals[j]
					}
				}
			}
		}(in.conns[c], recs[c])
	}
	wg.Wait()
	for _, r := range recs {
		rec.merge(r)
	}
}
