package main

import (
	"math/rand"
	"os"
	"runtime/metrics"

	"famedb/internal/buffer"
)

// perLayer lists the traced run's per-layer metrics. Each layer's self
// time is its inclusive time minus that of the layer below (see
// tracer). "per op" divides by the measured phase's requests (SQL
// statements on sql-calendar); a layer a workload does not reach reads 0.
var perLayer = []struct{ name, unit string }{
	{"osal.read_calls_per_op", "count/op"},
	{"osal.write_calls_per_op", "count/op"},
	{"osal.syncs_per_op", "count/op"},
	{"osal.bytes_read_per_op", "B/op"},
	{"osal.bytes_written_per_op", "B/op"},
	{"osal.read_us_per_op", "us/op"},
	{"osal.write_us_per_op", "us/op"},
	{"osal.sync_us_per_op", "us/op"},
	{"storage.page_reads_per_op", "count/op"},
	{"storage.page_writes_per_op", "count/op"},
	{"storage.self_us_per_op", "us/op"},
	{"buffer.hit_ratio", "ratio"},
	{"buffer.writebacks_per_op", "count/op"},
	{"buffer.self_us_per_op", "us/op"},
	{"btree.pages_per_lookup", "count"},
	{"btree.allocs_per_write", "count"},
	{"btree.self_us_per_op", "us/op"},
	{"access.self_us_per_op", "us/op"},
	{"txn.commits_per_sync", "count"},
	{"txn.wal_bytes_per_commit", "B"},
	{"txn.sync_wait_us_per_commit", "us"},
	{"txn.self_us_per_op", "us/op"},
	{"server.self_us_per_op", "us/op"},
	{"sql.self_us_per_stmt", "us"},
	{"sql.rows_examined_per_row_returned", "ratio"},
	{"go.alloc_bytes_per_op", "B/op"},
	{"go.gc_cpu_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.self_time_coverage", "ratio"},
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceRound runs one round three ways on the same seeded inputs:
//
//  1. untraced: the composed product, for trace.overhead_ratio, the Go
//     runtime metrics and the reference osal counts;
//  2. traced: the hand-built stack with timing wrappers, whose measured
//     phase must issue exactly the same osal calls as (1) on the
//     single-client workloads (the fidelity check, counted as an
//     operation of the oracle);
//  3. node-commit only: the same request sequences replayed directly
//     against the traced stack's txn.Manager, which separates txn from
//     server time.
func traceRound(w *workload, seed int64, dir string, rec *recorder) (map[string]float64, error) {
	// (1) untraced reference.
	in := w.gen(w, rand.New(rand.NewSource(seed)))
	s, err := setup(w, in, dir+"-plain", false)
	if err != nil {
		return nil, err
	}
	r := newRecorder()
	io0 := s.io()
	plain := measure(func() { in.phase(s, r) })
	plainIO := s.io().sub(io0)
	if err := s.close(); err != nil {
		return nil, err
	}
	os.RemoveAll(dir + "-plain")
	ops := float64(r.read.n + r.write.n + r.scan.n)

	// (2) traced.
	in = w.gen(w, rand.New(rand.NewSource(seed)))
	t, err := setup(w, in, dir+"-traced", true)
	if err != nil {
		return nil, err
	}
	tr := newRecorder()
	io0 = t.io()
	l0, c0 := t.tr.snap(), t.cache.Stats()
	var writes int
	traced := measure(func() { writes = in.phase(t, tr) })
	d, c1 := t.tr.snap().sub(l0), t.cache.Stats()
	tracedIO := t.io().sub(io0)
	if err := t.close(); err != nil {
		return nil, err
	}
	os.RemoveAll(dir + "-traced")
	rec.merge(r)
	rec.merge(tr)
	if w.clients == 1 {
		if !rec.check(plainIO == tracedIO) {
			rec.note("fidelity: composed product did %+v, traced stack %+v", plainIO, tracedIO)
		}
	}

	m := map[string]float64{
		"go.alloc_bytes_per_op": float64(plain.allocBytes) / ops,
		"go.gc_cpu_share":       ratio(plain.gcCPU, plain.cpu.Seconds()),
		"trace.overhead_ratio":  plain.wall.Seconds() / traced.wall.Seconds(),
	}
	cacheRatios := func(c0, c1 buffer.Stats) {
		hits, misses := c1.Hits-c0.Hits, c1.Misses-c0.Misses
		m["buffer.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
		m["buffer.writebacks_per_op"] = float64(c1.WriteBacks-c0.WriteBacks) / ops
	}
	cacheRatios(c0, c1)
	// trace.self_time_coverage: the layers' self times must add up to
	// the end-to-end time — the sum of the operations' latencies for a
	// single client; for pipelined connections, whose requests overlap,
	// each connection's busy time (the phase's wall time).
	e2eNs := float64(tr.read.sum + tr.write.sum + tr.scan.sum)
	if w.clients > 1 {
		e2eNs = float64(traced.wall.Nanoseconds()) * float64(w.clients)
	}
	var topNs float64
	switch in := in.(type) {
	case *nodeInput:
		// (3) direct replay against txn.Manager.
		in2 := w.gen(w, rand.New(rand.NewSource(seed))).(*nodeInput)
		x, err := setup(w, in2, dir+"-direct", true)
		if err != nil {
			return nil, err
		}
		dr := newRecorder()
		l0, c0 := x.tr.snap(), x.cache.Stats()
		st0 := x.reg.Txn().CommitStall.Snapshot()
		direct := measure(func() { in2.direct(x, dr) })
		d = x.tr.snap().sub(l0)
		c1 := x.cache.Stats()
		stall := x.reg.Txn().CommitStall.Snapshot().Sum - st0.Sum
		if err := x.close(); err != nil {
			return nil, err
		}
		os.RemoveAll(dir + "-direct")
		rec.merge(dr)
		cacheRatios(c0, c1)
		commits := float64(r.write.n + r.scan.n)
		m["txn.commits_per_sync"] = ratio(commits, float64(d.io[ioSync][kindWAL][0]))
		m["txn.wal_bytes_per_commit"] = float64(d.io[ioWrite][kindWAL][1]) / commits
		m["txn.sync_wait_us_per_commit"] = float64(stall) / 1e3 / commits
		m["txn.self_us_per_op"] = float64(d.topNs-d.btreeNs-d.osalNs(kindWAL)) / 1e3 / ops
		serverNs := (traced.wall.Seconds() - direct.wall.Seconds()) * 1e9 * float64(w.clients)
		m["server.self_us_per_op"] = serverNs / 1e3 / ops
		topNs = float64(d.topNs) + serverNs
	case *sqlInput:
		m["sql.self_us_per_stmt"] = float64(d.topNs-d.btreeNs) / 1e3 / ops
		m["sql.rows_examined_per_row_returned"] = ratio(float64(d.examined), float64(in.returned))
		topNs = float64(d.topNs + d.osalNs(kindWAL, kindOther))
	default:
		m["access.self_us_per_op"] = float64(d.topNs-d.btreeNs) / 1e3 / ops
		topNs = float64(d.topNs + d.osalNs(kindWAL, kindOther))
	}
	var rd, wr, sy [3]int64 // calls, bytes, ns over all files
	for k := 0; k < nKinds; k++ {
		for i := 0; i < 3; i++ {
			rd[i] += d.io[ioRead][k][i]
			wr[i] += d.io[ioWrite][k][i]
			sy[i] += d.io[ioSync][k][i]
		}
	}
	m["osal.read_calls_per_op"] = float64(rd[0]) / ops
	m["osal.write_calls_per_op"] = float64(wr[0]) / ops
	m["osal.syncs_per_op"] = float64(sy[0]) / ops
	m["osal.bytes_read_per_op"] = float64(rd[1]) / ops
	m["osal.bytes_written_per_op"] = float64(wr[1]) / ops
	m["osal.read_us_per_op"] = float64(rd[2]) / 1e3 / ops
	m["osal.write_us_per_op"] = float64(wr[2]) / 1e3 / ops
	m["osal.sync_us_per_op"] = float64(sy[2]) / 1e3 / ops
	m["storage.page_reads_per_op"] = float64(d.pageReads) / ops
	m["storage.page_writes_per_op"] = float64(d.pageWrites) / ops
	m["storage.self_us_per_op"] = float64(d.storageNs-d.osalNs(kindData)) / 1e3 / ops
	m["buffer.self_us_per_op"] = float64(d.bufferNs-d.storageNs) / 1e3 / ops
	m["btree.pages_per_lookup"] = ratio(float64(d.getPages), float64(d.gets))
	m["btree.allocs_per_write"] = ratio(float64(d.bufAllocs), float64(writes))
	m["btree.self_us_per_op"] = float64(d.btreeNs-d.bufferNs) / 1e3 / ops
	m["trace.self_time_coverage"] = topNs / e2eNs
	for _, l := range perLayer {
		if _, ok := m[l.name]; !ok {
			m[l.name] = 0
		}
	}
	return m, nil
}
