// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one seeded, fixed-operation-count, closed-loop
// workload through a derived product's public surface, checks every
// result against an oracle, and prints one JSON object as its last line
// of standard output:
//
//	perfbench --workload kv-hot --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the object holds the end-to-end metrics, timings at
// reference speed (see refspeed.go); with --trace 1 it holds the
// per-layer table of a traced run (see layers.go), timings raw. With
// --repeat N the command runs the workload N times in child processes
// with seeds seed..seed+N-1 and prints a steadiness report instead.
// Build and run it through run.sh, which keeps every file it writes
// under .bench_build/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"famedb/internal/server"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics in report order with their units.
var endToEnd = []struct{ name, unit string }{
	{"ops_per_s", "1/s"},
	{"read_p50_us", "us"},
	{"read_p90_us", "us"},
	{"write_p50_us", "us"},
	{"write_p90_us", "us"},
	{"scan_p50_us", "us"},
	{"cpu_us_per_op", "us"},
	{"heap_mb", "MB"},
	{"write_amp", "ratio"},
	{"space_amp", "ratio"},
	{"setup_s", "s"},
	{"restart_s", "s"},
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "how long to measure")
	trace := flag.Int("trace", 0, "1 reports the per-layer table of a traced run")
	workdir := flag.String("workdir", ".bench_build", "directory for database files")
	repeat := flag.Int("repeat", 0, "run N times in child processes and report the spread")
	flag.Parse()
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *repeat > 0 {
		if err := steadiness(w, *seed, *seconds, *trace, *repeat, *workdir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, dir)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printTable(os.Stderr, w, res)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run repeats rounds with seeds derived from seed until the time is
// spent (at least one round) and reports each metric's median over the
// rounds.
func run(w *workload, seed int64, budget time.Duration, traced bool, dir string) (*result, error) {
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d trace=%v %s\n", w.name, seed, traced, envLine())
	start := time.Now()
	rec := newRecorder()
	var rounds []map[string]float64
	var last time.Duration
	for r := 0; r == 0 || time.Since(start)+last <= budget; r++ {
		t0 := time.Now()
		rdir := filepath.Join(dir, fmt.Sprintf("r%d", r))
		rseed := seed*1000 + int64(r)
		var m map[string]float64
		var err error
		if traced {
			m, err = traceRound(w, rseed, rdir, rec)
		} else {
			m, err = e2eRound(w, rseed, rdir, rec)
		}
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		rounds = append(rounds, m)
		last = time.Since(t0)
		fmt.Fprintf(os.Stderr, "round %d: %s\n", r, roundLine(m))
	}
	res := &result{Metrics: map[string]metric{}}
	names := endToEnd
	if traced {
		names = perLayer
	}
	for _, e := range names {
		res.Metrics[e.name] = metric{medianOf(rounds, e.name), e.unit}
	}
	res.Attempted, res.Failed = rec.attempted, rec.failed
	res.Correct = rec.failed == 0
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d rounds; samples read=%d write=%d scan=%d\n",
		len(rounds), rec.read.n, rec.write.n, rec.scan.n)
	if !traced {
		fmt.Fprintf(os.Stderr, "perfbench: timings at reference speed; reference kernel typical %.3f ms, total %.3f ms (at reference speed %.3f, %.3f)\n",
			medianOf(rounds, "ref_typ_ms"), medianOf(rounds, "ref_ms"), float64(refTypical)/1e6, float64(refTotal)/1e6)
	}
	if rec.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed; first: %v\n", rec.failed, rec.attempted, rec.firstErr)
	}
	return res, nil
}

func medianOf(rounds []map[string]float64, name string) float64 {
	xs := make([]float64, 0, len(rounds))
	for _, m := range rounds {
		if v, ok := m[name]; ok {
			xs = append(xs, v)
		}
	}
	return median(xs)
}

// phaseStats are the process-level readings taken around a measured
// phase.
type phaseStats struct {
	wall, cpu  time.Duration
	allocBytes uint64
	gcCPU      float64 // seconds
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAlloc returns the live heap. It collects twice: a sync.Pool (the
// B+-tree keeps one per tree) stays registered with the runtime until
// the second collection after its last use, and keeps its tree alive.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// measure runs fn as a measured phase: after a GC, timing wall and
// process CPU (all goroutines, GC included) and counting allocation.
func measure(fn func()) phaseStats {
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := gcCPUSeconds()
	c0 := cpuTime()
	t0 := time.Now()
	fn()
	wall := time.Since(t0)
	cpu := cpuTime() - c0
	gc := gcCPUSeconds() - gc0
	runtime.ReadMemStats(&ms1)
	return phaseStats{wall: wall, cpu: cpu, allocBytes: ms1.TotalAlloc - ms0.TotalAlloc, gcCPU: gc}
}

// setup opens a product over dir, loads the workload's records,
// checkpoints, and (node products) starts the server.
func setup(w *workload, in input, dir string, traced bool) (*stack, error) {
	open := openComposed
	if traced {
		open = openTraced
	}
	s, err := open(w, dir)
	if err != nil {
		return nil, err
	}
	if err := in.load(s); err != nil {
		s.close()
		return nil, fmt.Errorf("load: %w", err)
	}
	if err := s.checkpoint(); err != nil {
		s.close()
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if ni, ok := in.(*nodeInput); ok {
		addr, err := s.serve()
		if err == nil {
			err = ni.dial(addr)
		}
		if err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// serve starts the Server feature's TCP front end on a loopback port
// and returns its address; closing the stack stops it.
func (s *stack) serve() (string, error) {
	if s.inst != nil {
		srv, err := s.inst.Serve("127.0.0.1:0")
		if err != nil {
			return "", err
		}
		return srv.Addr(), nil
	}
	srv, err := server.Serve("127.0.0.1:0", server.Config{Mgr: s.mgr, Metrics: s.reg.Repl()})
	if err != nil {
		return "", err
	}
	inner := s.close
	s.close = func() error {
		srv.Close()
		return inner()
	}
	return srv.Addr(), nil
}

// e2eRound runs one round of the composed product and returns its
// end-to-end readings; latencies and oracle verdicts go to rec.
func e2eRound(w *workload, seed int64, dir string, rec *recorder) (map[string]float64, error) {
	in := w.gen(w, rand.New(rand.NewSource(seed)))
	runtime.GC()
	typ, tot := refKernel()
	t0 := time.Now()
	s, err := setup(w, in, dir, false)
	if err != nil {
		return nil, err
	}
	setupS := time.Since(t0).Seconds()

	r := newRecorder()
	io0 := s.io()
	ph := measure(func() { in.phase(s, r) })
	heapOpen := heapAlloc()

	// Restart: Close (the final flush) + reopen with recovery + first read.
	t1 := time.Now()
	if err := s.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	closeS := time.Since(t1).Seconds()
	dev := s.io().sub(io0)
	dirBytes, err := dirSize(dir)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	s, err = openComposed(w, dir)
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	err = in.firstRead(s)
	restartS := closeS + time.Since(t2).Seconds()
	if !r.check(err == nil) {
		r.note("first read after restart: %v", err)
	}
	in.verify(s, r)
	if err := s.close(); err != nil {
		return nil, err
	}
	s = nil
	heapClosed := heapAlloc()
	typ2, tot2 := refKernel()
	rec.merge(r)
	ops := float64(r.read.n + r.write.n + r.scan.n)
	m := map[string]float64{
		"ops_per_s":     ops / ph.wall.Seconds(),
		"cpu_us_per_op": float64(ph.cpu.Microseconds()) / ops,
		"heap_mb":       (float64(heapOpen) - float64(heapClosed)) / (1 << 20),
		"write_amp":     float64(dev.bytesWritten) / float64(r.userBytes),
		"space_amp":     float64(dirBytes) / float64(in.liveBytes()),
		"setup_s":       setupS,
		"restart_s":     restartS,
	}
	// Latency quantiles pool the round's samples over its clients; the
	// run reports their median over rounds, like every other reading.
	// The p99s only go to the log: their run-to-run spread on kv-hot and
	// sql-calendar exceeds what the benchmark's bounds allow.
	for _, q := range []struct {
		name string
		h    *hist
		q    float64
	}{
		{"read_p50_us", r.read, 0.5}, {"read_p90_us", r.read, 0.9}, {"read_p99_us", r.read, 0.99},
		{"write_p50_us", r.write, 0.5}, {"write_p90_us", r.write, 0.9}, {"write_p99_us", r.write, 0.99},
		{"scan_p50_us", r.scan, 0.5},
	} {
		ns, ok := q.h.quantile(q.q)
		if !ok {
			return nil, fmt.Errorf("%s: only %d samples, too few for that quantile", q.name, q.h.n)
		}
		m[q.name] = ns / 1e3
	}
	atRefSpeed(m, (typ+typ2)/2, (tot+tot2)/2, w.stallExposed)
	return m, os.RemoveAll(dir)
}

func dirSize(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

func printTable(f *os.File, w *workload, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(f, "%s: correct=%v attempted=%d failed=%d\n", w.name, res.Correct, res.Attempted, res.Failed)
	for _, n := range names {
		fmt.Fprintf(f, "  %-42s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

// roundLine is a one-line summary of a round's readings for the log.
func roundLine(m map[string]float64) string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	var b []byte
	for _, n := range names {
		b = fmt.Appendf(b, "%s=%.4g ", n, m[n])
	}
	return string(b)
}
