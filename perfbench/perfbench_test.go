package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// small returns a copy of the named workload scaled down for tests.
func small(t *testing.T, name string, keys, ops int) *workload {
	t.Helper()
	w := *workloadByName(name)
	w.keys, w.ops = keys, ops
	return &w
}

// corruptingStore flips one byte of the n-th value Get returns.
type corruptingStore struct {
	kvStore
	n int
}

func (c *corruptingStore) Get(k []byte) ([]byte, error) {
	v, err := c.kvStore.Get(k)
	if c.n--; c.n == 0 && err == nil {
		v = append([]byte(nil), v...)
		v[len(v)/2] ^= 0x40
	}
	return v, err
}

// corruptingScan flips one byte of the n-th value scans hand back.
type corruptingScan struct {
	kvStore
	n int
}

func (c *corruptingScan) Scan(from, to []byte, fn func(k, v []byte) bool) error {
	return c.kvStore.Scan(from, to, func(k, v []byte) bool {
		if c.n--; c.n == 0 {
			v = append([]byte(nil), v...)
			v[0] ^= 1
		}
		return fn(k, v)
	})
}

func TestOracleCatchesOneCorruptValue(t *testing.T) {
	for _, tc := range []struct {
		name string
		wrap func(kvStore) kvStore
	}{
		{"get", func(s kvStore) kvStore { return &corruptingStore{kvStore: s, n: 500} }},
		{"scan", func(s kvStore) kvStore { return &corruptingScan{kvStore: s, n: 500} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := small(t, "kv-churn", 2000, 4000)
			in := w.gen(w, rand.New(rand.NewSource(7)))
			s, err := setup(w, in, t.TempDir(), false)
			if err != nil {
				t.Fatal(err)
			}
			defer s.close()
			s.kv = tc.wrap(s.kv)
			rec := newRecorder()
			in.phase(s, rec)
			if rec.failed != 1 || rec.attempted != int64(w.ops) {
				t.Fatalf("failed %d of %d operations, want exactly 1 of %d", rec.failed, rec.attempted, w.ops)
			}
		})
	}
}

// oracleStore answers from the input's own oracle without allocating,
// so a test can count what the timed loop itself allocates.
type oracleStore struct{ in *kvInput }

func (o oracleStore) Get(k []byte) ([]byte, error) { return o.in.vals[o.in.cur[keyID(k)]], nil }
func (o oracleStore) Put(k, v []byte) error        { return nil }
func (o oracleStore) Update(k, v []byte) error     { return nil }
func (o oracleStore) Remove(k []byte) error        { return nil }
func (o oracleStore) Scan(from, to []byte, fn func(k, v []byte) bool) error {
	for id := keyID(from); id < keyID(to); id++ {
		if v := o.in.cur[id]; v >= 0 && !fn(o.in.keys[id], o.in.vals[v]) {
			break
		}
	}
	return nil
}

func TestTimedLoopAllocatesNothingPerOperation(t *testing.T) {
	for _, name := range []string{"kv-hot", "kv-churn"} {
		w := small(t, name, 2000, 20000)
		in := w.gen(w, rand.New(rand.NewSource(1))).(*kvInput)
		s := &stack{kv: oracleStore{in}}
		if err := in.load(s); err != nil {
			t.Fatal(err)
		}
		start := append([]int32(nil), in.cur...)
		rec := newRecorder()
		allocs := testing.AllocsPerRun(2, func() {
			copy(in.cur, start)
			in.phase(s, rec)
		})
		if rec.failed != 0 {
			t.Fatalf("%s: %d checks failed against the oracle store: %v", name, rec.failed, rec.firstErr)
		}
		t.Logf("%s: %.0f allocations over %d operations", name, allocs, w.ops)
		if allocs > 2 {
			t.Errorf("%s: the loop over %d operations allocated %.0f times, want a constant ≤ 2", name, w.ops, allocs)
		}
	}
}

func TestCleanRunsPassTheOracle(t *testing.T) {
	for _, tc := range []struct {
		name      string
		keys, ops int
	}{
		{"kv-hot", 2000, 40000},
		{"kv-churn", 2000, 8000},
		{"node-commit", 1000, 6000},
		{"sql-calendar", 1000, 8000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := small(t, tc.name, tc.keys, tc.ops)
			rec := newRecorder()
			m, err := e2eRound(w, 3, filepath.Join(t.TempDir(), "r"), rec)
			if err != nil {
				t.Fatal(err)
			}
			if rec.failed != 0 {
				t.Fatalf("%d of %d operations failed: %v", rec.failed, rec.attempted, rec.firstErr)
			}
			for _, e := range endToEnd {
				if v, ok := m[e.name]; ok && !(v > 0) {
					t.Errorf("%s = %v, want > 0", e.name, v)
				}
			}
		})
	}
}

// TestTracedStackFidelity replays one seeded single-client round on the
// composed product and on the hand-built traced stack: their measured
// phases must issue identical osal calls (traceRound counts a mismatch
// as a failed operation), and the layers' self times must cover the
// operations' end-to-end time to within 10%.
func TestTracedStackFidelity(t *testing.T) {
	for _, tc := range []struct {
		name      string
		keys, ops int
	}{
		{"kv-hot", 4000, 100000},
		{"kv-churn", 4000, 10000},
		{"sql-calendar", 2000, 8000},
		{"node-commit", 1000, 2000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := small(t, tc.name, tc.keys, tc.ops)
			rec := newRecorder()
			m, err := traceRound(w, 5, filepath.Join(t.TempDir(), "r"), rec)
			if err != nil {
				t.Fatal(err)
			}
			if rec.failed != 0 {
				t.Fatalf("%d of %d checks failed: %v", rec.failed, rec.attempted, rec.firstErr)
			}
			for _, l := range perLayer {
				if _, ok := m[l.name]; !ok {
					t.Errorf("missing per-layer metric %s", l.name)
				}
			}
			if cov := m["trace.self_time_coverage"]; w.clients == 1 && math.Abs(cov-1) > 0.1 {
				t.Errorf("self-time coverage %.3f, want within 10%% of 1", cov)
			}
		})
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestHistQuantiles(t *testing.T) {
	h := newHist()
	for v := int64(1); v <= 100000; v++ {
		h.record(v * 37)
	}
	for _, q := range []float64{0.5, 0.99} {
		got, ok := h.quantile(q)
		want := q * 100000 * 37
		if !ok || math.Abs(got-want)/want > 0.01 {
			t.Errorf("q%.2f = %.0f (ok=%v), want %.0f within 1%%", q, got, ok, want)
		}
	}
	few := newHist()
	for v := int64(0); v < 500; v++ {
		few.record(v)
	}
	if _, ok := few.quantile(0.99); ok {
		t.Error("p99 of 500 samples has 5 beyond it; it must not be reported as measured")
	}
}

// TestBenchmarkJSONMatchesProgram keeps the repository's BENCHMARK.json
// in step with the workloads and metrics this program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, program %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		if workloadByName(sw.Name) == nil {
			t.Errorf("workload %s unknown to the program", sw.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i,
					got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestRefKernelAllocatesNothing: an allocation in the kernel could start
// a collection inside it, and its duration would then depend on the
// product's heap instead of only on the host's speed.
func TestRefKernelAllocatesNothing(t *testing.T) {
	if allocs := testing.AllocsPerRun(3, func() { refKernel() }); allocs != 0 {
		t.Errorf("refKernel allocated %.0f times, want 0", allocs)
	}
}

func TestAtRefSpeedScalesTimingsOnly(t *testing.T) {
	m := map[string]float64{"ops_per_s": 1000, "read_p50_us": 10, "cpu_us_per_op": 4, "setup_s": 2,
		"restart_s": 1, "heap_mb": 3, "write_amp": 5}
	// A host at half the reference speed that also stalled the process
	// for half of the kernel's total.
	atRefSpeed(m, 2*refTypical, 4*refTotal, false)
	ms := float64(time.Millisecond)
	want := map[string]float64{"ops_per_s": 4000, "read_p50_us": 5, "cpu_us_per_op": 1, "setup_s": 0.5,
		"restart_s": 0.25, "heap_mb": 3, "write_amp": 5,
		"ref_typ_ms": 2 * float64(refTypical) / ms, "ref_ms": 4 * float64(refTotal) / ms}
	for name, v := range want {
		if math.Abs(m[name]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, m[name], v)
		}
	}
	// A stall-exposed workload's latencies scale like the totals.
	m = map[string]float64{"read_p50_us": 10}
	atRefSpeed(m, 2*refTypical, 4*refTotal, true)
	if m["read_p50_us"] != 2.5 {
		t.Errorf("stall-exposed read_p50_us = %v, want 2.5", m["read_p50_us"])
	}
}
