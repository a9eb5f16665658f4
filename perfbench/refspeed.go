package main

import (
	"slices"
	"strings"
	"time"
)

// The host this benchmark runs on is shared, and it slows in two ways.
// For minutes at a time it runs all code 15–25% slower or faster, which
// moves every timing of a ten-run set together; and at times it
// deschedules the process for whole milliseconds, which leaves most
// single operations alone but stretches every wall-clock total. Each
// round therefore times a fixed reference kernel, which uses nothing of
// the product, with no product open (before setup and after the final
// Close), in refChunks equal chunks. The median chunk measures the
// host's speed while it runs the process (typical); the sum adds the
// time it did not (total). Per-operation latency quantiles are scaled by
// refTypical/typical, wall and CPU totals (ops_per_s, cpu_us_per_op,
// setup_s, restart_s) by refTotal/total; so are the latencies of a
// stall-exposed workload, whose requests wait milliseconds in a pipeline. A change to the product
// moves the scaled timings as it moves the raw ones; a change of host
// speed moves the kernel too and cancels out. The log gives each round's
// ref_typ_ms and ref_ms, so raw timings can be recovered.

// refTypical and refTotal are the kernel's two durations at reference
// speed: about their medians on a 2-vCPU Intel Xeon VM (Go 1.24).
// Changing the kernel or these constants re-baselines every timing.
const (
	refTypical = 9 * time.Millisecond
	refTotal   = 10 * time.Millisecond
)

const refChunks = 32

var (
	refKeys = make([]uint64, 1<<11)
	refMap  = make(map[uint64]uint64, 1<<12)
	refBuf  = make([]byte, 1<<20)
	refSink uint64
)

// refKernel runs refChunks chunks of the same fixed work: hashing, map
// updates, a sort and 4 KiB copies, the kinds of work the product's hot
// paths do. It returns the median chunk's duration times refChunks and
// the total. It allocates nothing, so no collection runs inside it.
func refKernel() (typical, total time.Duration) {
	var chunks [refChunks]time.Duration
	x := uint64(88172645463325252)
	var page [4096]byte
	t0 := time.Now()
	for c := range chunks {
		t := time.Now()
		clear(refMap)
		for i := range refKeys {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			refKeys[i] = x
			refMap[x&0xfff] += x
		}
		slices.Sort(refKeys)
		for i := 0; i < 128; i++ {
			off := int(refKeys[i]%uint64(len(refBuf)/len(page))) * len(page)
			copy(page[:], refBuf[off:off+len(page)])
			page[i%len(page)]++
			copy(refBuf[off:off+len(page)], page[:])
		}
		chunks[c] = time.Since(t)
	}
	total = time.Since(t0)
	refSink += refMap[5] + refKeys[7] + uint64(refBuf[100])
	slices.Sort(chunks[:])
	return chunks[refChunks/2] * refChunks, total
}

// atRefSpeed scales a round's timings to reference speed, given the
// kernel's typical and total durations in the round (see above), and
// records both as ref_typ_ms and ref_ms. Counts and ratios are left
// alone.
func atRefSpeed(m map[string]float64, typical, total time.Duration, stallExposed bool) {
	perOp := float64(refTypical) / float64(typical)
	wall := float64(refTotal) / float64(total)
	if stallExposed {
		perOp = wall
	}
	for name, v := range m {
		switch {
		case name == "ops_per_s":
			m[name] = v / wall
		case name == "cpu_us_per_op", name == "setup_s", name == "restart_s":
			m[name] = v * wall
		case strings.HasSuffix(name, "_us"):
			m[name] = v * perOp
		}
	}
	m["ref_typ_ms"] = float64(typical) / 1e6
	m["ref_ms"] = float64(total) / 1e6
}
