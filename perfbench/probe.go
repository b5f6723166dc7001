package main

import (
	"encoding/binary"
	"runtime"
	"sync"
	"time"
)

// The benchmark shares its host with other machines' work, and the
// host's speed drifts by 20–30% over minutes: every time and rate of a
// run moves together. A fixed piece of CPU work, timed between the
// rounds of a run while no job is running, measures that drift, and
// the run's throughput, CPU and latency figures are scaled to a
// reference host speed (see hostExp). The probe is the benchmark's own
// code, so a change to the program cannot move it.

// probeRef is the probe's median wall time on the reference host (a
// 2-vCPU VM at 2.0 GHz with Go 1.24). Figures are reported as if every
// run had been made at that speed.
const probeRef = 6500 * time.Microsecond

// probeKeys sizes each probe goroutine's map: a working set that stays
// in a private cache, like the pipelines' keyed state.
const probeKeys = 1 << 11

// probeSink keeps the probe's result live so the compiler cannot drop
// the work.
var probeSink uint64

// probeOnce runs the fixed probe work on every CPU and returns its
// wall time: map inserts and lookups, small allocations, and varint
// encoding, the kinds of work the runtime does per record.
func probeOnce() time.Duration {
	n := runtime.NumCPU()
	var wg sync.WaitGroup
	sums := make([]uint64, n)
	t0 := time.Now()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := make(map[uint64]*[2]uint64, probeKeys)
			buf := make([]byte, 0, 16*probeKeys)
			var sum uint64
			for pass := uint64(0); pass < 96; pass++ {
				buf = buf[:0]
				for k := uint64(0); k < probeKeys; k++ {
					key := (k*0x9E3779B97F4A7C15 + pass) % (probeKeys * 2)
					v := m[key]
					if v == nil {
						v = new([2]uint64)
						m[key] = v
					}
					v[0] += k
					v[1] ^= key
					buf = binary.AppendUvarint(buf, v[0]^v[1])
				}
				for _, b := range buf {
					sum += uint64(b)
				}
				if pass%32 == 31 {
					clear(m)
				}
			}
			sums[g] = sum
		}(g)
	}
	wg.Wait()
	d := time.Since(t0)
	for _, s := range sums {
		probeSink += s
	}
	return d
}

// hostProbe collects a run's probe times.
type hostProbe struct {
	times []time.Duration
}

// probesPerCall is how many probes each call runs back to back; their
// median is one sample.
const probesPerCall = 3

// sample times the probe between rounds. It collects garbage first, so
// the previous round's leftovers do not land in the probe.
func (h *hostProbe) sample() {
	runtime.GC()
	ds := make([]time.Duration, probesPerCall)
	for i := range ds {
		ds[i] = probeOnce()
	}
	h.times = append(h.times, time.Duration(medianDuration(ds)*1e6))
}

// slowdown is the host's slowdown against the reference: the run's
// median probe time over probeRef. Times are divided by it and rates
// multiplied by it.
func (h *hostProbe) slowdown() float64 {
	return medianDuration(h.times) * 1e6 / float64(probeRef)
}
