package main

import (
	"errors"
	"math"
	"sort"
	"syscall"
	"time"

	"ds2/internal/metrics"
	"ds2/internal/streamrt"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a percentile with fewer samples beyond it is an anecdote,
// not a measurement.
const minBeyond = 10

// tailLevel returns the highest quantile level, at most want, that
// leaves at least minBeyond of n samples above it. ok is false when n
// is too small to support any tail at all.
func tailLevel(n int, want float64) (level float64, ok bool) {
	if n <= minBeyond {
		return 0, false
	}
	return math.Min(want, 1-float64(minBeyond)/float64(n)), true
}

// weightedQuantile returns the smallest sample value whose cumulative
// weight reaches q of the total. It sorts samples in place.
func weightedQuantile(samples []metrics.LatencySample, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sort.Slice(samples, func(a, b int) bool { return samples[a].Latency < samples[b].Latency })
	var total float64
	for _, s := range samples {
		total += s.Weight
	}
	target := q * total
	var cum float64
	for _, s := range samples {
		cum += s.Weight
		if cum >= target {
			return s.Latency
		}
	}
	return samples[len(samples)-1].Latency
}

// latencySummary is one timing's median and supported tail.
type latencySummary struct {
	P50, Tail float64 // in the samples' unit
	TailLevel float64 // the quantile level Tail was taken at
	N         int     // sample count
}

// summarize takes the median and the tail at want (capped by the
// minBeyond rule) of weighted samples.
func summarize(samples []metrics.LatencySample, want float64) (latencySummary, error) {
	level, ok := tailLevel(len(samples), want)
	if !ok {
		return latencySummary{}, errors.New("too few samples for a tail percentile")
	}
	return latencySummary{
		P50:       weightedQuantile(samples, 0.5),
		Tail:      weightedQuantile(samples, level),
		TailLevel: level,
		N:         len(samples),
	}, nil
}

// durationSamples converts wall times into unit-weight samples in
// milliseconds.
func durationSamples(ds []time.Duration) []metrics.LatencySample {
	out := make([]metrics.LatencySample, len(ds))
	for i, d := range ds {
		out[i] = metrics.LatencySample{Latency: float64(d) / 1e6, Weight: 1}
	}
	return out
}

// median returns the median of xs (the mean of the middle pair for an
// even count); NaN when empty. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// medianDuration is median over durations, in milliseconds.
func medianDuration(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / 1e6
	}
	return median(xs)
}

// sourceLag is how many records a paced source is behind its schedule:
// records due at rate over elapsed seconds of the source's life, minus
// the records it actually pushed. Negative means ahead (a source emits
// a burst before the time it covers has fully passed).
func sourceLag(rate, elapsed float64, pushed int64) float64 {
	return rate*elapsed - float64(pushed)
}

// pushedBy sums one operator's Pushed counts over an interval's
// windows.
func pushedBy(iv streamrt.Interval, op string) int64 {
	var n float64
	for _, w := range iv.Windows {
		if w.ID.Operator == op {
			n += w.Pushed
		}
	}
	return int64(n)
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB
// (Linux reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}
