package main

import (
	"math"
	"sort"
	"time"
)

// sample is one completed operation as its client saw it: when it
// finished (relative to the start of the measured window, negative
// during warm-up) and how long the call took.
type sample struct {
	end time.Duration
	dur time.Duration
	alt bool // made by the loop's alternate variant (see loopConfig.alt)
}

// span is one traced call, recorded by the benchmark around its own
// calls into a layer (spans inside the program are a later issue).
// Spans of one request share Req; Parent is the index of the causing
// span within the same request, -1 for the root.
type span struct {
	Name    string `json:"name"`
	Req     int64  `json:"req"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// subWindows is how many equal slices a measured window is cut into:
// throughput is the median of the slices, so one disturbed slice on a
// shared host does not move the reported number.
const subWindows = 5

// durationsMs returns the durations of the samples that completed
// inside [0, window), in milliseconds, sorted ascending.
func durationsMs(samples []sample, window time.Duration) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		if s.end >= 0 && s.end < window {
			out = append(out, float64(s.dur)/float64(time.Millisecond))
		}
	}
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank q-quantile of an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// median is the conventional one: the middle value, or the mean of the
// two middle values when there is an even number of them (NaN for none).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailSupported reports whether the q-quantile has at least ten samples
// beyond it — the rule under which a tail percentile is reported at all.
func tailSupported(n int, q float64) bool {
	return float64(n)*(1-q) >= 10
}

// throughput returns the per-sub-window rates (units per second, each
// completion counting `units`) of the samples completing inside the
// window, and their median.
func throughput(samples []sample, window time.Duration, units int) (med float64, slices []float64) {
	counts := make([]int, subWindows)
	for _, s := range samples {
		if s.end >= 0 && s.end < window {
			counts[int(int64(s.end)*subWindows/int64(window))]++
		}
	}
	slices = make([]float64, subWindows)
	per := window.Seconds() / subWindows
	for i, c := range counts {
		slices[i] = float64(c*units) / per
	}
	return median(slices), slices
}

// spreadPct is (max − min) / median of the sub-window rates, in percent:
// the run's own noise floor.
func spreadPct(slices []float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range slices {
		lo, hi = min(lo, v), max(hi, v)
	}
	m := median(slices)
	if m == 0 {
		return 0
	}
	return 100 * (hi - lo) / m
}

// variant returns the samples made by the loop's main (alt == false) or
// alternate variant.
func variant(samples []sample, alt bool) []sample {
	out := make([]sample, 0, len(samples)/2)
	for _, s := range samples {
		if s.alt == alt {
			out = append(out, s)
		}
	}
	return out
}

// pairedP50 returns the median latency (ms) of each variant of an
// alternating loop.
func pairedP50(samples []sample, window time.Duration) (main, alt float64) {
	return quantile(durationsMs(variant(samples, false), window), 0.5),
		quantile(durationsMs(variant(samples, true), window), 0.5)
}

// pairedRate returns each variant's completions per second: the median
// over the altSlices/2 slices of the window the variant ran in, so one
// disturbed slice does not decide the comparison. A call belongs to the
// slice it started in.
func pairedRate(samples []sample, window time.Duration, units int) (main, alt float64) {
	counts := make([]int, altSlices)
	for _, s := range samples {
		if start := s.end - s.dur; start >= 0 && start < window {
			counts[int(start*altSlices/window)]++
		}
	}
	per := window.Seconds() / altSlices
	var rates [2][]float64
	for k, c := range counts {
		rates[k%2] = append(rates[k%2], float64(c*units)/per)
	}
	return median(rates[0]), median(rates[1])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
