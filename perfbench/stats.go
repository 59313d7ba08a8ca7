package main

import (
	"math"
	"sort"
	"time"
)

// failedLatency is what a failed, refused or wrong answer counts as:
// it misses every latency limit, so it sorts after every real sample.
var failedLatency = math.Inf(1)

// quantile returns the q-quantile (0 < q <= 1) of xs by the
// nearest-rank rule: the smallest sample with at least q of the
// samples at or below it. It sorts a copy; +Inf samples (failures)
// sort last. NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the arithmetic mean, 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// beyond counts the samples strictly above the q-quantile: the number
// of samples a reported percentile rests on.
func beyond(xs []float64, q float64) int {
	v := quantile(xs, q)
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// finite maps +Inf (a percentile that landed on failures) to a
// JSON-encodable sentinel: 1e9 ms reads as "missed every limit".
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 1e9
	}
	return v
}

// lagSummary describes how late an open-loop generator released its
// requests relative to their due times.
type lagSummary struct {
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"`
	// OfferedPerS is the schedule's rate; AchievedPerS the rate at
	// which requests were actually released over the same window.
	OfferedPerS  float64 `json:"offered_per_s"`
	AchievedPerS float64 `json:"achieved_per_s"`
	// Behind is set when the generator could not keep its schedule:
	// its p99 lateness exceeded behindLagMS or it released fewer than
	// 95 % of the requests per second the schedule offered.
	Behind bool `json:"behind"`
}

// behindLagMS is the p99 generator lateness above which a run is
// flagged: well above one timer tick (about 1 ms on coarse-timer VMs),
// well below a stall that would distort the open-loop latencies.
const behindLagMS = 5.0

// summarizeLag computes lateness statistics from due and release
// offsets (same length, same order) over a window of the given length.
func summarizeLag(due, released []time.Duration, window time.Duration) lagSummary {
	var s lagSummary
	if len(due) == 0 || window <= 0 {
		return s
	}
	lags := make([]float64, len(due))
	last := time.Duration(0)
	for i := range due {
		lags[i] = ms(released[i] - due[i])
		if lags[i] > s.MaxMS {
			s.MaxMS = lags[i]
		}
		if released[i] > last {
			last = released[i]
		}
	}
	s.P50MS = quantile(lags, 0.5)
	s.P99MS = quantile(lags, 0.99)
	s.OfferedPerS = float64(len(due)) / window.Seconds()
	span := window
	if last > span {
		span = last
	}
	s.AchievedPerS = float64(len(due)) / span.Seconds()
	s.Behind = s.P99MS > behindLagMS || s.AchievedPerS < 0.95*s.OfferedPerS
	return s
}
