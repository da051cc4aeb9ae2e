package main

import (
	"math"
	"sort"
	"time"
)

// failedMS is the latency recorded for a request that failed: it sorts above
// every success, so a failure can only push a percentile up.
var failedMS = math.Inf(1)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of vals:
// the smallest value with at least p% of the values at or below it. Failed
// requests are in vals as +Inf. It returns NaN for no values.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// mean returns the arithmetic mean of vals (0 for none).
func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// median returns the median of vals (NaN for none); it sorts a copy.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// dueLatencyMS is an open-loop request's latency: from the instant the
// schedule said to send it to the instant its reply arrived. Timing from the
// due time rather than the actual send charges a stalled generator or a busy
// connection to the request instead of hiding it; a failed request is +Inf.
func dueLatencyMS(due, done time.Time, ok bool) float64 {
	if !ok {
		return failedMS
	}
	return ms(done.Sub(due))
}

// lateMS is how late the generator sent a request: actual send minus due.
func lateMS(due, sent time.Time) float64 { return ms(sent.Sub(due)) }

// counters is a set of named cumulative counters read at one instant.
type counters map[string]int64

// delta returns after - before for every counter in after.
func delta(before, after counters) counters {
	d := make(counters, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// perAsk is a counter's growth divided by the asks that caused it (0 when
// there were no asks).
func perAsk(growth int64, asks int) float64 {
	if asks <= 0 {
		return 0
	}
	return float64(growth) / float64(asks)
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
