package main

import (
	"math"
	"sort"
	"time"
)

// metric is one reported number. n is the sample count behind a timing
// (0 for counts and ratios).
type metric struct {
	name  string
	unit  string
	value float64
	n     int
}

type metricSet struct {
	list []metric
}

func (ms *metricSet) add(name, unit string, value float64, n int) {
	ms.list = append(ms.list, metric{name: name, unit: unit, value: value, n: n})
}

func (ms *metricSet) get(name string) (metric, bool) {
	for _, m := range ms.list {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// percentile returns the p-quantile (0 < p < 1) of sorted durations by
// linear interpolation between closest ranks.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	frac := pos - float64(lo)
	return sorted[lo] + time.Duration(frac*float64(sorted[hi]-sorted[lo]))
}

// supports reports whether at least ten samples lie beyond the p-quantile,
// the condition under which a percentile is reported at all.
func supports(n int, p float64) bool {
	return float64(n)*(1-p) >= 10
}

func sortedCopy(d []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), d...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func medianDur(d []time.Duration) time.Duration { return percentile(sortedCopy(d), 0.5) }

func meanDur(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range d {
		sum += x
	}
	return sum / time.Duration(len(d))
}

func medianFloat(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles matches Python's statistics.quantiles(values, n=4), the
// default exclusive method, so the A/A table reads like the driver's.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
