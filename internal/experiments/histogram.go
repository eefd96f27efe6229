// Package experiments regenerates every table and figure of the paper's
// evaluation (Table I, Figs. 1, 7, 8, 9, the Sec. VI-B headline numbers,
// the Sec. VI-C detection comparison, and the Sec. IV-F engineering
// statistics). Each experiment returns a structured result plus a rendered
// table annotated with the paper's values; cmd/benchrun prints them.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Bucket is one histogram bin over simulated minutes.
type Bucket struct {
	Label string
	LoMin float64 // inclusive
	HiMin float64 // exclusive; +Inf for the last open bucket
}

// Histogram buckets matching the paper's figures.
var (
	// Fig1Buckets match Fig. 1 (FlowDroid call graph generation).
	Fig1Buckets = []Bucket{
		{"1m - 5m", 0, 5},
		{"5m - 10m", 5, 10},
		{"10m - 20m", 10, 20},
		{"20m - 30m", 20, 30},
		{"30m - 100m", 30, 100},
		{"Timeout", math.Inf(1), math.Inf(1)},
	}
	// Fig7Buckets match Fig. 7 (BackDroid).
	Fig7Buckets = []Bucket{
		{"0m - 1m", 0, 1},
		{"1m - 5m", 1, 5},
		{"5m - 10m", 5, 10},
		{"10m - 20m", 10, 20},
		{"20m - 30m", 20, 30},
		{"30m - 100m", 30, 100},
	}
	// Fig8Buckets match Fig. 8 (Amandroid).
	Fig8Buckets = []Bucket{
		{"1m - 5m", 0, 5},
		{"5m - 10m", 5, 10},
		{"10m - 30m", 10, 30},
		{"30m - 100m", 30, 100},
		{"100m - 300m", 100, 300},
		{"Timeout", math.Inf(1), math.Inf(1)},
	}
)

// Sample is one app's timing outcome.
type Sample struct {
	App      string
	Minutes  float64
	TimedOut bool
}

// HistogramResult counts samples per bucket.
type HistogramResult struct {
	Title   string
	Buckets []Bucket
	Counts  []int
	Total   int
}

// MakeHistogram buckets the samples. Timed-out samples land in the bucket
// whose Lo is +Inf (the "Timeout" bar); if none exists they are dropped.
func MakeHistogram(title string, samples []Sample, buckets []Bucket) HistogramResult {
	res := HistogramResult{Title: title, Buckets: buckets, Counts: make([]int, len(buckets))}
	for _, s := range samples {
		res.Total++
		if s.TimedOut {
			for i, b := range buckets {
				if math.IsInf(b.LoMin, 1) {
					res.Counts[i]++
					break
				}
			}
			continue
		}
		for i, b := range buckets {
			if math.IsInf(b.LoMin, 1) {
				continue
			}
			hi := b.HiMin
			if s.Minutes >= b.LoMin && (s.Minutes < hi || (math.IsInf(hi, 1) && !s.TimedOut)) {
				res.Counts[i]++
				break
			}
		}
	}
	return res
}

// Render draws the histogram as an ASCII table with bars.
func (h HistogramResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (n=%d)\n", h.Title, h.Total)
	maxCount := 1
	for _, c := range h.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	for i, bk := range h.Buckets {
		bar := strings.Repeat("#", h.Counts[i]*40/maxCount)
		fmt.Fprintf(&b, "  %-12s %4d  %s\n", bk.Label, h.Counts[i], bar)
	}
	return b.String()
}

// Median returns the median of the values (0 for empty input).
func Median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 0 {
		return (sorted[mid-1] + sorted[mid]) / 2
	}
	return sorted[mid]
}

// Fraction returns the share of samples for which pred holds.
func Fraction(samples []Sample, pred func(Sample) bool) float64 {
	if len(samples) == 0 {
		return 0
	}
	n := 0
	for _, s := range samples {
		if pred(s) {
			n++
		}
	}
	return float64(n) / float64(len(samples))
}
