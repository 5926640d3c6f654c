// Package stats provides the metrics the paper reports: streaming mean and
// standard deviation of response times (Welford), latency histograms, the
// SDRPP metric (standard deviation of per-plane request counts, plotted in
// natural log), and wear-leveling dispersion.
package stats

import (
	"math"
	"math/bits"
	"sort"

	"dloop/internal/sim"
)

// Welford accumulates a streaming mean and variance without storing samples.
//
// Variance convention: Var/StdDev divide by n (population variance), treating
// the run's samples as the complete population — the convention the paper's
// SDRPP metric and response-time tables use. SampleVar divides by n-1
// (Bessel's correction) for callers estimating the variance of a larger
// population from a sample.
type Welford struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add folds one sample into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the sample count.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean, or 0 with no samples.
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the population variance (m2/n), or 0 with fewer than two
// samples.
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// StdDev returns the population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Var()) }

// Min returns the smallest sample, or NaN with no samples. NaN, not 0: an
// accumulator that saw nothing has no minimum, and a silent 0 would read as
// "some request finished instantly" in a min-latency report. JSON emitters
// must sanitize it (encoding/json rejects NaN).
func (w *Welford) Min() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.min
}

// Max returns the largest sample, or NaN with no samples (see Min).
func (w *Welford) Max() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.max
}

// Merge folds another accumulator into w (parallel Welford combination).
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.mean += d * float64(o.n) / float64(n)
	w.n = n
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
}

// LatencyHist is a logarithmic latency histogram with approximate quantiles.
// Buckets grow by ~26% per step (32 buckets per decade), bounding quantile
// error well under the variation the experiments care about.
type LatencyHist struct {
	counts []int64
	total  int64
}

const (
	histBucketsPerDecade = 32
	histMaxBuckets       = 32 * 12 // 1 ns .. 1000 s
)

// histBucket returns the bucket of a latency, int(log10(d)*32) capped at the
// last, by lookup: a logarithm per completed request was most of the fold's
// cost. d's bit length and the four bits after its leading one name a span
// of durations under one bucket wide, so d is in the bucket of the span's
// shortest duration or the next.
func histBucket(d sim.Duration) int {
	if d <= 0 {
		return 0
	}
	s := max(bits.Len64(uint64(d))-5, 0)
	b := int(histSpan[s*16+int(d>>s)])
	if uint64(d) >= histStart[b+1] {
		b++
	}
	return b
}

// histStart[b] is the shortest duration in bucket b (past the last: never),
// histSpan[s*16+k] the bucket of k<<s. The formula is monotone in d, so the
// lookup reproduces it exactly.
var histStart, histSpan = histTables()

func histTables() (start [histMaxBuckets + 1]uint64, span [58*16 + 32]uint16) {
	bucket := func(d int64) int {
		return min(int(math.Log10(float64(d))*histBucketsPerDecade), histMaxBuckets-1)
	}
	for b := 1; b < histMaxBuckets; b++ { // bucket b starts before 10^13 ns
		start[b] = 1 + uint64(sort.Search(1e13, func(i int) bool { return bucket(int64(i)+1) >= b }))
	}
	start[histMaxBuckets] = math.MaxUint64
	for s := 0; s <= 58; s++ { // 58 = 63-5: an int64's largest shift
		for k := 1; k < 32; k++ {
			if s == 0 || k >= 16 {
				span[s*16+k] = uint16(bucket(int64(k) << s))
			}
		}
	}
	return start, span
}

func histLower(b int) sim.Duration {
	return sim.Duration(math.Pow(10, float64(b)/histBucketsPerDecade))
}

// Add records one latency sample.
func (h *LatencyHist) Add(d sim.Duration) {
	if h.counts == nil {
		h.counts = make([]int64, histMaxBuckets)
	}
	h.counts[histBucket(d)]++
	h.total++
}

// Clone returns an independent deep copy of the histogram; the checkpoint
// machinery needs one because the bucket slice is unexported.
func (h *LatencyHist) Clone() LatencyHist {
	out := LatencyHist{total: h.total}
	if h.counts != nil {
		out.counts = append([]int64(nil), h.counts...)
	}
	return out
}

// Merge folds another histogram into h. Bucket counts are integers, so the
// merge is exact: a merged histogram equals one that saw every sample
// directly, regardless of fold order.
func (h *LatencyHist) Merge(o LatencyHist) {
	if o.total == 0 {
		return
	}
	if h.counts == nil {
		h.counts = make([]int64, histMaxBuckets)
	}
	for b, c := range o.counts {
		h.counts[b] += c
	}
	h.total += o.total
}

// Quantile returns an approximation of the q-quantile (0 < q <= 1), or 0
// with no samples.
func (h *LatencyHist) Quantile(q float64) sim.Duration {
	if h.total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for b, c := range h.counts {
		cum += c
		if cum >= target {
			return histLower(b)
		}
	}
	return histLower(histMaxBuckets - 1)
}

// StdDevInt64 returns the population standard deviation of an integer
// series. SDRPP is this over per-plane request counts.
func StdDevInt64(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var mean float64
	for _, x := range xs {
		mean += float64(x)
	}
	mean /= float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := float64(x) - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// SDRPP computes the paper's "Std. Dev. of Requests per Plane" metric over
// per-plane counts, returned in natural log as the figures plot it ("plotted
// on log scale (base e) because the values are huge"). Zero or tiny standard
// deviations clamp to 0 rather than going to -inf.
func SDRPP(perPlane []int64) float64 {
	sd := StdDevInt64(perPlane)
	if sd < 1 {
		return 0
	}
	return math.Log(sd)
}

// CV returns the coefficient of variation (stddev/mean) of the integer
// series at(0), …, at(n-1), used for wear-leveling dispersion of per-block
// erase counts. It reads the series where it lies, twice, in order, with
// the arithmetic of StdDevInt64.
func CV(n int, at func(int) int64) float64 {
	if n == 0 {
		return 0
	}
	var mean float64
	for i := range n {
		mean += float64(at(i))
	}
	mean /= float64(n)
	if mean == 0 {
		return 0
	}
	var ss float64
	for i := range n {
		d := float64(at(i)) - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(n)) / mean
}
