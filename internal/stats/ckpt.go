package stats

import (
	"dloop/internal/ckpt"
	"dloop/internal/sim"
)

// EncodeWelford appends a Welford accumulator to w. Floats travel as IEEE
// bit patterns, so a round-trip reproduces running means bit-exactly.
func EncodeWelford(w *ckpt.Writer, s Welford) {
	w.I64(s.n)
	w.F64(s.mean)
	w.F64(s.m2)
	w.F64(s.min)
	w.F64(s.max)
}

// DecodeWelford reads a Welford written by EncodeWelford.
func DecodeWelford(r *ckpt.Reader) Welford {
	return Welford{n: r.I64(), mean: r.F64(), m2: r.F64(), min: r.F64(), max: r.F64()}
}

// EncodeLatencyHist appends a LatencyHist to w, preserving the nil/non-nil
// state of the bucket slice so re-encoding a restored histogram is
// byte-identical.
func EncodeLatencyHist(w *ckpt.Writer, h LatencyHist) {
	w.Bool(h.counts != nil)
	if h.counts != nil {
		w.I64s(h.counts)
	}
	w.I64(h.total)
}

// DecodeLatencyHist reads a LatencyHist written by EncodeLatencyHist.
func DecodeLatencyHist(r *ckpt.Reader) LatencyHist {
	var h LatencyHist
	if r.Bool() {
		h.counts = r.I64s()
		if h.counts == nil && r.Err() == nil {
			// A non-nil histogram always has histMaxBuckets buckets; an empty
			// slab here means the writer and this reader disagree.
			h.counts = make([]int64, 0)
		}
	}
	h.total = r.I64()
	return h
}

// EncodeTimeSeries appends a possibly-nil TimeSeries to w.
func EncodeTimeSeries(w *ckpt.Writer, ts *TimeSeries) {
	w.Bool(ts != nil)
	if ts == nil {
		return
	}
	w.I64(int64(ts.bucket))
	w.U32(uint32(len(ts.buckets)))
	for _, b := range ts.buckets {
		EncodeWelford(w, b)
	}
}

// DecodeTimeSeries reads a TimeSeries written by EncodeTimeSeries, returning
// nil when none was encoded.
func DecodeTimeSeries(r *ckpt.Reader) *TimeSeries {
	if !r.Bool() {
		return nil
	}
	ts := &TimeSeries{bucket: sim.Duration(r.I64())}
	if n := r.SliceLen(40); n > 0 { // a Welford is five 8-byte fields
		ts.buckets = make([]Welford, n)
		for i := range ts.buckets {
			ts.buckets[i] = DecodeWelford(r)
		}
	}
	return ts
}
