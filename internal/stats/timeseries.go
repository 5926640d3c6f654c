package stats

import (
	"fmt"

	"dloop/internal/sim"
)

// TimeSeries buckets samples by simulated time, giving the evolution of a
// metric over a run — e.g. mean response time per second, which makes GC
// stalls visible as spikes instead of disappearing into a global mean.
type TimeSeries struct {
	bucket  sim.Duration
	buckets []Welford
}

// NewTimeSeries returns a series with the given bucket width.
func NewTimeSeries(bucket sim.Duration) (*TimeSeries, error) {
	if bucket <= 0 {
		return nil, fmt.Errorf("stats: bucket width must be positive, got %v", bucket)
	}
	return &TimeSeries{bucket: bucket}, nil
}

// Add records a sample observed at simulated time at.
func (ts *TimeSeries) Add(at sim.Time, value float64) {
	if at < 0 {
		at = 0
	}
	idx := int(int64(at) / int64(ts.bucket))
	for len(ts.buckets) <= idx {
		ts.buckets = append(ts.buckets, Welford{})
	}
	ts.buckets[idx].Add(value)
}

// Buckets returns the number of buckets spanned so far.
func (ts *TimeSeries) Buckets() int { return len(ts.buckets) }

// Bucket returns the accumulator for one bucket index.
func (ts *TimeSeries) Bucket(i int) Welford {
	if i < 0 || i >= len(ts.buckets) {
		return Welford{}
	}
	return ts.buckets[i]
}

// BucketWidth returns the configured bucket width.
func (ts *TimeSeries) BucketWidth() sim.Duration { return ts.bucket }

// Clone returns an independent deep copy of the series (nil clones to nil);
// Welford accumulators are value types, so copying the bucket slice copies
// the state.
func (ts *TimeSeries) Clone() *TimeSeries {
	if ts == nil {
		return nil
	}
	out := &TimeSeries{bucket: ts.bucket}
	if ts.buckets != nil {
		out.buckets = append([]Welford(nil), ts.buckets...)
	}
	return out
}

// Merge folds another series into this one bucket by bucket, growing to
// cover the longer span.
//
// The bucket widths must match: merging differently bucketed series would
// smear samples across boundaries. That is an invariant of the caller, not
// an input to check: the one caller, a sharded collector's fold, merges each
// shard's series into one it creates at that series' width. Merge panics if
// it breaks, and has no error to return.
func (ts *TimeSeries) Merge(o *TimeSeries) {
	if o == nil || len(o.buckets) == 0 {
		return
	}
	if o.bucket != ts.bucket {
		panic(fmt.Sprintf("stats: merging TimeSeries with bucket %v into %v", o.bucket, ts.bucket))
	}
	for len(ts.buckets) < len(o.buckets) {
		ts.buckets = append(ts.buckets, Welford{})
	}
	for i, b := range o.buckets {
		ts.buckets[i].Merge(b)
	}
}
