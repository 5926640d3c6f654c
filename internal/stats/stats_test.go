package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dloop/internal/sim"
)

func TestWelfordKnownValues(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d", w.N())
	}
	if got := w.Mean(); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := w.StdDev(); math.Abs(got-2) > 1e-9 {
		t.Errorf("StdDev = %v, want 2 (population)", got)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("min/max = %v/%v", w.Min(), w.Max())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.StdDev() != 0 {
		t.Error("empty accumulator should report zero mean/stddev")
	}
	// An empty accumulator has no extremes: 0 would masquerade as a real
	// zero-latency sample, so Min/Max report NaN instead.
	if !math.IsNaN(w.Min()) || !math.IsNaN(w.Max()) {
		t.Errorf("empty min/max = %v/%v, want NaN", w.Min(), w.Max())
	}
	w.Add(3)
	if w.Mean() != 3 || w.Var() != 0 || w.SampleVar() != 0 || w.Min() != 3 || w.Max() != 3 {
		t.Error("single sample")
	}
}

func TestWelfordSampleVar(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	// m2 = 32 over 8 samples: population variance 4, sample variance 32/7.
	if got := w.Var(); math.Abs(got-4) > 1e-9 {
		t.Errorf("Var = %v, want 4", got)
	}
	if got := w.SampleVar(); math.Abs(got-32.0/7.0) > 1e-9 {
		t.Errorf("SampleVar = %v, want %v", got, 32.0/7.0)
	}
	if w.SampleVar() <= w.Var() {
		t.Error("Bessel's correction must make SampleVar exceed Var for n > 1")
	}
}

func TestWelfordMergeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var all, a, b Welford
	for i := 0; i < 1000; i++ {
		x := rng.NormFloat64()*3 + 10
		all.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(b)
	if a.N() != all.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), all.N())
	}
	if math.Abs(a.Mean()-all.Mean()) > 1e-9 {
		t.Errorf("merged mean %v vs %v", a.Mean(), all.Mean())
	}
	if math.Abs(a.StdDev()-all.StdDev()) > 1e-9 {
		t.Errorf("merged sd %v vs %v", a.StdDev(), all.StdDev())
	}
	if a.Min() != all.Min() || a.Max() != all.Max() {
		t.Error("merged min/max")
	}
	// Merging into empty copies.
	var empty Welford
	empty.Merge(a)
	if empty.N() != a.N() || empty.Mean() != a.Mean() {
		t.Error("merge into empty")
	}
	// Merging empty is a no-op.
	before := a
	a.Merge(Welford{})
	if a != before {
		t.Error("merge of empty changed state")
	}
}

// Property: Welford mean/stddev agree with the naive two-pass computation.
func TestWelfordMatchesNaiveProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				clean = append(clean, x)
			}
		}
		if len(clean) < 2 {
			return true
		}
		var w Welford
		var sum float64
		for _, x := range clean {
			w.Add(x)
			sum += x
		}
		mean := sum / float64(len(clean))
		var ss float64
		for _, x := range clean {
			ss += (x - mean) * (x - mean)
		}
		sd := math.Sqrt(ss / float64(len(clean)))
		scale := math.Max(1, math.Abs(mean))
		return math.Abs(w.Mean()-mean)/scale < 1e-8 &&
			math.Abs(w.StdDev()-sd)/math.Max(1, sd) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyHistQuantiles(t *testing.T) {
	var h LatencyHist
	for i := 1; i <= 1000; i++ {
		h.Add(sim.Duration(i) * sim.Microsecond)
	}
	if h.total != 1000 {
		t.Fatalf("N = %d", h.total)
	}
	med := h.Quantile(0.5).Microseconds()
	if med < 350 || med > 650 {
		t.Errorf("median %v µs, want ≈500 within bucket error", med)
	}
	p99 := h.Quantile(0.99).Microseconds()
	if p99 < 800 || p99 > 1100 {
		t.Errorf("p99 %v µs, want ≈990", p99)
	}
	if h.Quantile(0.5) > h.Quantile(0.999) {
		t.Error("quantiles must be monotone")
	}
}

func TestLatencyHistEdgeCases(t *testing.T) {
	var h LatencyHist
	if h.Quantile(0.5) != 0 {
		t.Error("empty hist quantile should be 0")
	}
	h.Add(0)
	h.Add(-5)
	if h.total != 2 {
		t.Error("zero/negative samples should still count")
	}
	var big LatencyHist
	big.Add(sim.Duration(math.MaxInt64))
	if big.Quantile(1.0) <= 0 {
		t.Error("huge sample should clamp to last bucket")
	}
}

// Quantiles at the extremes of q, and with all mass in one bucket, must
// behave: p100 of a single-bucket histogram is that bucket, and q <= 0
// clamps to the first occupied bucket instead of indexing before it.
func TestLatencyHistPercentileEdges(t *testing.T) {
	var empty LatencyHist
	for _, q := range []float64{0, 0.5, 1} {
		if got := empty.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}

	var single LatencyHist
	d := 100 * sim.Microsecond
	for i := 0; i < 50; i++ {
		single.Add(d)
	}
	lo, hi := single.Quantile(0), single.Quantile(1)
	if lo != hi {
		t.Errorf("single-bucket p0 %v != p100 %v", lo, hi)
	}
	// The reported value is the bucket's lower bound: within ~26% below d.
	if hi > d || float64(hi) < float64(d)/1.27 {
		t.Errorf("single-bucket quantile %v outside bucket containing %v", hi, d)
	}

	var h LatencyHist
	h.Add(1 * sim.Microsecond)
	h.Add(1 * sim.Millisecond)
	if p0, p100 := h.Quantile(0), h.Quantile(1); p0 >= p100 {
		t.Errorf("p0 %v should be below p100 %v", p0, p100)
	}
	if h.Quantile(0) != h.Quantile(0.5) {
		t.Error("with two samples, p0 and p50 land in the first bucket")
	}
}

// logBucket is the histogram's defining formula as a logarithm per sample,
// the reference the threshold lookup must reproduce bit for bit.
func logBucket(d sim.Duration) int {
	if d <= 0 {
		return 0
	}
	b := int(math.Log10(float64(d)) * histBucketsPerDecade)
	return max(0, min(b, histMaxBuckets-1))
}

// TestHistBucketMatchesLogarithm checks the table lookup against the
// logarithm: exhaustively over every latency up to 10 ms, at every bucket
// boundary and two either side, and on random samples up to 10^13 ns.
func TestHistBucketMatchesLogarithm(t *testing.T) {
	check := func(d sim.Duration) {
		if got, want := histBucket(d), logBucket(d); got != want {
			t.Fatalf("histBucket(%d) = %d, logarithm says %d", d, got, want)
		}
	}
	for d := sim.Duration(-3); d <= 10_000_000; d++ {
		check(d)
	}
	for b := 1; b < histMaxBuckets; b++ {
		first := sim.Duration(histStart[b])
		for d := first - 2; d <= first+2; d++ {
			check(d)
		}
		if logBucket(first-1) >= b || logBucket(first) < b {
			t.Fatalf("bucket %d does not start at %d", b, histStart[b])
		}
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 1_000_000; i++ {
		check(sim.Duration(rng.Int63n(1e13)))
	}
	for n := 0; n < 63; n++ {
		check(1<<n - 1)
		check(1 << n)
	}
	check(math.MaxInt64)
}

func BenchmarkLatencyHistAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ds := make([]sim.Duration, 4096)
	for i := range ds {
		ds[i] = sim.Duration(rng.ExpFloat64() * float64(500*sim.Microsecond))
	}
	var h LatencyHist
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(ds[i%len(ds)])
	}
}

func TestStdDevInt64(t *testing.T) {
	if got := StdDevInt64(nil); got != 0 {
		t.Errorf("empty: %v", got)
	}
	if got := StdDevInt64([]int64{5, 5, 5}); got != 0 {
		t.Errorf("constant: %v", got)
	}
	got := StdDevInt64([]int64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(got-2) > 1e-12 {
		t.Errorf("got %v, want 2", got)
	}
}

func TestSDRPP(t *testing.T) {
	if got := SDRPP([]int64{10, 10, 10}); got != 0 {
		t.Errorf("perfectly even: %v, want 0", got)
	}
	uneven := SDRPP([]int64{1000000, 0, 0, 0})
	even := SDRPP([]int64{250000, 250001, 249999, 250000})
	if uneven <= even {
		t.Errorf("uneven %.2f should exceed even %.2f", uneven, even)
	}
	// ln of the stddev: stddev of {1000000,0,0,0} is 433012.7
	if math.Abs(uneven-math.Log(433012.70189)) > 1e-3 {
		t.Errorf("uneven = %v", uneven)
	}
}

// Golden value pinning the log convention: the paper plots SDRPP "on log
// scale (base e)", so the metric is ln(stddev), not log10 or log2. Per-plane
// counts {10,20,30,40} have population stddev sqrt(125); a base change would
// shift the result by >0.7 and fail loudly.
func TestSDRPPGoldenNaturalLog(t *testing.T) {
	got := SDRPP([]int64{10, 20, 30, 40})
	want := 2.4141568686511508 // ln(sqrt(125))
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("SDRPP = %.16f, want ln(sqrt(125)) = %.16f", got, want)
	}
	if math.Abs(got-math.Log10(math.Sqrt(125))) < 0.5 {
		t.Error("SDRPP is using log10, want natural log")
	}
	// Below the sd<1 clamp threshold the metric is exactly 0, never negative.
	if got := SDRPP([]int64{5, 5, 5, 6}); got != 0 {
		t.Errorf("sub-threshold SDRPP = %v, want clamp to 0", got)
	}
}

func TestCV(t *testing.T) {
	cv := func(xs []int64) float64 { return CV(len(xs), func(i int) int64 { return xs[i] }) }
	if cv(nil) != 0 || cv([]int64{0, 0}) != 0 {
		t.Error("degenerate CV should be 0")
	}
	got := cv([]int64{8, 12})
	if math.Abs(got-0.2) > 1e-12 {
		t.Errorf("CV = %v, want 0.2", got)
	}
	// Bit for bit the standard deviation over the mean, as Result's
	// WearCV has always been computed.
	xs := []int64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9}
	var mean float64
	for _, x := range xs {
		mean += float64(x)
	}
	mean /= float64(len(xs))
	if got, want := cv(xs), StdDevInt64(xs)/mean; got != want {
		t.Errorf("CV = %v, want StdDevInt64/mean = %v", got, want)
	}
}

func TestTimeSeries(t *testing.T) {
	if _, err := NewTimeSeries(0); err == nil {
		t.Fatal("zero bucket accepted")
	}
	ts, err := NewTimeSeries(1 * sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	ts.Add(sim.Time(100*sim.Millisecond), 1)
	ts.Add(sim.Time(900*sim.Millisecond), 3)
	ts.Add(sim.Time(2500*sim.Millisecond), 10)
	ts.Add(-5, 2) // clamps to bucket 0
	if ts.Buckets() != 3 {
		t.Fatalf("Buckets = %d, want 3", ts.Buckets())
	}
	b0 := ts.Bucket(0)
	if b0.N() != 3 || b0.Mean() != 2 {
		t.Fatalf("bucket 0: n=%d mean=%v", b0.N(), b0.Mean())
	}
	if b := ts.Bucket(1); b.N() != 0 {
		t.Fatal("bucket 1 should be empty")
	}
	if b := ts.Bucket(99); b.N() != 0 {
		t.Fatal("out-of-range bucket should be empty")
	}
	if b := ts.Bucket(-1); b.N() != 0 {
		t.Fatal("negative bucket should be empty")
	}
	if got := ts.Peak(); got != 2 {
		t.Fatalf("Peak = %d, want 2", got)
	}
}

func TestLatencyHistMergeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var whole, a, b LatencyHist
	for i := 0; i < 5000; i++ {
		d := sim.Duration(rng.Int63n(int64(2 * sim.Second)))
		whole.Add(d)
		if i%3 == 0 {
			a.Add(d)
		} else {
			b.Add(d)
		}
	}
	m := a.Clone()
	m.Merge(b)
	if m.total != whole.total {
		t.Fatalf("merged N=%d, want %d", m.total, whole.total)
	}
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 1.0} {
		if got, want := m.Quantile(q), whole.Quantile(q); got != want {
			t.Errorf("q%.2f: merged %v, sequential %v", q, got, want)
		}
	}
	// Merging an empty histogram is a no-op, including onto an empty one.
	var empty, dst LatencyHist
	dst.Merge(empty)
	if dst.total != 0 || dst.counts != nil {
		t.Fatal("empty merge materialized buckets")
	}
	dst.Merge(a)
	if dst.total != a.total {
		t.Fatalf("merge into empty N=%d, want %d", dst.total, a.total)
	}
}

func TestTimeSeriesMergeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	whole, _ := NewTimeSeries(1 * sim.Second)
	a, _ := NewTimeSeries(1 * sim.Second)
	b, _ := NewTimeSeries(1 * sim.Second)
	for i := 0; i < 2000; i++ {
		at := sim.Time(rng.Int63n(int64(8 * sim.Second)))
		v := rng.Float64() * 10
		whole.Add(at, v)
		// Split deterministically; merging a (longer) into b (shorter) and
		// vice versa must both reconstruct the whole.
		if i%4 == 0 {
			b.Add(at, v)
		} else {
			a.Add(at, v)
		}
	}
	check := func(m *TimeSeries) {
		t.Helper()
		if m.Buckets() != whole.Buckets() {
			t.Fatalf("merged buckets = %d, want %d", m.Buckets(), whole.Buckets())
		}
		for i := 0; i < whole.Buckets(); i++ {
			mb, wb := m.Bucket(i), whole.Bucket(i)
			if mb.N() != wb.N() || math.Abs(mb.Mean()-wb.Mean()) > 1e-9 || mb.Max() != wb.Max() {
				t.Errorf("bucket %d: merged n=%d mean=%v max=%v, want n=%d mean=%v max=%v",
					i, mb.N(), mb.Mean(), mb.Max(), wb.N(), wb.Mean(), wb.Max())
			}
		}
	}
	m1 := a.Clone()
	m1.Merge(b)
	check(m1)
	m2 := b.Clone()
	m2.Merge(a)
	check(m2)

	// Merging nil or an empty series is a no-op.
	before := m1.Buckets()
	m1.Merge(nil)
	empty, _ := NewTimeSeries(1 * sim.Second)
	m1.Merge(empty)
	if m1.Buckets() != before {
		t.Fatal("no-op merge changed bucket count")
	}

	// Mismatched bucket widths are a programming error.
	defer func() {
		if recover() == nil {
			t.Fatal("bucket-width mismatch did not panic")
		}
	}()
	other, _ := NewTimeSeries(2 * sim.Second)
	other.Add(0, 1)
	m1.Merge(other)
}

// Peak returns the bucket index with the highest mean, or -1 if empty.
func (ts *TimeSeries) Peak() int {
	best, idx := -1.0, -1
	for i, b := range ts.buckets {
		if b.N() > 0 && b.Mean() > best {
			best, idx = b.Mean(), i
		}
	}
	return idx
}

// SampleVar returns the unbiased sample variance (m2/(n-1), Bessel's
// correction), or 0 with fewer than two samples.
func (w *Welford) SampleVar() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}
