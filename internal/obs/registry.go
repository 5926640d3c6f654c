package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"dloop/internal/sim"
	"dloop/internal/stats"
)

// Counter is a monotonically increasing count.
type Counter struct{ v int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds d (d must be non-negative).
func (c *Counter) Add(d int64) { c.v += d }

// Gauge is a last-value-wins measurement.
type Gauge struct{ v float64 }

// Set overwrites the gauge's value.
func (g *Gauge) Set(v float64) { g.v = v }

// Hist is a latency distribution: a streaming mean/extremes accumulator in
// milliseconds plus a logarithmic histogram for quantiles, both reused from
// the stats package.
type Hist struct {
	w stats.Welford
	h stats.LatencyHist
}

// Observe folds one latency sample into the distribution.
func (h *Hist) Observe(d sim.Duration) {
	h.w.Add(d.Milliseconds())
	h.h.Add(d)
}

// N returns the sample count.
func (h *Hist) N() int64 { return h.w.N() }

// Quantile returns the approximate q-quantile.
func (h *Hist) Quantile(q float64) sim.Duration { return h.h.Quantile(q) }

// Summary snapshots the distribution into its JSON/exposition form.
func (h *Hist) Summary() LatencySummary {
	return LatencySummary{
		N:      h.N(),
		MeanMs: finite(h.w.Mean()),
		MinMs:  finite(h.w.Min()),
		MaxMs:  finite(h.w.Max()),
		P50Ms:  h.Quantile(0.5).Milliseconds(),
		P99Ms:  h.Quantile(0.99).Milliseconds(),
		P999Ms: h.Quantile(0.999).Milliseconds(),
	}
}

// merge folds another histogram into this one. The log-bucket histogram
// merges exactly; the Welford accumulator combines in call order, so merging
// shards in a fixed order keeps the result deterministic.
func (h *Hist) merge(o *Hist) {
	h.w.Merge(o.w)
	h.h.Merge(o.h)
}

// CounterVec is a dense vector of counts over one small integer dimension
// (plane index, channel index).
type CounterVec struct {
	label string
	vals  []int64
}

// Inc adds one to slot i.
func (v *CounterVec) Inc(i int) { v.vals[i]++ }

// Add adds d to slot i.
func (v *CounterVec) Add(i int, d int64) { v.vals[i] += d }

// Registry holds a run's named metrics. Names are created on first use and
// stable for the lifetime of the registry. Like the simulator, it is not
// safe for concurrent use.
type Registry struct {
	labels map[string]string

	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Hist
	vecs     map[string]*CounterVec
	series   map[string]*stats.TimeSeries
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		labels:   map[string]string{},
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Hist{},
		vecs:     map[string]*CounterVec{},
		series:   map[string]*stats.TimeSeries{},
	}
}

// SetLabel attaches a dimension label (e.g. ftl=DLOOP) to the whole registry.
func (r *Registry) SetLabel(key, value string) { r.labels[key] = value }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Hist returns the named latency histogram, creating it on first use.
func (r *Registry) Hist(name string) *Hist {
	h := r.hists[name]
	if h == nil {
		h = &Hist{}
		r.hists[name] = h
	}
	return h
}

// CounterVec returns the named counter vector, creating it with the given
// dimension label and size on first use.
//
// Size and label are fixed at creation, and a later request must repeat
// them. That is an invariant of the callers, not an input to check: each
// name is the program's own and is requested at one device's shape (a
// collector's Options, the controller's plane, chip and channel counts).
// CounterVec panics if it breaks, and has no error to return.
func (r *Registry) CounterVec(name, label string, size int) *CounterVec {
	v := r.vecs[name]
	if v == nil {
		v = &CounterVec{label: label, vals: make([]int64, size)}
		r.vecs[name] = v
		return v
	}
	if v.label != label || len(v.vals) != size {
		panic(fmt.Sprintf("obs: CounterVec %q redefined (%s[%d] vs %s[%d])",
			name, v.label, len(v.vals), label, size))
	}
	return v
}

// Series returns the named time series, creating it with the given bucket
// width on first use.
func (r *Registry) Series(name string, bucket sim.Duration) *stats.TimeSeries {
	s := r.series[name]
	if s == nil {
		s, _ = stats.NewTimeSeries(bucket)
		r.series[name] = s
	}
	return s
}

// LatencySummary is the JSON form of a Hist: sample count, streaming
// mean/extremes, and the reported quantiles. p999 reads the histogram's deep
// tail — the signal multi-tenant tail-latency analysis cares about when p99
// looks healthy.
type LatencySummary struct {
	N      int64   `json:"n"`
	MeanMs float64 `json:"mean_ms"`
	MinMs  float64 `json:"min_ms"`
	MaxMs  float64 `json:"max_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
}

// VecSnapshot is the JSON form of a CounterVec.
type VecSnapshot struct {
	Label  string  `json:"label"`
	Values []int64 `json:"values"`
}

// SeriesPoint is one time-series bucket in JSON form.
type SeriesPoint struct {
	TSeconds float64 `json:"t_s"`
	N        int64   `json:"n"`
	Mean     float64 `json:"mean"`
	Max      float64 `json:"max"`
}

// RegistrySnapshot is the metrics.json document: a plain-data copy of the
// registry that exporters (the HTTP endpoint, the JSON writer) serialize
// without touching live metric state. encoding/json sorts map keys, so output
// is deterministic.
type RegistrySnapshot struct {
	Labels     map[string]string         `json:"labels,omitempty"`
	Counters   map[string]int64          `json:"counters,omitempty"`
	Gauges     map[string]float64        `json:"gauges,omitempty"`
	Histograms map[string]LatencySummary `json:"histograms,omitempty"`
	Vectors    map[string]VecSnapshot    `json:"vectors,omitempty"`
	Series     map[string][]SeriesPoint  `json:"series,omitempty"`
}

// finite maps NaN/Inf (e.g. extremes of an empty accumulator) to 0, which
// JSON cannot represent.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// Snapshot copies the registry into its plain-data exposition form.
func (r *Registry) Snapshot() RegistrySnapshot {
	snap := RegistrySnapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]LatencySummary, len(r.hists)),
		Vectors:    make(map[string]VecSnapshot, len(r.vecs)),
		Series:     make(map[string][]SeriesPoint, len(r.series)),
	}
	if len(r.labels) > 0 {
		snap.Labels = r.labels
	}
	for name, c := range r.counters {
		snap.Counters[name] = c.v
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = finite(g.v)
	}
	for name, h := range r.hists {
		snap.Histograms[name] = h.Summary()
	}
	for name, v := range r.vecs {
		snap.Vectors[name] = VecSnapshot{Label: v.label, Values: v.vals}
	}
	for name, s := range r.series {
		pts := make([]SeriesPoint, 0, s.Buckets())
		for i := 0; i < s.Buckets(); i++ {
			b := s.Bucket(i)
			if b.N() == 0 {
				continue
			}
			pts = append(pts, SeriesPoint{
				TSeconds: sim.Duration(int64(s.BucketWidth()) * int64(i)).Seconds(),
				N:        b.N(),
				Mean:     finite(b.Mean()),
				Max:      finite(b.Max()),
			})
		}
		snap.Series[name] = pts
	}
	return snap
}

// WriteJSON writes the registry as an indented, deterministically ordered
// metrics.json document.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// clone returns an independent deep copy of the registry; SnapshotRegistry
// builds live merged views on clones so serving a snapshot never perturbs the
// run's own metrics.
func (r *Registry) clone() *Registry {
	out := NewRegistry()
	for k, v := range r.labels {
		out.labels[k] = v
	}
	for k, v := range r.counters {
		out.counters[k] = &Counter{v: v.v}
	}
	for k, v := range r.gauges {
		out.gauges[k] = &Gauge{v: v.v}
	}
	for k, v := range r.hists {
		out.hists[k] = &Hist{w: v.w, h: v.h.Clone()}
	}
	for k, v := range r.vecs {
		out.vecs[k] = &CounterVec{label: v.label, vals: append([]int64(nil), v.vals...)}
	}
	for k, v := range r.series {
		out.series[k] = v.Clone()
	}
	return out
}
