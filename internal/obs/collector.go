package obs

import (
	"fmt"
	"io"

	"dloop/internal/sim"
	"dloop/internal/stats"
)

// Options configures a Collector for one run.
type Options struct {
	// FTL labels the registry with the scheme under observation.
	FTL string
	// GCPolicy labels the registry with the victim-selection policy in
	// effect (empty when the scheme does not report one).
	GCPolicy string
	// Planes and Channels size the per-plane and per-channel vectors.
	Planes   int
	Channels int
	// PagesPerBlock sizes the per-victim valid-count histogram
	// (gc.victim_valid); 0 disables it.
	PagesPerBlock int
	// ChannelOfPlane maps plane index -> channel index; the trace exporter
	// uses it to group plane tracks under their channel. When nil every
	// plane renders under channel 0.
	ChannelOfPlane []int32
	// Shards, when > 1, declares the run's multi-queue FTL shard count: the
	// trace exporter groups tracks shard→process / channel→thread, and the
	// collector expects per-shard children (see Shard) whose state merges
	// back deterministically.
	Shards int
	// ShardOfChannel maps global channel -> owning FTL shard (required when
	// Shards > 1).
	ShardOfChannel []int32

	// TraceEvents, when non-nil, receives a Chrome trace-event JSON document
	// on Close (openable in chrome://tracing or ui.perfetto.dev).
	TraceEvents io.Writer
	// TraceLimit caps buffered trace events (0 = DefaultTraceLimit). Events
	// beyond the cap are dropped and counted in the trace.dropped metric.
	TraceLimit int
	// SnapshotInterval emits SDRPP/utilization/throughput snapshots into the
	// registry's time series every interval of simulated time (0 = off).
	SnapshotInterval sim.Duration
}

// Collector is the standard Recorder: it maintains the metrics registry,
// streams the op trace to the configured sinks, and emits periodic
// snapshots.
//
// A single collector is not safe for concurrent use, but a multi-queue run
// does not share one: each shard worker records into a private child
// collector (Shard), and the parent folds the children back in at quiescent
// points — Close and SnapshotRegistry — in shard order, so the merged
// registry is deterministic and bit-identical to inline execution of the
// same dispatch streams.
type Collector struct {
	reg  *Registry
	opts Options

	// Pre-resolved hot-path handles so recording an op costs array indexing,
	// not map lookups.
	ops      [NumOpKinds][NumCauses]*Counter
	opLat    [NumOpKinds]*Hist
	queueLat *Hist
	// mergeRuns counts merge spans; gc.runs is the EvGCRun count.
	mergeRuns *Counter
	spanBusy  [NumSpanKinds]sim.Duration
	reqRead   *Hist
	reqWrite  *Hist

	planeOps    *CounterVec
	planeErases *CounterVec
	chanOps     *CounterVec
	victimValid *CounterVec // victims by valid-page count; nil without PagesPerBlock

	tr *TraceWriter

	// Snapshot state: watermark is the latest completion seen; the window
	// accumulators reset at every snapshot boundary.
	watermark sim.Time
	nextSnap  sim.Time
	planeCum  []int64 // cumulative ops per plane, the SDRPP input
	winOps    int64
	winBusy   sim.Duration

	devSrc DeviceSource
	// counts is the observed FTLs' occurrence counters, published as one
	// family per EventKind less base, their value when it was wired.
	counts CountSource
	base   Counts

	// GC span enrichment (the policy's trace name) and the pause
	// distribution, pre-resolved like the other hot-path handles.
	gcPause *Hist
	gcNames map[string]string

	// Multi-queue children (see shard.go), folded into every merged view.
	children []*shardChild
	// snapIv remembers the configured snapshot interval: spawning children
	// zeroes the parent's own interval (ops flow through the children, so
	// parent windows would be empty rows) but children inherit it.
	snapIv sim.Duration
	closed bool
}

// NewCollector builds a Collector. Planes and Channels must be positive.
func NewCollector(opts Options) *Collector {
	if opts.Planes < 1 {
		opts.Planes = 1
	}
	if opts.Channels < 1 {
		opts.Channels = 1
	}
	if opts.ChannelOfPlane == nil {
		opts.ChannelOfPlane = make([]int32, opts.Planes)
	}
	c := &Collector{reg: NewRegistry(), opts: opts}
	if opts.FTL != "" {
		c.reg.SetLabel("ftl", opts.FTL)
	}
	if opts.GCPolicy != "" {
		c.reg.SetLabel("gc.policy", opts.GCPolicy)
	}
	for k := OpKind(0); k < NumOpKinds; k++ {
		for cz := Cause(0); cz < NumCauses; cz++ {
			c.ops[k][cz] = c.reg.Counter("flash." + k.String() + "." + cz.String())
		}
		c.opLat[k] = c.reg.Hist("lat." + k.String())
	}
	c.queueLat = c.reg.Hist("lat.queue")
	// The count families exist from the start, so a snapshot taken before
	// SetCountSource or SetDeviceSource lists them at zero; foldGauges
	// fills them.
	for e := EventKind(0); e < NumEventKinds; e++ {
		c.reg.Counter(e.String())
	}
	c.reg.Counter("gc.parity_waste")
	c.mergeRuns = c.reg.Counter(SpanMerge.String() + ".runs")
	c.reqRead = c.reg.Hist("host.read")
	c.reqWrite = c.reg.Hist("host.write")
	c.planeOps = c.reg.CounterVec("plane.ops", "plane", opts.Planes)
	c.planeErases = c.reg.CounterVec("plane.erases", "plane", opts.Planes)
	c.chanOps = c.reg.CounterVec("channel.ops", "channel", opts.Channels)
	if opts.PagesPerBlock > 0 {
		c.victimValid = c.reg.CounterVec("gc.victim_valid", "valid", opts.PagesPerBlock+1)
	}
	c.gcPause = c.reg.Hist("gc.pause")
	c.planeCum = make([]int64, opts.Planes)
	c.snapIv = opts.SnapshotInterval
	if opts.TraceEvents != nil {
		shards := 0
		if opts.Shards > 1 {
			shards = opts.Shards
		}
		c.tr = newTraceWriter(opts.TraceEvents, opts.TraceLimit, opts.Channels, opts.ChannelOfPlane, shards, opts.ShardOfChannel)
	}
	if opts.SnapshotInterval > 0 {
		c.nextSnap = sim.Time(opts.SnapshotInterval)
	}
	return c
}

// Registry exposes the collector's metrics registry.
func (c *Collector) Registry() *Registry { return c.reg }

// SetDeviceSource wires the devices' cumulative totals. The collector
// reads src whenever it folds (Close, SnapshotRegistry) into the *.busy_us
// vectors and the gc.parity_waste family, which count from the devices'
// last statistics reset, as Result does.
func (c *Collector) SetDeviceSource(src DeviceSource) { c.devSrc = src }

// SetCountSource wires the observed FTLs' occurrence counters. The
// collector reads src now, as its baseline, and again whenever it folds
// (Close, SnapshotRegistry), publishing each EventKind's family as the
// count since it was wired and cmt.hitrate over those lookups.
func (c *Collector) SetCountSource(src CountSource) {
	c.counts, c.base = src, src()
}

// RecordOp implements Recorder.
func (c *Collector) RecordOp(op Op) {
	// Advance (closing any snapshot windows the completion crossed) before
	// accounting, so the op lands in the window containing op.End rather than
	// inflating the window being closed.
	c.advance(op.End)
	c.ops[op.Kind][op.Cause].Inc()
	c.opLat[op.Kind].Observe(op.Latency())
	c.queueLat.Observe(op.QueueTime())
	c.planeOps.Inc(int(op.Plane))
	c.chanOps.Inc(int(op.Channel))
	if op.Kind == OpErase {
		c.planeErases.Inc(int(op.Plane))
	}
	c.planeCum[op.Plane]++
	c.winOps++
	c.winBusy += op.ServiceTime()
	if c.tr != nil {
		c.tr.add(traceEvent{
			name:   opNames[op.Kind][op.Cause],
			pid:    op.Channel,
			tid:    op.Plane,
			start:  op.Start,
			dur:    op.ServiceTime(),
			stored: op.Stored,
		})
	}
}

// RecordGCVictim implements the GC engine's VictimRecorder: it feeds the
// per-victim valid-page-count histogram (no-op without Options.PagesPerBlock).
func (c *Collector) RecordGCVictim(valid int, at sim.Time) {
	if c.victimValid == nil {
		return
	}
	if valid < 0 {
		valid = 0
	}
	if max := c.opts.PagesPerBlock; valid > max {
		valid = max
	}
	c.victimValid.Inc(valid)
	c.advance(at)
}

// RecordSpan implements Recorder.
func (c *Collector) RecordSpan(kind SpanKind, plane int32, start, end sim.Time) {
	if kind == SpanMerge {
		c.mergeRuns.Inc()
	}
	c.spanBusy[kind] += end.Sub(start)
	if c.tr != nil {
		var ch int32
		if int(plane) < len(c.opts.ChannelOfPlane) {
			ch = c.opts.ChannelOfPlane[plane]
		}
		c.tr.add(traceEvent{name: kind.String(), pid: ch, tid: plane, start: start, dur: end.Sub(start), stored: -1})
	}
	c.advance(end)
}

// RecordGCSpan implements GCSpanRecorder: beyond the plain SpanGC
// accounting, it feeds the gc.pause distribution and enriches the trace
// span with the victim policy and per-collection relocation counts.
func (c *Collector) RecordGCSpan(plane int32, start, end sim.Time, policy string, moved, wasted int) {
	c.spanBusy[SpanGC] += end.Sub(start)
	c.gcPause.Observe(end.Sub(start))
	if c.tr != nil {
		var ch int32
		if int(plane) < len(c.opts.ChannelOfPlane) {
			ch = c.opts.ChannelOfPlane[plane]
		}
		c.tr.add(traceEvent{
			name: c.gcSpanName(policy), pid: ch, tid: plane,
			start: start, dur: end.Sub(start), stored: -1,
			extra: fmt.Sprintf(",\"policy\":%q,\"moved\":%d,\"wasted\":%d", policy, moved, wasted),
		})
	}
	c.advance(end)
}

// gcSpanName caches the "gc/<policy>" trace-event names.
func (c *Collector) gcSpanName(policy string) string {
	name, ok := c.gcNames[policy]
	if !ok {
		if c.gcNames == nil {
			c.gcNames = map[string]string{}
		}
		name = "gc/" + policy
		c.gcNames[policy] = name
	}
	return name
}

// RecordRequest implements Recorder.
func (c *Collector) RecordRequest(read bool, arrival, done sim.Time) {
	if read {
		c.reqRead.Observe(done.Sub(arrival))
	} else {
		c.reqWrite.Observe(done.Sub(arrival))
	}
	if c.tr != nil {
		tid := int32(1)
		if read {
			tid = 0
		}
		c.tr.add(traceEvent{name: "request", pid: c.tr.hostPID(), tid: tid, start: arrival, dur: done.Sub(arrival), stored: -1})
	}
	c.advance(done)
}

// advance moves the simulated-time watermark and emits any snapshot
// boundaries it crossed.
func (c *Collector) advance(t sim.Time) {
	if t <= c.watermark {
		return
	}
	c.watermark = t
	if c.opts.SnapshotInterval <= 0 {
		return
	}
	for c.watermark >= c.nextSnap {
		c.emitSnapshot(c.nextSnap.Add(-c.opts.SnapshotInterval), c.opts.SnapshotInterval)
		c.nextSnap = c.nextSnap.Add(c.opts.SnapshotInterval)
	}
}

// emitSnapshot closes the window that started at windowStart: SDRPP over the
// cumulative per-plane counts, mean plane utilization over the window, and
// operations completed in the window.
func (c *Collector) emitSnapshot(windowStart sim.Time, window sim.Duration) {
	iv := c.opts.SnapshotInterval
	c.reg.Series("sdrpp", iv).Add(windowStart, stats.SDRPP(c.planeCum))
	util := float64(c.winBusy) / (float64(window) * float64(c.opts.Planes))
	c.reg.Series("plane_util", iv).Add(windowStart, util)
	c.reg.Series("ops", iv).Add(windowStart, float64(c.winOps))
	c.winOps = 0
	c.winBusy = 0
}

// flushTrailing closes the open partial snapshot window, if any. Safe to
// call repeatedly (the window accumulators reset on emit).
func (c *Collector) flushTrailing() {
	if c.opts.SnapshotInterval > 0 && c.winOps > 0 {
		start := c.nextSnap.Add(-c.opts.SnapshotInterval)
		if w := c.watermark.Sub(start); w > 0 {
			c.emitSnapshot(start, w)
		}
	}
}

// foldGauges writes the collector's live typed state — span busy times,
// the occurrence counters and CMT hit rate, device utilization and parity
// waste, trace drops — into dst, summing across shard children. Both Close
// (dst = the live registry) and SnapshotRegistry (dst = a clone) use it.
func (c *Collector) foldGauges(dst *Registry) {
	for s := SpanKind(0); s < NumSpanKinds; s++ {
		busy := c.spanBusy[s]
		for _, ch := range c.children {
			busy += ch.col.spanBusy[s]
		}
		dst.Gauge(s.String() + ".busy_ms").Set(busy.Milliseconds())
	}
	if c.counts != nil {
		now := c.counts()
		for e := range now {
			now[e] -= c.base[e]
			dst.Counter(EventKind(e).String()).v = now[e]
		}
		if hits, misses := now[EvCMTHit], now[EvCMTMiss]; hits+misses > 0 {
			dst.Gauge("cmt.hitrate").Set(float64(hits) / float64(hits+misses))
		}
	}
	if c.devSrc != nil {
		dev := c.devSrc()
		fill := func(name, label string, ds []sim.Duration) {
			v := dst.CounterVec(name, label, len(ds))
			for i, d := range ds {
				v.vals[i] = int64(d) / int64(sim.Microsecond)
			}
		}
		fill("plane.busy_us", "plane", dev.Planes)
		fill("chip.busy_us", "chip", dev.ChipBus)
		fill("channel.busy_us", "channel", dev.Channels)
		dst.Counter("gc.parity_waste").v = dev.WastedPages
	}
	if c.tr != nil {
		d := c.tr.Dropped()
		for _, ch := range c.children {
			if ch.col.tr != nil {
				d += ch.col.tr.Dropped()
			}
		}
		dst.Gauge("trace.dropped").Set(float64(d))
	}
}

// Close finalizes the run: it flushes trailing partial snapshot windows,
// merges every shard child into the registry and trace buffer (in shard
// order, so the merge is deterministic), samples the device source,
// folds span gauges into the registry, and flushes the trace sink. It
// returns the sink's error.
func (c *Collector) Close() error {
	c.flushTrailing()
	for _, ch := range c.children {
		ch.col.flushTrailing()
		mergeChildRegistry(c.reg, ch, c)
		if c.tr != nil && ch.col.tr != nil {
			c.tr.mergeShard(ch.col.tr, int32(ch.opt.Index), ch.opt.ChanMap, ch.opt.PlaneMap)
		}
	}
	c.foldGauges(c.reg)
	c.closed = true
	if c.tr != nil {
		if err := c.tr.Flush(); err != nil {
			return fmt.Errorf("obs: trace events: %w", err)
		}
	}
	return nil
}

// WriteMetrics writes the registry as a metrics.json document.
func (c *Collector) WriteMetrics(w io.Writer) error { return c.reg.WriteJSON(w) }
