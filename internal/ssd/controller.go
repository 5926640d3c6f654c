package ssd

import (
	"errors"
	"fmt"
	"io"
	"math/bits"

	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/obs"
	"dloop/internal/sim"
	"dloop/internal/stats"
	"dloop/internal/trace"
)

// Controller is the host-facing side of the simulated SSD. It aligns every
// request on page boundaries, splits it into one-page operations dispatched
// together (so striped placements can serve them on several planes at once),
// and measures response times from arrival to the completion of the last
// page. Not safe for concurrent use.
type Controller struct {
	// shards is the FTL layout: logical page lpn lives on shard lpn mod N as
	// shard-local page lpn / N. A single FTL is one shard spanning the whole
	// device, so its index maps are the identity.
	shards []*ftlShard
	geo    flash.Geometry // whole-device geometry
	cap    ftl.LPN        // exported logical pages, summed over the shards
	// shardMask/shardShift route pages to shards without integer division
	// when the shard count is a power of two (always with one shard, and
	// almost always otherwise: channel counts are).
	shardPow2  bool
	shardMask  int64
	shardShift uint

	cfg Config

	// fe is the multi-queue front end over the shards (see frontend.go):
	// classified requests are dispatched to its workers. A controller with
	// several shards runs one from newController to Close or Recover. When
	// it is nil requests execute inline on the caller's goroutine: always
	// with one shard, and with several after Recover.
	fe *frontEnd

	// devicesLent is set by Recover, which hands the devices to the
	// controller it builds: Close then releases this one's FTLs only.
	devicesLent bool

	// disp is EnqueueBatch's classification scratch.
	disp []dispReq

	sectorsPerPage int64
	// pageShift replaces pageSpan's divisions with shifts when the page
	// holds a power-of-two sector count (it always does for the Table I
	// page sizes); pagePow2 gates the fast path.
	pagePow2  bool
	pageShift uint

	resp      stats.Welford // milliseconds; its count is the requests served
	readResp  stats.Welford
	writeResp stats.Welford
	hist      stats.LatencyHist
	series    *stats.TimeSeries // optional, see EnableTimeSeries
	lastDone  sim.Time
	pagesRead int64
	pagesWrit int64

	// broken is the error of a failed Restore, which left the state partly
	// overwritten: every entry point that would run on it or read it
	// returns the error until a later Restore succeeds.
	broken error

	rec obs.Recorder // nil when observability is disabled

	// latHook, when set, receives every request's response time in arrival
	// order on both request paths; the differential tests use it to compare
	// the inline and concurrent latency streams element-for-element.
	latHook func(sim.Duration)

	// pulse, when set, fires at quiescent points (after every Flush epoch, or
	// per request inline); the live HTTP exporter publishes registry
	// snapshots from it. The callback is responsible for its own rate
	// limiting.
	pulse func()
}

// newController assembles a controller over its FTL shards: one shard runs
// inline, more run behind the multi-queue front end.
func newController(shards []*ftlShard, geo flash.Geometry, cfg Config) *Controller {
	n := int64(len(shards))
	c := &Controller{
		shards:         shards,
		geo:            geo,
		cap:            shards[0].f.Capacity() * ftl.LPN(n),
		cfg:            cfg,
		sectorsPerPage: int64(geo.PageSize / trace.SectorSize),
	}
	if n&(n-1) == 0 {
		c.shardPow2, c.shardMask, c.shardShift = true, n-1, uint(bits.TrailingZeros64(uint64(n)))
	}
	if spp := c.sectorsPerPage; spp > 0 && spp&(spp-1) == 0 {
		c.pagePow2, c.pageShift = true, uint(bits.TrailingZeros64(uint64(spp)))
	}
	if n > 1 {
		c.fe = newFrontEnd(shards)
	}
	return c
}

// EnableTimeSeries records per-request response times bucketed by arrival
// time, exposing latency evolution (GC stalls show as spikes). Call before
// Run; retrieve with TimeSeries.
func (c *Controller) EnableTimeSeries(bucket sim.Duration) error {
	ts, err := stats.NewTimeSeries(bucket)
	if err != nil {
		return err
	}
	c.series = ts
	return nil
}

// TimeSeries returns the response-time series, or nil if not enabled.
func (c *Controller) TimeSeries() *stats.TimeSeries { return c.series }

// Device exposes the underlying flash device (read-only use intended). It is
// nil on a multi-shard controller — use ShardDevice there.
func (c *Controller) Device() *flash.Device {
	if len(c.shards) > 1 {
		return nil
	}
	return c.shards[0].dev
}

// FTL exposes the flash translation layer in use. It is nil on a multi-shard
// controller, whose shards each run their own.
func (c *Controller) FTL() ftl.FTL {
	if len(c.shards) > 1 {
		return nil
	}
	return c.shards[0].f
}

// Geometry returns the whole-device geometry.
func (c *Controller) Geometry() flash.Geometry { return c.geo }

// Capacity returns the exported logical-page count.
func (c *Controller) Capacity() ftl.LPN { return c.cap }

// FTLShards returns the number of concurrent FTL shards (1 = single FTL).
func (c *Controller) FTLShards() int { return len(c.shards) }

// ShardDevice returns FTL shard i's sub-device (read-only use intended). On
// a single-FTL controller, shard 0 is the device itself.
func (c *Controller) ShardDevice(i int) *flash.Device { return c.shards[i].dev }

// shardOf returns the shard owning a logical page and its shard-local page.
func (c *Controller) shardOf(lpn ftl.LPN) (*ftlShard, ftl.LPN) {
	if c.shardPow2 {
		return c.shards[int64(lpn)&c.shardMask], lpn >> c.shardShift
	}
	n := ftl.LPN(len(c.shards))
	return c.shards[lpn%n], lpn / n
}

// Config returns the configuration the controller was built with.
func (c *Controller) Config() Config { return c.cfg }

// ObsOptions returns a collector configuration matched to this SSD: the FTL
// name, the device's plane/channel shape, and the shard that owns each
// channel. Callers add sinks and the snapshot interval before
// obs.NewCollector.
func (c *Controller) ObsOptions() obs.Options {
	f := c.shards[0].f
	opts := obs.Options{
		FTL:            f.Name(),
		Planes:         c.geo.Planes(),
		Channels:       c.geo.Channels,
		ChannelOfPlane: make([]int32, c.geo.Planes()),
		PagesPerBlock:  c.geo.PagesPerBlock,
		Shards:         len(c.shards),
		ShardOfChannel: make([]int32, c.geo.Channels),
	}
	for p := range opts.ChannelOfPlane {
		opts.ChannelOfPlane[p] = int32(c.geo.ChannelOfPlane(p))
	}
	subC := c.geo.Channels / len(c.shards) // shard s owns channels [s*subC, (s+1)*subC)
	for ch := range opts.ShardOfChannel {
		opts.ShardOfChannel[ch] = int32(ch / subC)
	}
	if p, ok := f.(interface{ GCPolicyName() string }); ok {
		opts.GCPolicy = p.GCPolicyName()
	}
	return opts
}

// ErrForeignRecorder is SetRecorder's refusal of a recorder other than an
// *obs.Collector on a controller with more than one FTL shard.
var ErrForeignRecorder = errors.New("ssd: a multi-shard controller records only into an *obs.Collector")

// SetRecorder attaches (or, with nil, detaches) an observability recorder to
// the whole stack: host-request completions here, flash operations at the
// devices, and GC and merge spans at the FTLs (via ftl.Observable). When
// the recorder is an *obs.Collector it is also wired to the FTLs' Counts,
// which it publishes as counted from now on, and to the devices' busy times
// and parity waste, which it publishes as Result reads them. On a
// multi-shard controller a collector observes the shards while they run
// concurrently: each shard records into a private child merged back at
// barriers. Any other recorder has no merge
// semantics, so there SetRecorder returns ErrForeignRecorder and changes
// nothing. Attach after preconditioning so the stream covers exactly the
// measured window.
func (c *Controller) SetRecorder(r obs.Recorder) error {
	col, _ := r.(*obs.Collector)
	sharded := len(c.shards) > 1
	if sharded && r != nil && col == nil {
		return fmt.Errorf("%w, not %T", ErrForeignRecorder, r)
	}
	// A latched worker error stays sticky in the front end, and surfaces at
	// the next request.
	_ = c.quiesce(false)
	c.rec = r
	if col != nil {
		col.SetDeviceSource(c.deviceTotals)
		col.SetCountSource(c.counts)
	}
	subC := c.geo.Channels / len(c.shards)
	for _, sh := range c.shards {
		rec := r // one shard records straight into r; nil detaches
		sh.mqLat = nil
		if sharded && col != nil {
			child := col.Shard(obs.ShardOptions{
				Index:          sh.idx,
				Planes:         len(sh.planeMap),
				Channels:       subC,
				ChannelOfPlane: sh.dev.ChannelOfPlane(),
				PlaneMap:       sh.planeMap,
				ChanMap:        sh.chanMap,
			})
			rec, sh.mqLat = child, child.Registry().Hist("mq.lat")
		}
		sh.dev.SetRecorder(rec)
		if o, ok := sh.f.(ftl.Observable); ok {
			o.SetRecorder(rec)
		}
	}
	return nil
}

// deviceTotals aggregates the shards' cumulative busy times into
// whole-device vectors and sums their parity waste; the observability
// collector samples it when it folds.
func (c *Controller) deviceTotals() obs.DeviceTotals {
	t := obs.DeviceTotals{
		Planes:   make([]sim.Duration, c.geo.Planes()),
		ChipBus:  make([]sim.Duration, c.geo.Chips()),
		Channels: make([]sim.Duration, c.geo.Channels),
	}
	for _, sh := range c.shards {
		p, cb, ch := sh.dev.BusyTimes()
		for i, v := range p {
			t.Planes[sh.planeMap[i]] = v
		}
		for i, v := range cb {
			t.ChipBus[sh.chipMap[i]] = v
		}
		for i, v := range ch {
			t.Channels[sh.chanMap[i]] = v
		}
		t.WastedPages += sh.dev.Stats().WastedPages
	}
	return t
}

// counts sums the shard FTLs' occurrence counters.
func (c *Controller) counts() obs.Counts {
	var n obs.Counts
	for _, sh := range c.shards {
		for e, v := range sh.f.Counts() {
			n[e] += v
		}
	}
	return n
}

// SetPulse registers fn (nil detaches) to run at quiescent points: after
// every epoch Flush of the multi-queue front end, and after every request
// EnqueueBatch serves inline. The collector's SnapshotRegistry is safe to
// call from inside it, which is how dloopsim's -listen exporter publishes
// live metrics mid-run. The callback should rate-limit itself; pulses arrive at
// epoch frequency.
func (c *Controller) SetPulse(fn func()) { c.pulse = fn }

// pageSpan returns the logical pages touched by a sector range. Callers
// validate the request first, so the sector indices are non-negative and
// the shift fast path agrees with the division.
func (c *Controller) pageSpan(r trace.Request) (first, last ftl.LPN) {
	if c.pagePow2 {
		return ftl.LPN(r.LBN >> c.pageShift), ftl.LPN((r.End() - 1) >> c.pageShift)
	}
	first = ftl.LPN(r.LBN / c.sectorsPerPage)
	last = ftl.LPN((r.End() - 1) / c.sectorsPerPage)
	return first, last
}

// dispReq is one classified request: validated, page-spanned, and
// bounds-checked, ready to execute inline or to dispatch to the shards.
type dispReq struct {
	arrival     sim.Time
	first, last ftl.LPN
	read        bool
}

// classify validates a request and resolves the logical pages it spans,
// bounds-checked against the exported capacity.
func (c *Controller) classify(r trace.Request) (dispReq, error) {
	if err := r.Validate(); err != nil {
		return dispReq{}, err
	}
	first, last := c.pageSpan(r)
	if err := ftl.CheckLPN(last, c.cap); err != nil {
		return dispReq{}, fmt.Errorf("ssd: request [%d,%d) exceeds device: %w", r.LBN, r.End(), err)
	}
	return dispReq{arrival: r.Arrival, first: first, last: last, read: r.Op == trace.OpRead}, nil
}

// Precondition sequentially writes the first `pages` logical pages once,
// putting the device into the steady state a deployed SSD reaches after its
// working set has been populated: the workload's footprint is live on flash
// and its mappings are persisted, so updates invalidate pages and garbage
// collection runs from the first measured request. Device utilization is
// footprint/capacity — which is why larger SSDs delay collection, the
// capacity trend of Fig. 8. The fill runs in logical-page order, inline on
// the host goroutine: preconditioning is setup, not the measured hot path.
// The shard devices run untimed (flash.Untimed) for the fill, since the
// timelines and device statistics it would produce are reset afterwards
// anyway. A recorder attached before Precondition therefore sees none of
// the fill's flash operations; attach it afterwards (SetRecorder) so its
// stream covers exactly the measured window. The device statistics and
// resource timelines are then reset; the FTLs' Counts are not (see
// ResetMeasurement).
func (c *Controller) Precondition(pages ftl.LPN) error {
	if pages > c.cap {
		return fmt.Errorf("ssd: precondition %d pages exceeds capacity %d", pages, c.cap)
	}
	if c.broken != nil {
		return c.broken
	}
	if err := c.quiesce(false); err != nil {
		return err
	}
	devs := make([]*flash.Device, len(c.shards))
	for i, sh := range c.shards {
		devs[i] = sh.dev
	}
	err := flash.Untimed(devs, func() error {
		for lpn := ftl.LPN(0); lpn < pages; lpn++ {
			sh, local := c.shardOf(lpn)
			if _, err := sh.f.WritePage(local, 0); err != nil {
				return fmt.Errorf("ssd: precondition lpn %d: %w", lpn, err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	c.ResetMeasurement()
	return nil
}

// PreconditionBytes preconditions enough pages to cover a byte footprint.
func (c *Controller) PreconditionBytes(bytes int64) error {
	pageSize := int64(c.geo.PageSize)
	return c.Precondition(ftl.LPN((bytes + pageSize - 1) / pageSize))
}

// quiesce is the barrier every reader and writer of shard state goes
// through. With the front end running it waits until every dispatched page
// command has executed, then folds the parked completions — or, with drop,
// discards them — and returns the front end's sticky error. Inline
// execution leaves nothing in flight.
func (c *Controller) quiesce(drop bool) error {
	if c.fe == nil {
		return nil
	}
	if drop {
		c.fe.discard()
	} else {
		c.fe.flush(c)
	}
	return c.fe.err
}

// ResetMeasurement zeroes the controller's response-time statistics, the
// devices' operation statistics (their GC moves and parity waste among
// them) and every resource timeline while keeping device and FTL state, so
// host-side measurement starts from now. Block wear
// survives, as physical state. The FTLs' Counts — CMT hits and misses,
// translation reads and writes, GC runs, FAST merges — are not reset, so a
// Result read after Precondition includes the warm-up's share of them
// (DESIGN §5b).
func (c *Controller) ResetMeasurement() {
	// In-flight completions belong to the window being reset; a failed run's
	// error stays sticky and surfaces at the next request.
	_ = c.quiesce(true)
	for _, sh := range c.shards {
		sh.dev.ResetStats()
	}
	c.resp = stats.Welford{}
	c.readResp = stats.Welford{}
	c.writeResp = stats.Welford{}
	c.hist = stats.LatencyHist{}
	if c.series != nil {
		ts, _ := stats.NewTimeSeries(c.series.BucketWidth())
		c.series = ts
	}
	c.lastDone = 0
	c.pagesRead = 0
	c.pagesWrit = 0
}

// Serve executes one host request inline, returning its response time. With
// the multi-queue front end running it barriers first, so callers replaying
// whole traces should prefer Run (or EnqueueBatch+Flush), which pipelines
// many requests per barrier.
func (c *Controller) Serve(r trace.Request) (sim.Duration, error) {
	if c.broken != nil {
		return 0, c.broken
	}
	if err := c.quiesce(false); err != nil {
		return 0, err
	}
	d, err := c.classify(r)
	if err != nil {
		return 0, err
	}
	return c.serve(d)
}

// serve is the inline loop: it executes each page of a classified request on
// the shard that owns it, on the caller's goroutine, and folds the request
// into the measurement window.
func (c *Controller) serve(d dispReq) (sim.Duration, error) {
	c.countPages(d)
	done := d.arrival
	for lpn := d.first; lpn <= d.last; lpn++ {
		sh, local := c.shardOf(lpn)
		end, err := sh.run(local, d.arrival, d.read)
		if err != nil {
			return 0, err
		}
		if end > done {
			done = end
		}
	}
	return c.account(d.read, d.arrival, done), nil
}

// countPages adds a classified request's pages to the window's page counts
// and returns how many it spans.
func (c *Controller) countPages(d dispReq) int {
	n := int(d.last - d.first + 1)
	if d.read {
		c.pagesRead += int64(n)
	} else {
		c.pagesWrit += int64(n)
	}
	return n
}

// account folds one completed request into the measurement window and the
// attached observers, returning its response time. Both request paths call
// it in arrival order — the inline loop per request, the front end as each
// epoch folds — so the accumulators see the same floating-point sequence.
func (c *Controller) account(read bool, arrival, done sim.Time) sim.Duration {
	rt := done.Sub(arrival)
	ms := rt.Milliseconds()
	c.resp.Add(ms)
	if read {
		c.readResp.Add(ms)
	} else {
		c.writeResp.Add(ms)
	}
	c.hist.Add(rt)
	if c.series != nil {
		c.series.Add(arrival, ms)
	}
	if done > c.lastDone {
		c.lastDone = done
	}
	if c.rec != nil {
		c.rec.RecordRequest(read, arrival, done)
	}
	if c.latHook != nil {
		c.latHook(rt)
	}
	return rt
}

// SetLatencyHook registers fn to receive every served request's response
// time in arrival order (nil detaches). Both request paths call it — the
// inline loop per request, the front end as each epoch's completions are
// folded — so equivalence tests can compare the exact latency streams.
func (c *Controller) SetLatencyHook(fn func(sim.Duration)) { c.latHook = fn }

// runChunk is how many requests Run pulls from a batching reader per
// EnqueueBatch call.
const runChunk = 256

// Run replays every request from the reader and returns the results, or
// the error a shard worker latched after the last request was dispatched.
// It feeds EnqueueBatch in runChunk chunks, which keeps classification off
// the staging path.
func (c *Controller) Run(r trace.BatchReader) (Result, error) {
	if c.broken != nil {
		return Result{}, c.broken
	}
	buf := make([]trace.Request, runChunk)
	for {
		n, err := r.NextN(buf)
		if n > 0 {
			if derr := c.EnqueueBatch(buf[:n]); derr != nil {
				return Result{}, derr
			}
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return Result{}, err
		}
		if n == 0 {
			break
		}
	}
	if err := c.quiesce(false); err != nil {
		return Result{}, err
	}
	return c.Result(), nil
}

// EnqueueBatch serves a chunk of requests on the pipelined path. Every
// request is classified (validated, page-spanned, bounds-checked) before any
// executes, so a classification error means nothing from the chunk was
// served. Dispatched to the multi-queue front end, FTL decisions happen now
// and timing resolves at the next epoch fold. Epoch handoffs are automatic —
// every 4096 parked pages, and implicitly in every statistics reader — so
// callers may enqueue indefinitely. Inline it is Serve per request with the
// response times discarded.
func (c *Controller) EnqueueBatch(reqs []trace.Request) error {
	if c.broken != nil {
		return c.broken
	}
	c.disp = c.disp[:0]
	for i := range reqs {
		d, err := c.classify(reqs[i])
		if err != nil {
			return err
		}
		c.disp = append(c.disp, d)
	}
	for _, d := range c.disp {
		if err := c.issue(d); err != nil {
			return err
		}
	}
	return nil
}

// issue executes a classified request: dispatched to the front end's
// workers while they run, inline otherwise. This is the request path's one
// engine branch.
func (c *Controller) issue(d dispReq) error {
	if c.fe != nil {
		return c.fe.dispatch(c, d)
	}
	if _, err := c.serve(d); err != nil {
		return err
	}
	if c.pulse != nil {
		c.pulse()
	}
	return nil
}

// Flush is the epoch barrier of the multi-queue front end: quiesce every
// shard, then fold each parked request into the response-time accumulators
// in arrival order. No-op while requests run inline.
func (c *Controller) Flush() {
	if c.fe == nil {
		return
	}
	c.fe.flush(c)
	if c.pulse != nil {
		c.pulse()
	}
}

// Close ends the controller's life. It stops the multi-queue front end's
// worker goroutines after a final barrier (an error a worker latched after
// the last barrier goes with the front end), then frees the capacity-sized
// columns of the FTLs and of the devices (flash.NewColumn), unless Recover
// handed the devices on. The controller must not be used afterwards: a
// request then panics with an index error. A second Close does nothing.
func (c *Controller) Close() {
	c.stopFrontEnd()
	for _, sh := range c.shards {
		sh.f.Release()
		if !c.devicesLent {
			sh.dev.Release()
		}
	}
}

// stopFrontEnd stops the multi-queue front end's workers after a final
// barrier and drops the front end, so requests run inline from then on and
// report their own errors request by request. Harmless on a single-shard
// controller, and when repeated.
func (c *Controller) stopFrontEnd() {
	if c.fe == nil {
		return
	}
	c.fe.flush(c)
	c.fe.stop()
	c.fe = nil
}

// Result summarizes a measurement window.
type Result struct {
	FTL        string
	GCPolicy   string // victim-selection policy in effect ("" if not reported)
	Requests   int64
	PagesRead  int64
	PagesWrit  int64
	SimulatedS float64 // simulated seconds until the last completion

	MeanRespMs  float64 // the paper's headline metric
	StdRespMs   float64
	MaxRespMs   float64
	ReadMeanMs  float64
	WriteMeanMs float64
	P50Ms       float64
	P99Ms       float64

	SDRPP       float64 // ln of the stddev of per-plane operation counts
	PlaneOps    []int64
	WearCV      float64 // coefficient of variation of per-block erase counts
	TotalErases int64

	// Flash traffic.
	Reads, Writes, CopyBacks, Erases int64
	GCCopyBacks, GCExternalMoves     int64
	WastedPages                      int64

	// FTL-specific accounting from the FTLs' Counts, since build (zero
	// where not applicable).
	CMTHitRate    float64
	TransReads    int64
	TransWrites   int64
	LearnedHits   int64
	GCRuns        int64
	SwitchMerges  int64
	PartialMerges int64
	FullMerges    int64
	MergeCopies   int64
}

// Result snapshots the current measurement window. Device counters sum over
// the shards, as do the FTLs' Counts, which count since build (see
// ResetMeasurement); per-plane and per-block series scatter through the
// shard maps into whole-device indexing, so SDRPP and wear metrics read the
// same for every shard count. After a failed Restore it is empty (see Err).
func (c *Controller) Result() Result {
	if c.broken != nil {
		return Result{}
	}
	c.Flush()
	f := c.shards[0].f
	res := Result{
		FTL:         f.Name(),
		Requests:    c.resp.N(),
		PagesRead:   c.pagesRead,
		PagesWrit:   c.pagesWrit,
		SimulatedS:  sim.Duration(c.lastDone).Seconds(),
		MeanRespMs:  c.resp.Mean(),
		StdRespMs:   c.resp.StdDev(),
		MaxRespMs:   c.resp.Max(),
		ReadMeanMs:  c.readResp.Mean(),
		WriteMeanMs: c.writeResp.Mean(),
		P50Ms:       c.hist.Quantile(0.5).Milliseconds(),
		P99Ms:       c.hist.Quantile(0.99).Milliseconds(),
		PlaneOps:    make([]int64, c.geo.Planes()),
	}
	if p, ok := f.(interface{ GCPolicyName() string }); ok {
		res.GCPolicy = p.GCPolicyName()
	}
	// Wear is read in place: wear[gp] is global plane gp's blocks in the
	// erase column of the shard device that serves it.
	bpp := c.geo.BlocksPerPlane
	wear := make([][]int32, c.geo.Planes())
	for _, sh := range c.shards {
		ds := sh.dev.Stats()
		for sp, v := range ds.PlaneTotals() {
			res.PlaneOps[sh.planeMap[sp]] = v
		}
		erases := sh.dev.BlockErases()
		for sp, gp := range sh.planeMap {
			wear[gp] = erases[sp*bpp : (sp+1)*bpp]
		}
		for _, e := range erases {
			res.TotalErases += int64(e)
		}
		res.Reads += ds.Reads()
		res.Writes += ds.Writes()
		res.CopyBacks += ds.CopyBacks()
		res.Erases += ds.Erases()
		res.WastedPages += ds.WastedPages
		cb, ext := ds.GCMoves()
		res.GCCopyBacks += cb
		res.GCExternalMoves += ext
	}
	res.SDRPP = stats.SDRPP(res.PlaneOps)
	res.WearCV = stats.CV(int(c.geo.TotalBlocks()), func(i int) int64 { return int64(wear[i/bpp][i%bpp]) })
	n := c.counts()
	// The hit rate is the whole-device ratio, not a mean of per-shard ones.
	if hits, misses := n[obs.EvCMTHit], n[obs.EvCMTMiss]; hits+misses > 0 {
		res.CMTHitRate = float64(hits) / float64(hits+misses)
	}
	res.TransReads = n[obs.EvTransRead]
	res.TransWrites = n[obs.EvTransWrite]
	res.LearnedHits = n[obs.EvLearnedHit]
	res.GCRuns = n[obs.EvGCRun]
	res.SwitchMerges = n[obs.EvSwitchMerge]
	res.PartialMerges = n[obs.EvPartialMerge]
	res.FullMerges = n[obs.EvFullMerge]
	res.MergeCopies = n[obs.EvMergeCopy]
	return res
}
