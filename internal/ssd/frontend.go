package ssd

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/ftl/bast"
	"dloop/internal/ftl/dftl"
	"dloop/internal/ftl/dloop"
	"dloop/internal/ftl/fast"
	"dloop/internal/ftl/pagemap"
	"dloop/internal/obs"
	"dloop/internal/sim"
	"dloop/internal/stats"
	"dloop/internal/trace"
)

// Concurrent FTL shards behind a multi-queue host front end.
//
// Config.FTLShards > 1 partitions the logical address space LPN mod N over N
// independent FTL shards, LFTL-style. Each shard owns a complete vertical
// slice of the SSD: a private sub-device covering Channels/N channels, its
// own FTL instance (mapping table, CMT slab, log blocks, free-block pools,
// write points) and its own garbage-collection engine with a free-pool
// trigger scoped to the shard's planes. Shards share no mutable state, so
// every placement and collection decision runs concurrently with the others
// — the *control plane* moves off one goroutine.
//
// The host side is an NVMe-style multi-queue front end: one submission ring
// (sim.SPSC) per shard carrying fixed-size page commands, with doorbells
// batched (PushStaged/Ring) so the producer publishes many commands per tail
// store. Completions resolve into future-time slabs double-buffered across
// epochs: while the shards execute epoch K+1's commands, the host folds
// epoch K's parked completions and recycles its slab (see feEpoch/advance),
// so the stop-the-world barrier survives only at true quiescent points
// (statistics readers, checkpoints, recorder switches).
//
// Two completion-merge modes:
//
//   - MergeDeterministic (default): every request's completion is parked and
//     folded into the response-time accumulators at the epoch barrier in
//     arrival order — the same order, and therefore the same floating-point
//     sequence, as serial execution of the same shard layout. Results are
//     bit-identical run to run and to in-order execution of the same
//     configuration, which is what the differential suite pins.
//   - MergeRelaxed: workers fold single-page requests' latencies into
//     per-shard accumulators as they complete; Result merges the per-shard
//     accumulators in shard order. Histograms and counters merge exactly;
//     Welford means/variances differ from deterministic mode only in
//     floating-point rounding. Still deterministic run to run.
//
// An FTLShards=N device is a different device organization than FTLShards=1
// (placement depends on per-shard write order, like striping across N
// sub-drives in RAID 0), so results are comparable across merge modes and
// worker schedules at fixed N, not across N.
//
// Serial execution mode (frontEnd.serial) runs the same shard partitioning
// inline on the host goroutine in dispatch order. It is the baseline the
// differential tests compare concurrent execution against.
//
// Observability is shard-native: attaching an *obs.Collector gives every
// shard a private child collector (obs.Collector.Shard) that only its worker
// touches, so metrics and traces are gathered while the shards run
// concurrently; the parent folds the children back in shard order at
// quiescent points, making the merged registry bit-identical to a serial run
// of the same configuration. Non-Collector recorders have no merge
// semantics, so they keep the old contract: serial execution with a
// translating per-shard wrapper.

// Completion-merge modes for Config.Merge.
const (
	MergeDeterministic = "deterministic"
	MergeRelaxed       = "relaxed"
)

// autoShardMinChannels is the smallest channel count on which AutoShards
// engages the front end. Below it the per-request shard overhead
// (queue hops, barriers) outweighs what little parallelism the shape offers;
// the 4-channel bench shapes regress, the 8-channel ones win.
const autoShardMinChannels = 8

// doorbellBatch is the default for Config.DoorbellBatch: how many staged
// page commands the front end accumulates before ringing the shard
// doorbells. Barriers ring unconditionally, so batching only defers
// visibility, never loses it.
const doorbellBatch = 64

// defaultEpochPages is the default for Config.EpochPages: how many parked
// page completions close a pipeline epoch. Large enough to amortize the
// handoff, small enough that two in-flight epochs stay cache-resident.
const defaultEpochPages = 4096

// maxEpochPages caps Config.EpochPages well below a FutureSlab's 2^26
// slots so an epoch can never overflow its completion slab.
const maxEpochPages = 1 << 22

// feQueueCap bounds each shard's submission ring. Epoch flushes keep
// occupancy far below this; the cap is backpressure against a runaway
// producer, not a working size.
const feQueueCap = 1 << 13

// pendingDone is one request whose response time is deferred to an epoch
// fold: its page completion times live in feEpoch.ends[off:off+n].
type pendingDone struct {
	arrival sim.Time
	off     int32
	n       int32
	read    bool
}

// pageCmd is one page operation in a shard's submission ring.
type pageCmd struct {
	lpn     int64    // shard-local logical page
	arrival sim.Time // request arrival (the response-time origin)
	slot    int32    // slab slot<<1 | epoch-buffer parity; -1 = fold on the worker
	read    bool
}

// shardAcc is the per-shard response-time accumulator the relaxed merge mode
// folds into on the worker. Deterministic mode leaves it empty.
type shardAcc struct {
	resp, readResp, writeResp stats.Welford
	hist                      stats.LatencyHist
	lastDone                  sim.Time
	served                    int64
}

func (a *shardAcc) clone() shardAcc {
	out := *a
	out.hist = a.hist.Clone()
	return out
}

// feEpoch is one stage of the front end's two-deep completion pipeline: a
// future slab plus the requests parked against it. While the shards execute
// the current epoch's commands, the host folds the previous epoch's — those
// slots are a full epoch old, so Wait almost never spins — and then recycles
// that epoch's slab for the epoch after next. Ownership alternates along the
// quiescence protocol: the host allocates slots and appends parked records,
// exactly one worker resolves each slot, and the host reads slots back only
// while folding, after which no live handle survives into the recycled slab.
type feEpoch struct {
	slab  sim.FutureSlab
	pend  []pendingDone // parked requests, in arrival order
	ends  []sim.Time    // per-page completion times or future handles
	pages int           // page commands dispatched into this epoch
}

func (ep *feEpoch) reset() {
	ep.pend = ep.pend[:0]
	ep.ends = ep.ends[:0]
	ep.slab.Reset()
	ep.pages = 0
}

// dispReq is one classified request in the batch dispatch stage: validated,
// page-spanned, and bounds-checked, ready to stage onto the rings.
type dispReq struct {
	arrival     sim.Time
	first, last ftl.LPN
	read        bool
}

// ftlShard is one control-plane shard: a private sub-device, FTL, and GC
// engine, plus the plumbing that connects it to the front end.
type ftlShard struct {
	idx int
	dev *flash.Device
	f   ftl.FTL
	sq  *sim.SPSC[pageCmd]

	// planeMap / chipMap / chanMap translate shard-local resource indices to
	// whole-device ones. Packages spread round-robin over channels, so the
	// shard's planes are not a contiguous range of global planes.
	planeMap []int32
	chipMap  []int32
	chanMap  []int32

	// acc is written by the worker (relaxed merge) and read by the host only
	// after a quiescence barrier, which orders the accesses.
	acc shardAcc
	// mqLat, when a collector is attached, is the shard child's "mq.lat"
	// submission→completion histogram; the worker observes into it, and like
	// acc the host reads it only behind a quiescence barrier.
	mqLat *obs.Hist
	// err is the first execution error, latched by the worker and surfaced
	// by the host at the next barrier.
	err error
}

// frontEnd is the multi-queue host front end over N FTL shards.
type frontEnd struct {
	shards []*ftlShard
	n      int64
	geo    flash.Geometry // whole-device geometry
	cap    ftl.LPN        // total exported pages (sum of shard capacities)
	subCap ftl.LPN        // exported pages per shard

	relaxed bool
	// serial executes page operations inline on the host goroutine in
	// dispatch order instead of routing them through the rings. Forced by an
	// attached recorder and by Close; the differential tests use it as the
	// in-order baseline.
	serial bool
	// running is true while the worker goroutines are alive.
	running bool

	// epochs double-buffers the completion pipeline (see feEpoch): cur is
	// the epoch being filled, 1-cur the previous epoch, whose completions
	// fold while the shards execute. With depth 1 the pipeline degenerates
	// to the old stop-the-world barrier at every epoch close.
	epochs [2]feEpoch
	cur    int

	// epochPages, doorbell, and depth are the resolved Config tunables
	// (EpochPages, DoorbellBatch, PipelineDepth).
	epochPages int
	doorbell   int
	depth      int

	// shardMask/shardShift route pages to shards without integer division
	// when the shard count is a power of two (channel counts almost always
	// are).
	shardPow2  bool
	shardMask  int64
	shardShift uint

	staged int   // page commands staged since the last doorbell
	err    error // sticky first error; surfaced by Serve/Enqueue
	// failed is raised by any worker that latches an execution error, so
	// the host can escalate to a full barrier at the next epoch handoff
	// instead of dispatching the rest of the run into a dead shard.
	failed atomic.Bool
	wg     sync.WaitGroup

	// disp is the batch dispatch stage's classification scratch.
	disp []dispReq

	// tele is the host-side queue telemetry, non-nil only while a collector
	// is attached; teleCol/teleState keep the state paired with its collector
	// across detach/re-attach.
	tele      *feTele
	teleCol   *obs.Collector
	teleState *feTele
}

// feTele accumulates the front end's dispatch-side queue telemetry: doorbell
// rings, pages per ring, the staged-batch high-water mark, and pages per
// shard. It is defined on the dispatch side — identical in serial and
// concurrent execution — so the merged metrics document stays bit-identical
// across modes; consumer-side ring occupancy would be schedule-dependent. An
// attached collector folds it in via an aux source.
type feTele struct {
	doorbells  int64
	pages      int64
	ringHW     int
	shardPages []int64
}

func (t *feTele) fold(r *obs.Registry) {
	r.Counter("mq.doorbells").Add(t.doorbells)
	r.Counter("mq.doorbell.pages").Add(t.pages)
	r.Gauge("mq.ring.highwater").Set(float64(t.ringHW))
	v := r.CounterVec("mq.shard.pages", "shard", len(t.shardPages))
	for i, p := range t.shardPages {
		v.Add(i, p)
	}
}

// resolveFTLShards maps a Config.FTLShards value to an effective shard
// count: AutoShards shards per-channel on shapes of at least
// autoShardMinChannels channels and falls back to the single-FTL engine
// below that; explicit counts are reduced to the largest divisor of the
// channel count so every shard owns the same whole number of channels.
func resolveFTLShards(v, channels int) int {
	if v == AutoShards {
		if channels < autoShardMinChannels {
			return 1
		}
		v = channels
	}
	if v <= 1 {
		return 1
	}
	if v > channels {
		v = channels
	}
	for channels%v != 0 {
		v--
	}
	return v
}

// newFrontEnd builds n shards over sub-devices of geo (Channels/n channels
// each), constructing each shard's FTL with build. Worker goroutines start
// immediately.
func newFrontEnd(geo flash.Geometry, timing flash.Timing, n int, cfg Config,
	build func(dev *flash.Device) (ftl.FTL, error)) (*frontEnd, error) {
	if cfg.BufferPages > 0 {
		return nil, fmt.Errorf("ssd: FTLShards is incompatible with BufferPages (the DRAM buffer is a single ordered cache)")
	}
	subGeo := geo
	subGeo.Channels = geo.Channels / n
	fe := &frontEnd{
		n:       int64(n),
		geo:     geo,
		relaxed: cfg.Merge == MergeRelaxed,
	}
	fe.initTunables(cfg)
	for s := 0; s < n; s++ {
		dev, err := flash.NewDevice(subGeo, timing)
		if err != nil {
			return nil, err
		}
		f, err := build(dev)
		if err != nil {
			return nil, err
		}
		sh := &ftlShard{
			idx: s,
			dev: dev,
			f:   f,
			sq:  sim.NewSPSC[pageCmd](feQueueCap),
		}
		sh.buildMaps(geo, subGeo, s)
		fe.shards = append(fe.shards, sh)
		if fe.subCap == 0 {
			fe.subCap = f.Capacity()
		} else if f.Capacity() != fe.subCap {
			return nil, fmt.Errorf("ssd: shard %d capacity %d != shard 0 capacity %d", s, f.Capacity(), fe.subCap)
		}
	}
	fe.cap = fe.subCap * ftl.LPN(n)
	fe.start()
	return fe, nil
}

// initTunables resolves the pipeline knobs from cfg (zero values select the
// defaults) and precomputes the division-free shard route.
func (fe *frontEnd) initTunables(cfg Config) {
	fe.epochPages = cfg.EpochPages
	if fe.epochPages <= 0 {
		fe.epochPages = defaultEpochPages
	}
	if fe.epochPages > maxEpochPages {
		fe.epochPages = maxEpochPages
	}
	fe.doorbell = cfg.DoorbellBatch
	if fe.doorbell <= 0 {
		fe.doorbell = doorbellBatch
	}
	fe.depth = cfg.PipelineDepth
	if fe.depth <= 0 {
		fe.depth = 2
	}
	if fe.n&(fe.n-1) == 0 {
		fe.shardPow2 = true
		fe.shardMask = fe.n - 1
		for int64(1)<<fe.shardShift < fe.n {
			fe.shardShift++
		}
	}
}

// buildMaps computes the shard-local -> global index translations. Shard s
// owns global channels [s*subC, (s+1)*subC); global packages are laid out
// round-robin over channels (package g lives on channel g % Channels), so
// sub-package k of the shard — itself on sub-channel k % subC, round
// k / subC — is global package (k/subC)*Channels + s*subC + k%subC.
func (sh *ftlShard) buildMaps(geo, subGeo flash.Geometry, s int) {
	subC := subGeo.Channels
	planesPerPkg := geo.ChipsPerPackage * geo.DiesPerChip * geo.PlanesPerDie
	chipsPerPkg := geo.ChipsPerPackage
	sh.planeMap = make([]int32, subGeo.Planes())
	sh.chipMap = make([]int32, subGeo.Chips())
	sh.chanMap = make([]int32, subC)
	for ck := 0; ck < subC; ck++ {
		sh.chanMap[ck] = int32(s*subC + ck)
	}
	gpkgOf := func(k int) int { return (k/subC)*geo.Channels + s*subC + k%subC }
	for sp := 0; sp < subGeo.Planes(); sp++ {
		sh.planeMap[sp] = int32(gpkgOf(sp/planesPerPkg)*planesPerPkg + sp%planesPerPkg)
	}
	for sc := 0; sc < subGeo.Chips(); sc++ {
		sh.chipMap[sc] = int32(gpkgOf(sc/chipsPerPkg)*chipsPerPkg + sc%chipsPerPkg)
	}
}

// shardOfChannel maps every global channel to its owning FTL shard (shard s
// owns the contiguous range [s*subC, (s+1)*subC)).
func (fe *frontEnd) shardOfChannel() []int32 {
	subC := fe.geo.Channels / int(fe.n)
	out := make([]int32, fe.geo.Channels)
	for ch := range out {
		out[ch] = int32(ch / subC)
	}
	return out
}

// channelOfPlane computes the whole-device plane-to-channel map (packages
// spread round-robin over channels), matching flash.Device.ChannelOfPlane.
func (fe *frontEnd) channelOfPlane() []int32 {
	planesPerPkg := fe.geo.ChipsPerPackage * fe.geo.DiesPerChip * fe.geo.PlanesPerDie
	out := make([]int32, fe.geo.Planes())
	for p := range out {
		out[p] = int32((p / planesPerPkg) % fe.geo.Channels)
	}
	return out
}

// start launches one worker goroutine per shard.
func (fe *frontEnd) start() {
	fe.running = true
	fe.serial = false
	for _, sh := range fe.shards {
		fe.wg.Add(1)
		go fe.worker(sh)
	}
}

// stop drains and terminates the workers; the front end falls back to serial
// execution and remains usable.
func (fe *frontEnd) stop() {
	if !fe.running {
		return
	}
	for _, sh := range fe.shards {
		sh.sq.Close()
	}
	fe.wg.Wait()
	fe.running = false
	fe.serial = true
}

// worker is one shard's control plane: it drains the submission ring FIFO,
// so the shard's FTL sees exactly the dispatch-order subsequence of requests
// the serial baseline would feed it.
func (fe *frontEnd) worker(sh *ftlShard) {
	defer fe.wg.Done()
	for {
		cmd, ok := sh.sq.PopWait()
		if !ok {
			return
		}
		fe.exec(sh, cmd)
		sh.sq.MarkDone()
	}
}

// exec runs one page command against the shard's FTL. After an error the
// shard keeps consuming commands without executing them (resolving their
// slots so the host never blocks); the host surfaces the latched error at
// the next barrier. A command's slot carries the epoch-buffer parity in its
// low bit, naming which of the two in-flight slabs owns the completion.
func (fe *frontEnd) exec(sh *ftlShard, cmd pageCmd) {
	if sh.err != nil {
		if cmd.slot >= 0 {
			fe.epochs[cmd.slot&1].slab.Resolve(int(cmd.slot>>1), cmd.arrival)
		}
		return
	}
	var end sim.Time
	var err error
	if cmd.read {
		end, err = sh.f.ReadPage(ftl.LPN(cmd.lpn), cmd.arrival)
	} else {
		end, err = sh.f.WritePage(ftl.LPN(cmd.lpn), cmd.arrival)
	}
	if err != nil {
		sh.err = err
		fe.failed.Store(true)
		if cmd.slot >= 0 {
			fe.epochs[cmd.slot&1].slab.Resolve(int(cmd.slot>>1), cmd.arrival)
		}
		return
	}
	if sh.mqLat != nil {
		sh.mqLat.Observe(end.Sub(cmd.arrival))
	}
	if cmd.slot >= 0 {
		fe.epochs[cmd.slot&1].slab.Resolve(int(cmd.slot>>1), end)
		return
	}
	rt := end.Sub(cmd.arrival)
	ms := rt.Milliseconds()
	sh.acc.resp.Add(ms)
	if cmd.read {
		sh.acc.readResp.Add(ms)
	} else {
		sh.acc.writeResp.Add(ms)
	}
	sh.acc.hist.Add(rt)
	if end > sh.acc.lastDone {
		sh.acc.lastDone = end
	}
	sh.acc.served++
}

// shardOf returns the shard owning a logical page and its shard-local page.
func (fe *frontEnd) shardOf(lpn ftl.LPN) (*ftlShard, int64) {
	l := int64(lpn)
	if fe.shardPow2 {
		return fe.shards[l&fe.shardMask], l >> fe.shardShift
	}
	return fe.shards[l%fe.n], l / fe.n
}

// enqueue classifies and dispatches one request. With deferred=false (the
// synchronous Serve path) the request always parks a completion record so
// the immediately following Flush can return its response time; with
// deferred=true, relaxed merge folds single-page requests on the workers
// and parks nothing.
func (fe *frontEnd) enqueue(c *Controller, r trace.Request, deferred bool) error {
	if fe.err != nil {
		return fe.err
	}
	if err := r.Validate(); err != nil {
		return err
	}
	first, last := c.pageSpan(r)
	if err := ftl.CheckLPN(last, fe.cap); err != nil {
		return fmt.Errorf("ssd: request [%d,%d) exceeds device: %w", r.LBN, r.End(), err)
	}
	d := dispReq{arrival: r.Arrival, first: first, last: last, read: r.Op == trace.OpRead}
	return fe.dispatch(c, d, deferred)
}

// enqueueBatch is the batch dispatch stage: classify the whole chunk first
// (validation, page spans, bounds checks — pure address math, no ring or
// slab traffic), then stage the classified requests onto the rings with
// epoch handoffs interleaved at their boundaries. Splitting the phases
// keeps classification off the staging path and lets one doorbell cover
// many requests. On error nothing from the chunk has been dispatched.
func (fe *frontEnd) enqueueBatch(c *Controller, reqs []trace.Request) error {
	if fe.err != nil {
		return fe.err
	}
	if cap(fe.disp) < len(reqs) {
		fe.disp = make([]dispReq, 0, len(reqs))
	}
	fe.disp = fe.disp[:0]
	for i := range reqs {
		r := &reqs[i]
		if err := r.Validate(); err != nil {
			return err
		}
		first, last := c.pageSpan(*r)
		if err := ftl.CheckLPN(last, fe.cap); err != nil {
			return fmt.Errorf("ssd: request [%d,%d) exceeds device: %w", r.LBN, r.End(), err)
		}
		fe.disp = append(fe.disp, dispReq{arrival: r.Arrival, first: first, last: last, read: r.Op == trace.OpRead})
	}
	for i := range fe.disp {
		if err := fe.dispatch(c, fe.disp[i], true); err != nil {
			return err
		}
		fe.maybeAdvance(c)
	}
	return nil
}

// dispatch stages one classified request: route each page to its shard,
// park the completion record in the current epoch, and ring doorbells.
func (fe *frontEnd) dispatch(c *Controller, d dispReq, deferred bool) error {
	npages := int(d.last - d.first + 1)
	if d.read {
		c.pagesRead += int64(npages)
	} else {
		c.pagesWrit += int64(npages)
	}
	if fe.serial {
		if err := fe.serveSerial(c, d.arrival, d.first, d.last, d.read); err != nil {
			return err
		}
		fe.bell(npages)
		return nil
	}
	// Relaxed merge folds single-page requests entirely on the worker; any
	// consumer that needs the host-side arrival-order stream (latency hook,
	// time series, recorder, the synchronous Serve API) disqualifies it.
	if fe.relaxed && deferred && npages == 1 && c.latHook == nil && c.series == nil && c.rec == nil {
		sh, lpn := fe.shardOf(d.first)
		sh.sq.PushStaged(pageCmd{lpn: lpn, arrival: d.arrival, slot: -1, read: d.read})
		fe.bell(1)
		return nil
	}
	ep := &fe.epochs[fe.cur]
	parity := int32(fe.cur)
	off := len(ep.ends)
	for lpn := d.first; lpn <= d.last; lpn++ {
		sh, local := fe.shardOf(lpn)
		slot, future := ep.slab.NewSlot()
		sh.sq.PushStaged(pageCmd{lpn: local, arrival: d.arrival, slot: int32(slot)<<1 | parity, read: d.read})
		ep.ends = append(ep.ends, future)
		if fe.tele != nil {
			fe.tele.shardPages[sh.idx]++
		}
	}
	ep.pend = append(ep.pend, pendingDone{
		arrival: d.arrival,
		off:     int32(off),
		n:       int32(npages),
		read:    d.read,
	})
	ep.pages += npages
	fe.bell(npages)
	return nil
}

// bell counts staged page commands and rings the doorbells once enough have
// accumulated.
func (fe *frontEnd) bell(pages int) {
	fe.staged += pages
	if fe.staged < fe.doorbell {
		return
	}
	fe.ring()
}

// ring publishes the staged batch: telemetry accounts it, and the concurrent
// path stores every shard's ring tail (a no-op on shards with nothing
// staged). Serial mode accounts the same batches without touching the rings,
// so dispatch-side telemetry is identical in both execution modes.
func (fe *frontEnd) ring() {
	if fe.staged == 0 {
		return
	}
	if fe.tele != nil {
		fe.tele.doorbells++
		fe.tele.pages += int64(fe.staged)
		if fe.staged > fe.tele.ringHW {
			fe.tele.ringHW = fe.staged
		}
	}
	if !fe.serial && fe.running {
		for _, sh := range fe.shards {
			sh.sq.Ring()
		}
	}
	fe.staged = 0
}

// serveSerial executes a request's pages inline in dispatch order: the
// in-order baseline. Completion times park exactly like the concurrent
// path's, so Flush folds both identically.
func (fe *frontEnd) serveSerial(c *Controller, arrival sim.Time, first, last ftl.LPN, read bool) error {
	ep := &fe.epochs[fe.cur]
	off := len(ep.ends)
	for lpn := first; lpn <= last; lpn++ {
		sh, local := fe.shardOf(lpn)
		var end sim.Time
		var err error
		if read {
			end, err = sh.f.ReadPage(ftl.LPN(local), arrival)
		} else {
			end, err = sh.f.WritePage(ftl.LPN(local), arrival)
		}
		if err != nil {
			ep.ends = ep.ends[:off]
			fe.err = err
			return err
		}
		if sh.mqLat != nil {
			sh.mqLat.Observe(end.Sub(arrival))
		}
		if fe.tele != nil {
			fe.tele.shardPages[sh.idx]++
		}
		ep.ends = append(ep.ends, end)
	}
	ep.pend = append(ep.pend, pendingDone{
		arrival: arrival,
		off:     int32(off),
		n:       int32(last - first + 1),
		read:    read,
	})
	ep.pages += int(last - first + 1)
	return nil
}

// barrier waits until every dispatched page command has fully executed. On
// return the host may touch shard state freely: the quiescence count is the
// synchronization edge, and the next ring publish hands the state back to
// the worker.
func (fe *frontEnd) barrier() {
	fe.ring() // account (and, concurrent, publish) the partial batch
	if !fe.serial && fe.running {
		for _, sh := range fe.shards {
			sh.sq.AwaitQuiesced() // rings the doorbell itself
		}
		for _, sh := range fe.shards {
			if sh.err != nil && fe.err == nil {
				fe.err = sh.err
			}
		}
	}
}

// maybeAdvance closes the current epoch once it holds enough parked pages.
func (fe *frontEnd) maybeAdvance(c *Controller) {
	if fe.epochs[fe.cur].pages >= fe.epochPages {
		fe.advance(c)
	}
}

// advance is the pipelined epoch handoff: publish the closing epoch's tail
// batch, fold the previous epoch's completions while the shards execute the
// one just closed, and recycle the previous slab as the buffer for the next
// epoch. No worker stalls: the only waiting is slab.Wait on slots a full
// epoch old, which in steady state have long resolved. The host therefore
// runs at most two epochs ahead of the slowest shard — the natural
// backpressure that bounds both slabs.
func (fe *frontEnd) advance(c *Controller) {
	if fe.depth < 2 {
		// Degenerate pipeline: the classic stop-the-world barrier epoch
		// (Flush also fires the pulse, matching the pre-pipeline cadence).
		c.Flush()
		return
	}
	fe.ring()
	if fe.failed.Load() {
		// A worker latched an error; quiesce now so fe.err surfaces on the
		// next enqueue instead of at the end of the run.
		c.Flush()
		return
	}
	fe.foldEpoch(c, &fe.epochs[1-fe.cur])
	fe.cur = 1 - fe.cur
	if c.pulse != nil {
		// Pulse consumers (the live exporter) snapshot shard-side state,
		// which is only safe at a true quiescent point.
		fe.barrier()
		c.pulse()
	}
}

// foldEpoch folds one epoch's parked requests into the response-time
// accumulators in arrival order — the same order, and therefore the same
// floating-point sequence, no matter how the stream was cut into epochs or
// how long fold was deferred; that invariance is why determinism survives
// the pipelining. Afterwards the epoch recycles: every handle has been
// resolved, so no live reference survives into the reused slab.
func (fe *frontEnd) foldEpoch(c *Controller, ep *feEpoch) {
	if fe.err != nil {
		ep.reset() // the run is being abandoned; drop, don't fold
		return
	}
	for _, p := range ep.pend {
		done := p.arrival
		for i := int32(0); i < p.n; i++ {
			idx := p.off + i
			t := ep.ends[idx]
			if sim.IsFutureTime(t) {
				t = ep.slab.Wait(sim.FutureSlot(t))
			}
			if t > done {
				done = t
			}
		}
		rt := done.Sub(p.arrival)
		ms := rt.Milliseconds()
		c.resp.Add(ms)
		if p.read {
			c.readResp.Add(ms)
		} else {
			c.writeResp.Add(ms)
		}
		c.hist.Add(rt)
		if c.series != nil {
			c.series.Add(p.arrival, ms)
		}
		if done > c.lastDone {
			c.lastDone = done
		}
		c.served++
		c.lastRT = rt
		if c.rec != nil {
			c.rec.RecordRequest(p.read, p.arrival, done)
		}
		if c.latHook != nil {
			c.latHook(rt)
		}
	}
	ep.reset()
}

// flush is the full epoch barrier: quiesce every shard, fold both in-flight
// epochs in arrival order (previous epoch first), and recycle both slabs.
// This is the quiescent point every statistics reader, checkpoint, recorder
// switch, and mode change goes through.
func (fe *frontEnd) flush(c *Controller) {
	fe.barrier()
	if fe.err != nil {
		fe.epochs[0].reset()
		fe.epochs[1].reset()
		return
	}
	fe.foldEpoch(c, &fe.epochs[1-fe.cur])
	fe.foldEpoch(c, &fe.epochs[fe.cur])
}

// discard drops both epochs' parked completions without folding them (the
// accumulators are about to be reset or overwritten anyway).
func (fe *frontEnd) discard() {
	fe.barrier()
	fe.epochs[0].reset()
	fe.epochs[1].reset()
}

// precondition sequentially writes the first pages logical pages, chaining
// times within each shard (shards fill concurrently in simulated time,
// exactly as independent sub-drives would). Runs inline on the host
// goroutine; preconditioning is setup, not the measured hot path.
func (fe *frontEnd) precondition(c *Controller, pages ftl.LPN) error {
	if pages > fe.cap {
		return fmt.Errorf("ssd: precondition %d pages exceeds capacity %d", pages, fe.cap)
	}
	fe.flush(c) // nothing in flight while the host touches shard FTLs
	if fe.err != nil {
		return fe.err
	}
	tails := make([]sim.Time, len(fe.shards)) // each shard's write chain
	for lpn := ftl.LPN(0); lpn < pages; lpn++ {
		sh, local := fe.shardOf(lpn)
		end, err := sh.f.WritePage(ftl.LPN(local), tails[sh.idx])
		if err != nil {
			return fmt.Errorf("ssd: precondition lpn %d: %w", lpn, err)
		}
		tails[sh.idx] = end
	}
	c.ResetMeasurement()
	return nil
}

// result aggregates the measurement window across shards. Counters and
// histograms merge exactly; per-plane and per-block series scatter through
// the shard maps into whole-device indexing, so SDRPP and wear metrics read
// identically to an unsharded device's.
func (fe *frontEnd) result(c *Controller) Result {
	c.Flush()
	resp, readResp, writeResp := c.resp, c.readResp, c.writeResp
	hist := c.hist.Clone()
	lastDone, served := c.lastDone, c.served
	for _, sh := range fe.shards {
		resp.Merge(sh.acc.resp)
		readResp.Merge(sh.acc.readResp)
		writeResp.Merge(sh.acc.writeResp)
		hist.Merge(sh.acc.hist)
		if sh.acc.lastDone > lastDone {
			lastDone = sh.acc.lastDone
		}
		served += sh.acc.served
	}
	res := Result{
		FTL:         fe.shards[0].f.Name(),
		Requests:    served,
		PagesRead:   c.pagesRead,
		PagesWrit:   c.pagesWrit,
		SimulatedS:  sim.Duration(lastDone).Seconds(),
		MeanRespMs:  resp.Mean(),
		StdRespMs:   resp.StdDev(),
		MaxRespMs:   resp.Max(),
		ReadMeanMs:  readResp.Mean(),
		WriteMeanMs: writeResp.Mean(),
		P50Ms:       hist.Quantile(0.5).Milliseconds(),
		P99Ms:       hist.Quantile(0.99).Milliseconds(),
		PlaneOps:    make([]int64, fe.geo.Planes()),
	}
	if p, ok := fe.shards[0].f.(interface{ GCPolicyName() string }); ok {
		res.GCPolicy = p.GCPolicyName()
	}
	erases := make([]int64, fe.geo.TotalBlocks())
	bpp := fe.geo.BlocksPerPlane
	var cmtHits, cmtMisses int64
	for _, sh := range fe.shards {
		ds := sh.dev.Stats()
		for sp, v := range ds.PlaneTotals() {
			res.PlaneOps[sh.planeMap[sp]] = v
		}
		for bi, e := range ds.BlockErases {
			gp := int64(sh.planeMap[bi/bpp])
			erases[gp*int64(bpp)+int64(bi%bpp)] = int64(e)
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
		addFTLStats(sh.f, &res, &cmtHits, &cmtMisses)
	}
	res.SDRPP = stats.SDRPP(res.PlaneOps)
	res.WearCV = stats.CV(erases)
	if cmtHits+cmtMisses > 0 {
		res.CMTHitRate = float64(cmtHits) / float64(cmtHits+cmtMisses)
	}
	return res
}

// addFTLStats folds one shard FTL's scheme-specific counters into the
// result. CMT hits and misses accumulate separately so the merged hit rate
// is the whole-device ratio, not a mean of per-shard ratios.
func addFTLStats(f ftl.FTL, res *Result, cmtHits, cmtMisses *int64) {
	if cr, ok := f.(interface {
		CMTHitRate() (float64, int64, int64)
	}); ok {
		_, h, m := cr.CMTHitRate()
		*cmtHits += h
		*cmtMisses += m
	}
	switch f := f.(type) {
	case *dloop.DLOOP:
		s := f.Stats()
		res.GCRuns += s.GCRuns
		res.TransReads += s.MapperStats.TransReads
		res.TransWrites += s.MapperStats.TransWrites
		res.LearnedHits += s.MapperStats.LearnedHits
	case *dftl.DFTL:
		s := f.Stats()
		res.GCRuns += s.GCRuns
		res.TransReads += s.MapperStats.TransReads
		res.TransWrites += s.MapperStats.TransWrites
		res.LearnedHits += s.MapperStats.LearnedHits
	case *fast.FAST:
		s := f.Stats()
		res.SwitchMerges += s.SwitchMerges
		res.PartialMerges += s.PartialMerges
		res.FullMerges += s.FullMerges
		res.MergeCopies += s.MergeCopies
	case *bast.BAST:
		s := f.Stats()
		res.SwitchMerges += s.SwitchMerges
		res.FullMerges += s.FullMerges
		res.MergeCopies += s.MergeCopies
	case *pagemap.PureMap:
		s := f.Stats()
		res.GCRuns += s.GCRuns
	}
}

// busyTimes aggregates per-shard cumulative busy times into whole-device
// vectors; the observability collector samples it at Close.
func (fe *frontEnd) busyTimes() (planes, chipBus, channels []sim.Duration) {
	planes = make([]sim.Duration, fe.geo.Planes())
	chipBus = make([]sim.Duration, fe.geo.Chips())
	channels = make([]sim.Duration, fe.geo.Channels)
	for _, sh := range fe.shards {
		p, cb, ch := sh.dev.BusyTimes()
		for i, v := range p {
			planes[sh.planeMap[i]] = v
		}
		for i, v := range cb {
			chipBus[sh.chipMap[i]] = v
		}
		for i, v := range ch {
			channels[sh.chanMap[i]] = v
		}
	}
	return planes, chipBus, channels
}

// gcVictimRecorder is the GC engine's optional victim-histogram extension of
// obs.Recorder (see gc.Config); the shard wrapper must forward it or a
// wrapped collector would silently lose the victim-validity distribution.
type gcVictimRecorder interface {
	RecordGCVictim(valid int, at sim.Time)
}

// shardRecorder translates a shard's local plane/channel indices into
// whole-device ones before forwarding to the real recorder, so N shards
// produce one coherent device-wide stream.
type shardRecorder struct {
	inner    obs.Recorder
	victim   gcVictimRecorder   // non-nil when inner reports GC victims
	gcSpan   obs.GCSpanRecorder // non-nil when inner takes rich GC spans
	planeMap []int32
	chanMap  []int32
}

func newShardRecorder(inner obs.Recorder, sh *ftlShard) *shardRecorder {
	r := &shardRecorder{inner: inner, planeMap: sh.planeMap, chanMap: sh.chanMap}
	if vr, ok := inner.(gcVictimRecorder); ok {
		r.victim = vr
	}
	if sr, ok := inner.(obs.GCSpanRecorder); ok {
		r.gcSpan = sr
	}
	return r
}

func (r *shardRecorder) RecordOp(op obs.Op) {
	op.Plane = r.planeMap[op.Plane]
	op.Channel = r.chanMap[op.Channel]
	r.inner.RecordOp(op)
}

func (r *shardRecorder) RecordEvent(kind obs.EventKind, at sim.Time) {
	r.inner.RecordEvent(kind, at)
}

func (r *shardRecorder) RecordSpan(kind obs.SpanKind, plane int32, start, end sim.Time) {
	r.inner.RecordSpan(kind, r.planeMap[plane], start, end)
}

func (r *shardRecorder) RecordRequest(read bool, arrival, done sim.Time) {
	r.inner.RecordRequest(read, arrival, done)
}

func (r *shardRecorder) RecordGCVictim(valid int, at sim.Time) {
	if r.victim != nil {
		r.victim.RecordGCVictim(valid, at)
	}
}

func (r *shardRecorder) RecordGCSpan(plane int32, start, end sim.Time, policy string, moved, wasted int) {
	if r.gcSpan != nil {
		r.gcSpan.RecordGCSpan(r.planeMap[plane], start, end, policy, moved, wasted)
		return
	}
	r.inner.RecordSpan(obs.SpanGC, r.planeMap[plane], start, end)
}

// setRecorder attaches (or detaches) observability across every shard. An
// *obs.Collector stays concurrent: each shard gets a private child collector
// (local indices, merged at quiescent points), and the front end's
// dispatch-side queue telemetry switches on. Any other Recorder has no merge
// semantics and keeps the old contract: serial execution through a
// translating per-shard wrapper.
func (fe *frontEnd) setRecorder(c *Controller, r obs.Recorder) {
	fe.flush(c)
	c.rec = r
	if col, ok := r.(*obs.Collector); ok && col != nil {
		subC := fe.geo.Channels / int(fe.n)
		for _, sh := range fe.shards {
			child := col.Shard(obs.ShardOptions{
				Index:          sh.idx,
				Planes:         len(sh.planeMap),
				Channels:       subC,
				ChannelOfPlane: sh.dev.ChannelOfPlane(),
				PlaneMap:       sh.planeMap,
				ChanMap:        sh.chanMap,
			})
			sh.dev.SetRecorder(child)
			if o, ok := sh.f.(ftl.Observable); ok {
				o.SetRecorder(child)
			}
			sh.mqLat = child.Registry().Hist("mq.lat")
		}
		col.SetUtilizationSource(fe.busyTimes)
		if fe.teleCol != col {
			fe.teleCol = col
			fe.teleState = &feTele{shardPages: make([]int64, len(fe.shards))}
			st := fe.teleState
			col.AddAuxSource(func(reg *obs.Registry) { st.fold(reg) })
		}
		fe.tele = fe.teleState
		return
	}
	if r != nil {
		fe.serial = true
		for _, sh := range fe.shards {
			wrapped := newShardRecorder(r, sh)
			sh.dev.SetRecorder(wrapped)
			if o, ok := sh.f.(ftl.Observable); ok {
				o.SetRecorder(wrapped)
			}
		}
		return
	}
	fe.tele = nil
	for _, sh := range fe.shards {
		sh.dev.SetRecorder(nil)
		if o, ok := sh.f.(ftl.Observable); ok {
			o.SetRecorder(nil)
		}
		sh.mqLat = nil
	}
	if fe.running {
		fe.serial = false
	}
}

// resetMeasurement zeroes shard-side statistics (the host-side accumulators
// are the controller's).
func (fe *frontEnd) resetMeasurement() {
	for _, sh := range fe.shards {
		sh.dev.ResetStats()
		sh.acc = shardAcc{}
	}
}

// feCheckpoint is the per-shard portion of a front-end controller's
// Checkpoint: one device state, FTL state, and relaxed-merge accumulator per
// shard.
type feCheckpoint struct {
	devs []*flash.DeviceState
	ftls []any
	accs []shardAcc
}

// snapshot deep-copies every shard's state after a barrier.
func (fe *frontEnd) snapshot(c *Controller) (*feCheckpoint, error) {
	fe.flush(c)
	cp := &feCheckpoint{}
	for _, sh := range fe.shards {
		snapper, ok := sh.f.(ftl.Snapshotter)
		if !ok {
			return nil, fmt.Errorf("ssd: FTL %s does not support checkpointing", sh.f.Name())
		}
		cp.devs = append(cp.devs, sh.dev.Snapshot())
		cp.ftls = append(cp.ftls, snapper.Snapshot())
		cp.accs = append(cp.accs, sh.acc.clone())
	}
	return cp, nil
}

// restore rewinds every shard to a checkpoint taken from an identically
// configured front end.
func (fe *frontEnd) restore(c *Controller, cp *feCheckpoint) error {
	if cp == nil || len(cp.devs) != len(fe.shards) {
		return fmt.Errorf("ssd: checkpoint does not match this controller's %d FTL shards", len(fe.shards))
	}
	fe.discard() // in-flight work belongs to the run being abandoned
	for i, sh := range fe.shards {
		snapper, ok := sh.f.(ftl.Snapshotter)
		if !ok {
			return fmt.Errorf("ssd: FTL %s does not support checkpointing", sh.f.Name())
		}
		if err := snapper.Restore(cp.ftls[i]); err != nil {
			return err
		}
		sh.dev.Restore(cp.devs[i])
		sh.acc = cp.accs[i].clone()
	}
	return nil
}

// recoverShards rebuilds every shard's FTL from its sub-device's out-of-band
// page tags (simulated power loss) and returns a fresh front end over the
// same sub-devices. The old front end's workers stop first; its controller
// stays usable for read-only lookups.
func (fe *frontEnd) recoverShards(cfg Config, extra int) (*frontEnd, error) {
	fe.stop()
	nfe := &frontEnd{
		n:       fe.n,
		geo:     fe.geo,
		cap:     fe.cap,
		subCap:  fe.subCap,
		relaxed: cfg.Merge == MergeRelaxed,
	}
	nfe.initTunables(cfg)
	for _, sh := range fe.shards {
		f, err := recoverFTL(sh.dev, cfg, extra)
		if err != nil {
			return nil, err
		}
		sh.dev.SetRecorder(nil)
		nfe.shards = append(nfe.shards, &ftlShard{
			idx:      sh.idx,
			dev:      sh.dev,
			f:        f,
			sq:       sim.NewSPSC[pageCmd](feQueueCap),
			planeMap: sh.planeMap,
			chipMap:  sh.chipMap,
			chanMap:  sh.chanMap,
		})
	}
	nfe.start()
	return nfe, nil
}
