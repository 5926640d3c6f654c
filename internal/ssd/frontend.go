package ssd

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/obs"
	"dloop/internal/sim"
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
// store. Completions resolve into future slabs double-buffered across
// epochs: while the shards execute epoch K+1's commands, the host folds
// epoch K's parked completions and recycles its slab (see feEpoch/advance),
// so the stop-the-world barrier survives only at true quiescent points
// (statistics readers, checkpoints, recorder switches, Serve).
//
// Every request's completion is parked and folded into the response-time
// accumulators in arrival order — the same order, and therefore the same
// floating-point sequence, as the controller's inline loop over the same
// shard layout. So results are bit-identical run to run and to inline
// execution of the same configuration, which is what the differential suite
// pins.
//
// An FTLShards=N device is a different device organization than FTLShards=1
// (placement depends on per-shard write order, like striping across N
// sub-drives in RAID 0), so results are comparable across worker schedules
// at fixed N, not across N.
//
// The front end has no execution mode: a multi-shard controller creates it
// with its workers running and drops it at Close or Recover. Requests reach
// the shards through it or through the controller's inline loop, which
// serves one shard, a crashed controller after Recover, and every Serve
// call.
//
// Observability is shard-native: attaching an *obs.Collector gives every
// shard a private child collector (obs.Collector.Shard) that only its worker
// touches, so metrics and traces are gathered while the shards run
// concurrently; the parent folds the children back in shard order at
// quiescent points, making the merged registry bit-identical to an inline
// run of the same configuration. Other recorders have no merge semantics,
// so a multi-shard controller refuses them (ErrForeignRecorder).

// autoShardMinChannels is the smallest channel count on which AutoShards
// engages the front end. Below it the per-request shard overhead
// (queue hops, barriers) outweighs what little parallelism the shape offers;
// the 4-channel bench shapes regress, the 8-channel ones win.
const autoShardMinChannels = 8

// doorbellBatch is how many staged page commands the front end accumulates
// before ringing the shard doorbells. Barriers ring unconditionally, so
// batching only defers visibility, never loses it.
const doorbellBatch = 64

// defaultEpochPages is how many parked page completions close a pipeline
// epoch: large enough to amortize the handoff, small enough that two
// in-flight epochs stay cache-resident.
const defaultEpochPages = 4096

// feQueueCap bounds each shard's submission ring. Epoch flushes keep
// occupancy far below this; the cap is backpressure against a runaway
// producer, not a working size.
const feQueueCap = 1 << 13

// pendingDone is one request whose response time is deferred to an epoch
// fold. Slots are allocated in dispatch order, so its n page completion
// times resolve in the n slab slots after those of the requests parked
// before it.
type pendingDone struct {
	arrival sim.Time
	n       int32
	read    bool
}

// pageCmd is one page operation in a shard's submission ring.
type pageCmd struct {
	lpn     ftl.LPN  // shard-local logical page
	arrival sim.Time // request arrival (the response-time origin)
	slot    int32    // slab slot<<1 | epoch-buffer parity
	read    bool
}

// feEpoch is one stage of the front end's two-deep completion pipeline: a
// future slab plus the requests parked against it. While the shards execute
// the current epoch's commands, the host folds the previous epoch's — those
// slots are a full epoch old, so Wait almost never spins — and then recycles
// that epoch's slab for the epoch after next. Ownership alternates along the
// quiescence protocol: the host allocates slots and appends parked records,
// exactly one worker resolves each slot, and the host reads slots back only
// while folding, after which no live slot survives into the recycled slab.
type feEpoch struct {
	slab  sim.FutureSlab
	pend  []pendingDone // parked requests, in arrival order
	pages int           // page commands dispatched into this epoch: its slots
}

func (ep *feEpoch) reset() {
	ep.pend = ep.pend[:0]
	ep.slab.Reset()
	ep.pages = 0
}

// ftlShard is one control-plane shard: a device, its FTL and GC engine, and
// the index maps placing it in the whole device. A single FTL is one shard
// spanning the device, with identity maps; N shards run over
// Channels/N-channel sub-devices, each fed by its own submission ring while
// the front end runs.
type ftlShard struct {
	idx int
	dev *flash.Device
	f   ftl.FTL
	sq  *sim.SPSC[pageCmd] // the front end's ring; nil with one shard

	// planeMap / chipMap / chanMap translate shard-local resource indices to
	// whole-device ones. Packages spread round-robin over channels, so the
	// shard's planes are not a contiguous range of global planes.
	planeMap []int32
	chipMap  []int32
	chanMap  []int32

	// mqLat, when a collector is attached, is the shard child's "mq.lat"
	// submission→completion histogram; the worker observes into it, and the
	// host reads it only behind a quiescence barrier.
	mqLat *obs.Hist
	// err is the first execution error, latched by the worker and surfaced
	// by the host at the next barrier. The inline loop returns its errors
	// directly instead.
	err error
}

// frontEnd is the multi-queue host front end over the controller's shards:
// one ring and one worker goroutine per shard. It exists only while the
// workers run: from newController to Controller.Close or Recover.
type frontEnd struct {
	shards []*ftlShard

	// epochs double-buffers the completion pipeline (see feEpoch): cur is
	// the epoch being filled, 1-cur the previous epoch, whose completions
	// fold while the shards execute.
	epochs [2]feEpoch
	cur    int
	// epochPages is how many parked pages close an epoch: defaultEpochPages,
	// which the epoch-sweep tests shorten.
	epochPages int

	staged int   // page commands staged since the last doorbell
	err    error // sticky first error; surfaced by dispatch and quiesce
	// failed is raised by any worker that latches an execution error, so
	// the host can escalate to a full barrier at the next epoch handoff
	// instead of dispatching the rest of the run into a dead shard.
	failed atomic.Bool
	wg     sync.WaitGroup
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

// buildShards lays n FTL shards over sub-devices of geo (Channels/n channels
// each), constructing each shard's FTL with build. With n = 1 the one shard
// is the whole device.
func buildShards(geo flash.Geometry, timing flash.Timing, n int,
	build func(dev *flash.Device) (ftl.FTL, error)) ([]*ftlShard, error) {
	subGeo := geo
	subGeo.Channels = geo.Channels / n
	shards := make([]*ftlShard, 0, n)
	fail := func(err error) ([]*ftlShard, error) {
		for _, sh := range shards {
			sh.f.Release()
			sh.dev.Release()
		}
		return nil, err
	}
	for s := range n {
		dev, err := flash.NewDevice(subGeo, timing)
		if err != nil {
			return fail(err)
		}
		f, err := build(dev)
		if err != nil {
			dev.Release()
			return fail(err)
		}
		shards = append(shards, &ftlShard{idx: s, dev: dev, f: f})
		if s > 0 && f.Capacity() != shards[0].f.Capacity() {
			return fail(fmt.Errorf("ssd: shard %d capacity %d != shard 0 capacity %d", s, f.Capacity(), shards[0].f.Capacity()))
		}
		shards[s].buildMaps(geo, subGeo, s)
	}
	return shards, nil
}

// buildMaps computes the shard-local -> global index translations. Shard s
// owns global channels [s*subC, (s+1)*subC); global packages are laid out
// round-robin over channels (package g lives on channel g % Channels), so
// sub-package k of the shard — itself on sub-channel k % subC, round
// k / subC — is global package (k/subC)*Channels + s*subC + k%subC. With one
// shard (subC = Channels, s = 0) every map is the identity.
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

// run executes one page operation on the shard's FTL, observing its
// submission→completion latency when a collector is attached.
func (sh *ftlShard) run(lpn ftl.LPN, arrival sim.Time, read bool) (sim.Time, error) {
	var end sim.Time
	var err error
	if read {
		end, err = sh.f.ReadPage(lpn, arrival)
	} else {
		end, err = sh.f.WritePage(lpn, arrival)
	}
	if err == nil && sh.mqLat != nil {
		sh.mqLat.Observe(end.Sub(arrival))
	}
	return end, err
}

// newFrontEnd puts a submission ring in front of every shard and starts one
// worker goroutine per shard.
func newFrontEnd(shards []*ftlShard) *frontEnd {
	fe := &frontEnd{shards: shards, epochPages: defaultEpochPages}
	for _, sh := range shards {
		sh.sq = sim.NewSPSC[pageCmd](feQueueCap)
		fe.wg.Add(1)
		go fe.worker(sh)
	}
	return fe
}

// stop drains and terminates the workers. The caller has quiesced the front
// end and drops it afterwards.
func (fe *frontEnd) stop() {
	for _, sh := range fe.shards {
		sh.sq.Close()
	}
	fe.wg.Wait()
}

// worker is one shard's control plane: it drains the submission ring FIFO,
// so the shard's FTL sees exactly the dispatch-order subsequence of requests
// the inline loop would feed it.
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

// exec runs one page command against the shard's FTL and resolves its slot,
// whose low bit names which of the two in-flight slabs owns the completion.
// After an error the shard keeps consuming commands without executing them,
// resolving each slot to its arrival so the host never blocks; the host
// surfaces the latched error at the next barrier.
func (fe *frontEnd) exec(sh *ftlShard, cmd pageCmd) {
	end := cmd.arrival
	if sh.err == nil {
		t, err := sh.run(cmd.lpn, cmd.arrival, cmd.read)
		if err != nil {
			sh.err = err
			fe.failed.Store(true)
		} else {
			end = t
		}
	}
	fe.epochs[cmd.slot&1].slab.Resolve(int(cmd.slot>>1), end)
}

// dispatch stages each page of a classified request onto its shard's ring,
// parks the request's completion record in the current epoch, rings the
// doorbells once enough commands are staged, and closes the epoch once it
// holds enough pages.
func (fe *frontEnd) dispatch(c *Controller, d dispReq) error {
	if fe.err != nil {
		return fe.err
	}
	npages := c.countPages(d)
	ep := &fe.epochs[fe.cur]
	parity := int32(fe.cur)
	for lpn := d.first; lpn <= d.last; lpn++ {
		sh, local := c.shardOf(lpn)
		slot := ep.slab.NewSlot()
		sh.sq.PushStaged(pageCmd{lpn: local, arrival: d.arrival, slot: int32(slot)<<1 | parity, read: d.read})
	}
	ep.pend = append(ep.pend, pendingDone{arrival: d.arrival, n: int32(npages), read: d.read})
	ep.pages += npages
	if fe.staged += npages; fe.staged >= doorbellBatch {
		fe.ring()
	}
	if ep.pages >= fe.epochPages {
		fe.advance(c)
	}
	return nil
}

// ring publishes the staged batch: it stores every shard's ring tail (a
// no-op on shards with nothing staged).
func (fe *frontEnd) ring() {
	if fe.staged == 0 {
		return
	}
	for _, sh := range fe.shards {
		sh.sq.Ring()
	}
	fe.staged = 0
}

// barrier waits until every dispatched page command has fully executed. On
// return the host may touch shard state freely: the quiescence count is the
// synchronization edge, and the next ring publish hands the state back to
// the worker.
func (fe *frontEnd) barrier() {
	fe.staged = 0
	for _, sh := range fe.shards {
		sh.sq.AwaitQuiesced() // rings the doorbell itself
	}
	for _, sh := range fe.shards {
		if sh.err != nil && fe.err == nil {
			fe.err = sh.err
		}
	}
}

// clearErr forgets the error a worker latched in a run that a successful
// Restore has replaced. The caller has quiesced the front end; the next ring
// publish hands the cleared shard fields back to the workers.
func (fe *frontEnd) clearErr() {
	fe.err = nil
	fe.failed.Store(false)
	for _, sh := range fe.shards {
		sh.err = nil
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
	fe.ring()
	if fe.failed.Load() {
		// A worker latched an error; quiesce now so fe.err surfaces on the
		// next request instead of at the end of the run.
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
// the pipelining. Afterwards the epoch recycles: every slot has been
// resolved, so none stays live into the reused slab.
func (fe *frontEnd) foldEpoch(c *Controller, ep *feEpoch) {
	if fe.err != nil {
		ep.reset() // the run is being abandoned; drop, don't fold
		return
	}
	slot := 0
	for _, p := range ep.pend {
		done := p.arrival
		for end := slot + int(p.n); slot < end; slot++ {
			if t := ep.slab.Wait(slot); t > done {
				done = t
			}
		}
		c.account(p.read, p.arrival, done)
	}
	ep.reset()
}

// flush is the full epoch barrier: quiesce every shard, fold both in-flight
// epochs in arrival order (previous epoch first), and recycle both slabs.
// This is the quiescent point every statistics reader, checkpoint, recorder
// switch, and Serve goes through.
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
