package flash

import (
	"fmt"
	"sync"

	"dloop/internal/sim"
)

// Sharded timing engine.
//
// The sequential device interleaves two very different kinds of work on one
// goroutine: the page/block state machine plus FTL bookkeeping (cheap,
// order-sensitive), and the resource-timeline arithmetic of
// Acquire/AcquireAll (a fifth to a half of a trace replay's CPU time
// depending on the workload — DESIGN §3.1 has the table — but partitioned: a
// plane, its chip bus, and its channel all live behind one channel).
// EnableSharding splits them: the control goroutine keeps running the state
// machine in exactly the sequential order, while each operation's timeline
// math is shipped to the worker owning its channel as a fixed-size
// descriptor. The completion time returned to the FTL becomes a future
// handle (see sim.FutureSlab); a chained ready time that is itself a future
// is resolved by the worker when the dependency publishes, turning the
// conservative-lookahead barrier of classic parallel discrete-event
// simulation into exact per-operation dataflow.
//
// Determinism falls out of three structural facts rather than a lookahead
// bound: (1) the control plane never reads a timing result before an epoch
// barrier, so its decision sequence is byte-identical to the sequential
// engine; (2) every resource belongs to exactly one shard and descriptors
// are pushed in global issue order over FIFO rings, so each resource sees
// the same acquisition sequence and computes the same intervals; (3) the
// statistics workers touch are either per-plane (disjoint) or commutative
// integer sums, and the response-time accumulators with order-sensitive
// floating point are filled in request order at the barrier.
type shardEngine struct {
	dev     *Device
	slab    sim.FutureSlab
	shardOf []int32 // plane -> worker index
	workers []*shardWorker
	wg      sync.WaitGroup
}

// shardOp is one deferred timing computation. Descriptors are pointer-free
// and fixed-size; ready may be a concrete time or a future handle from an
// earlier operation on any shard.
type shardOp struct {
	ready sim.Time
	slot  int32
	plane int32
	kind  opKind
	cause Cause
}

type shardWorker struct {
	q     *sim.SPSC[shardOp]
	stats Stats // folded into Device.stats at every barrier
}

// shardQueueCap bounds descriptors in flight per shard. The controller
// flushes every epoch (~1k requests, a few ops each, spread over shards), so
// the ring almost never exerts backpressure.
const shardQueueCap = 1 << 13

func newShardEngine(d *Device, shards int) *shardEngine {
	e := &shardEngine{
		dev:     d,
		shardOf: make([]int32, d.geo.Planes()),
		workers: make([]*shardWorker, shards),
	}
	for p := range e.shardOf {
		e.shardOf[p] = d.planeChanIdx[p] % int32(shards)
	}
	for i := range e.workers {
		w := &shardWorker{q: sim.NewSPSC[shardOp](shardQueueCap)}
		w.stats.init(d.geo)
		e.workers[i] = w
		e.wg.Add(1)
		go e.run(w)
	}
	return e
}

// submit defers one operation's timing to its shard and returns a future
// handle for its completion time. Control-plane only.
func (e *shardEngine) submit(kind opKind, cause Cause, plane int, ready sim.Time) sim.Time {
	slot, h := e.slab.NewSlot()
	e.workers[e.shardOf[plane]].q.Push(shardOp{
		ready: ready, slot: int32(slot), plane: int32(plane), kind: kind, cause: cause,
	})
	return h
}

// run is one shard's worker loop: resolve the ready time if it is a future,
// schedule the operation exactly as the sequential device would have (it is
// the same Device.schedule), publish the end time, account the latency.
func (e *shardEngine) run(w *shardWorker) {
	defer e.wg.Done()
	d := e.dev
	for {
		op, ok := w.q.PopWait()
		if !ok {
			return
		}
		ready := op.ready
		if sim.IsFutureTime(ready) {
			ready = e.slab.Wait(sim.FutureSlot(ready))
		}
		_, end := d.schedule(op.kind, int(op.plane), ready)
		e.slab.Resolve(int(op.slot), end)
		w.stats.note(op.kind, op.cause, int(op.plane), 1, end.Sub(ready))
		w.q.MarkDone()
	}
}

// sync is the epoch barrier: wait until every shard has processed everything
// submitted so far, then fold the per-shard counters into the device's
// accumulator. After sync every outstanding future is resolved.
func (e *shardEngine) sync() {
	for _, w := range e.workers {
		w.q.AwaitQuiesced()
	}
	for _, w := range e.workers {
		e.dev.stats.merge(&w.stats)
		w.stats.clearCounts()
	}
}

// stop shuts the workers down after a final barrier.
func (e *shardEngine) stop() {
	e.sync()
	for _, w := range e.workers {
		w.q.Close()
	}
	e.wg.Wait()
}

// EnableSharding switches the device's timing computations onto per-channel
// worker goroutines. shards is clamped to [1, Channels]; the actual count is
// returned. The device must be quiescent (no outstanding futures) and must
// not have a recorder attached — per-op trace events are inherently ordered,
// so observability runs stay on the sequential path.
func (d *Device) EnableSharding(shards int) int {
	if d.eng != nil {
		return len(d.eng.workers)
	}
	if d.rec != nil {
		panic("flash: EnableSharding with a recorder attached")
	}
	if shards < 1 {
		shards = 1
	}
	if shards > d.geo.Channels {
		shards = d.geo.Channels
	}
	d.eng = newShardEngine(d, shards)
	return shards
}

// DisableSharding drains the workers, folds their statistics, and returns
// the device to the sequential engine. No-op when sharding is off.
func (d *Device) DisableSharding() {
	if d.eng == nil {
		return
	}
	d.eng.stop()
	d.eng = nil
}

// Sharded reports whether the deferred timing engine is active.
func (d *Device) Sharded() bool { return d.eng != nil }

// ShardCount returns the number of timing shards (1 when sequential).
func (d *Device) ShardCount() int {
	if d.eng == nil {
		return 1
	}
	return len(d.eng.workers)
}

// SyncTiming blocks until every deferred operation has been computed and its
// statistics folded in. After it returns, every future handle handed out so
// far resolves without waiting. No-op when sequential.
func (d *Device) SyncTiming() {
	if d.eng != nil {
		d.eng.sync()
	}
}

// ResetTimingEpoch recycles the future-handle slab. The caller must hold no
// live handles: SyncTiming first, then resolve or drop everything.
func (d *Device) ResetTimingEpoch() {
	if d.eng != nil {
		d.eng.slab.Reset()
	}
}

// ResolveTime turns a possibly-future time into a concrete one, waiting on
// the owning worker if it has not published yet. Identity for concrete times
// and on the sequential engine.
func (d *Device) ResolveTime(t sim.Time) sim.Time {
	if !sim.IsFutureTime(t) {
		return t
	}
	if d.eng == nil {
		panic(fmt.Sprintf("flash: future time %d with sharding disabled", int64(t)))
	}
	return d.eng.slab.Wait(sim.FutureSlot(t))
}
