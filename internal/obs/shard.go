package obs

import (
	"bytes"
	"strconv"
)

// Shard-local collection for the multi-queue engine.
//
// A parent Collector observing an FTLShards=N run spawns one child Collector
// per shard. Each child is a full collector over the shard's *local* plane
// and channel index space, touched only by that shard's worker goroutine, so
// recording stays lock-free and allocation-free while the shards execute
// concurrently. The host reads children only at quiescent points (the epoch
// barrier's AwaitQuiesced edge orders the accesses) and folds them into the
// parent in ascending shard order:
//
//   - counters and histograms add/merge by name (integer-exact; Welford
//     accumulators combine in the fixed shard order, so the result is
//     deterministic and identical to inline execution of the same per-shard
//     dispatch streams);
//   - vectors translate shard-local plane/channel indices to whole-device
//     ones through the shard's maps;
//   - per-shard distributions worth keeping disaggregated (mq.lat, gc.pause)
//     additionally land under "<name>.shard<i>";
//   - time series land only under "<name>.shard<i>" — their per-window means
//     are shard-local quantities with no meaningful cross-shard fold;
//   - trace events retarget to the sharded shard→process / channel→thread
//     layout with the global plane as an event arg.

// ShardOptions describes one FTL shard's slice of the device for a child
// collector: its local shape plus the local→global index translations the
// merge applies.
type ShardOptions struct {
	// Index is the shard's position in the front end (0-based); merges run in
	// ascending Index order.
	Index int
	// Planes and Channels are the shard's local dimensions.
	Planes   int
	Channels int
	// ChannelOfPlane maps local plane -> local channel.
	ChannelOfPlane []int32
	// PlaneMap and ChanMap translate local plane/channel indices to
	// whole-device ones.
	PlaneMap []int32
	ChanMap  []int32
}

type shardChild struct {
	col *Collector
	opt ShardOptions
}

// perShardHists names the distributions that stay disaggregated per shard in
// addition to merging into the device-wide histogram.
var perShardHists = map[string]bool{
	"mq.lat":   true,
	"gc.pause": true,
}

// Shard returns the child collector for one FTL shard, creating it on first
// use (repeat calls with the same Index return the same child, so
// re-attaching a recorder resumes its stream). The child inherits the
// parent's snapshot interval and trace/oplog buffering; the parent's own
// snapshot series switch off, since in a multi-queue run every flash
// operation flows through a child and the parent's windows would be empty.
func (c *Collector) Shard(o ShardOptions) *Collector {
	for _, ch := range c.children {
		if ch.opt.Index == o.Index {
			return ch.col
		}
	}
	child := NewCollector(Options{
		Planes:           o.Planes,
		Channels:         o.Channels,
		ChannelOfPlane:   o.ChannelOfPlane,
		PagesPerBlock:    c.opts.PagesPerBlock,
		SnapshotInterval: c.snapIv,
	})
	if c.tr != nil {
		// The child buffers locally (flat local layout, never flushed); the
		// parent translates the events into its own sharded buffer at Close.
		child.tr = newTraceWriter(nil, c.tr.limit, o.Channels, o.ChannelOfPlane, 0, nil)
	}
	if c.oplog != nil {
		child.oplogBuf = &bytes.Buffer{}
		child.oplog = newOpLog(child.oplogBuf)
	}
	c.opts.SnapshotInterval = 0
	c.children = append(c.children, &shardChild{col: child, opt: o})
	return child
}

// SnapshotRegistry returns an independent merged view of the registry —
// parent, shard children and live gauges — safe to serialize while the run
// continues. Call it only from the host goroutine at a quiescent point (an
// epoch barrier); the live collectors are read, never written. Open
// snapshot windows stay open (they close at Close). After Close it returns a
// plain copy, since the children are already folded in.
func (c *Collector) SnapshotRegistry() *Registry {
	dst := c.reg.clone()
	if c.closed {
		return dst
	}
	for _, ch := range c.children {
		mergeChildRegistry(dst, ch, c)
	}
	c.foldGauges(dst)
	return dst
}

func shardSuffix(i int) string { return ".shard" + strconv.Itoa(i) }

// mergeChildRegistry folds one child's registry into dst. parent supplies
// the whole-device dimensions for translated vectors.
func mergeChildRegistry(dst *Registry, ch *shardChild, parent *Collector) {
	src := ch.col.reg
	for name, v := range src.counters {
		if v.v != 0 {
			dst.Counter(name).Add(v.v)
		}
	}
	for name, h := range src.hists {
		if h.N() == 0 {
			continue
		}
		dst.Hist(name).merge(h)
		if perShardHists[name] {
			dst.Hist(name + shardSuffix(ch.opt.Index)).merge(h)
		}
	}
	for name, v := range src.vecs {
		var m []int32
		size := len(v.vals)
		switch v.label {
		case "plane":
			m, size = ch.opt.PlaneMap, parent.opts.Planes
		case "channel":
			m, size = ch.opt.ChanMap, parent.opts.Channels
		}
		dv := dst.CounterVec(name, v.label, size)
		for i, val := range v.vals {
			if val == 0 {
				continue
			}
			j := i
			if m != nil {
				j = int(m[i])
			}
			dv.Add(j, val)
		}
	}
	for name, s := range src.series {
		if s.Buckets() == 0 {
			continue
		}
		dst.Series(name+shardSuffix(ch.opt.Index), s.BucketWidth()).Merge(s)
	}
}
