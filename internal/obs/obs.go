// Package obs is the simulator's observability layer: a metrics registry of
// named counters, gauges, and latency histograms; a structured trace of every
// scheduled flash operation exportable as Chrome trace-event/Perfetto
// timelines; and periodic snapshots that turn per-plane
// load balance (SDRPP) and utilization into time series.
//
// The layer is threaded through the stack as a nil-able Recorder held by the
// simulated device, the FTLs, and the SSD controller. Every hook is guarded
// by a single pointer check, so a run with observability disabled performs no
// allocation and no work beyond that check — the allocation-free hot path is
// preserved. An individual recorder is not safe for concurrent use; each
// execution context owns its own. Multi-queue runs keep that invariant
// under concurrency by giving every FTL shard a private child collector
// (Collector.Shard) that only its worker touches, merged back into the
// parent in shard order at quiescent barriers.
//
// Counted occurrences (CMT hits, translation traffic, GC runs, merges) are
// not part of the stream: each FTL counts them once, in its Counts, and a
// Collector publishes them from a CountSource. Parity waste is the device's
// count, published from a DeviceSource.
package obs

import (
	"fmt"

	"dloop/internal/sim"
)

// OpKind classifies a flash operation. Values mirror the device's internal
// operation kinds.
type OpKind uint8

const (
	OpRead OpKind = iota
	OpWrite
	OpCopyBack
	OpErase
	NumOpKinds
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpCopyBack:
		return "copyback"
	case OpErase:
		return "erase"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Cause labels who initiated a flash operation. Values mirror flash.Cause
// (host, gc, map); the flash package asserts the correspondence in its tests.
type Cause uint8

const (
	CauseHost Cause = iota
	CauseGC
	CauseMap
	NumCauses
)

func (c Cause) String() string {
	switch c {
	case CauseHost:
		return "host"
	case CauseGC:
		return "gc"
	case CauseMap:
		return "map"
	default:
		return fmt.Sprintf("Cause(%d)", uint8(c))
	}
}

// Op describes one scheduled flash operation: what it was, where it ran, and
// the three timestamps that decompose its latency into queueing and service.
type Op struct {
	Kind  OpKind
	Cause Cause
	// Stored is the page content tag: the LPN for data pages, an encoded
	// translation-page number for mapping traffic, or the block index for
	// erases.
	Stored  int64
	Plane   int32
	Channel int32
	Ready   sim.Time // when the operation became serviceable
	Start   sim.Time // when the hardware began serving it
	End     sim.Time // completion
}

// QueueTime returns how long the operation waited for its resources.
func (o Op) QueueTime() sim.Duration { return o.Start.Sub(o.Ready) }

// ServiceTime returns how long the hardware spent on the operation.
func (o Op) ServiceTime() sim.Duration { return o.End.Sub(o.Start) }

// Latency returns the operation's total ready-to-completion latency.
func (o Op) Latency() sim.Duration { return o.End.Sub(o.Ready) }

// EventKind names an occurrence an FTL counts: one index of Counts.
type EventKind uint8

const (
	EvCMTHit       EventKind = iota // mapping lookups the CMT answered
	EvCMTMiss                       // and those it did not
	EvCMTEvict                      // CMT entries evicted by a miss
	EvCMTWriteback                  // dirty evictions written back
	EvSwitchMerge                   // FAST switch merges
	EvPartialMerge                  // FAST partial merges
	EvFullMerge                     // FAST full merges, one per logical block consolidated
	EvTransRead                     // translation-page reads: miss fetches and write-back read-modify-writes
	EvTransWrite                    // translation-page programs
	EvLearnedHit                    // verified learned predictions: translation reads skipped
	EvGCRun                         // collections completed
	EvMergeCopy                     // pages FAST's merges copied
	NumEventKinds
)

func (e EventKind) String() string {
	switch e {
	case EvCMTHit:
		return "cmt.hit"
	case EvCMTMiss:
		return "cmt.miss"
	case EvCMTEvict:
		return "cmt.evict"
	case EvCMTWriteback:
		return "cmt.writeback"
	case EvSwitchMerge:
		return "merge.switch"
	case EvPartialMerge:
		return "merge.partial"
	case EvFullMerge:
		return "merge.full"
	case EvTransRead:
		return "map.trans_reads"
	case EvTransWrite:
		return "map.trans_writes"
	case EvLearnedHit:
		return "map.learned_hits"
	case EvGCRun:
		return "gc.runs"
	case EvMergeCopy:
		return "merge.copies"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(e))
	}
}

// Counts is one FTL's occurrence counters, indexed by EventKind. Each is
// incremented at the one place its occurrence happens, whether or not a
// recorder is attached, and counts from the FTL's construction (or from
// the checkpoint its state was decoded from). What the flash device does
// it counts itself — GC moves by copy-back and through the buses, pages
// wasted to the parity rule — so Counts holds none of it (see
// DeviceTotals).
type Counts [NumEventKinds]int64

// CountSource reports the current Counts of everything a Collector
// observes; the controller sums its FTL shards' (see
// Collector.SetCountSource).
type CountSource func() Counts

// SpanKind names an interval of FTL activity.
type SpanKind uint8

const (
	SpanGC SpanKind = iota
	SpanMerge
	NumSpanKinds
)

func (s SpanKind) String() string {
	switch s {
	case SpanGC:
		return "gc"
	case SpanMerge:
		return "merge"
	default:
		return fmt.Sprintf("SpanKind(%d)", uint8(s))
	}
}

// Recorder receives the simulator's observability stream. Implementations
// must tolerate out-of-order timestamps within a scheduling window (resource
// backfill places operations into past gaps). The zero-cost disabled state is
// a nil Recorder at every hook site.
type Recorder interface {
	// RecordOp records one completed flash operation.
	RecordOp(op Op)
	// RecordSpan records an interval of FTL activity on one plane, e.g. a
	// garbage collection or a log-block merge.
	RecordSpan(kind SpanKind, plane int32, start, end sim.Time)
	// RecordRequest records one completed host request.
	RecordRequest(read bool, arrival, done sim.Time)
}

// GCSpanRecorder is the GC engine's optional rich-span extension of
// Recorder: the victim-selection policy and the collection's relocation
// counts ride along with the trigger→erase interval. The Collector
// implements it; engines fall back to RecordSpan when the attached recorder
// does not.
type GCSpanRecorder interface {
	RecordGCSpan(plane int32, start, end sim.Time, policy string, moved, wasted int)
}

// DeviceTotals is the device's cumulative state since its statistics were
// last reset: busy time per plane, chip serial bus and channel, and the
// pages wasted to the copy-back parity rule.
type DeviceTotals struct {
	Planes, ChipBus, Channels []sim.Duration
	WastedPages               int64
}

// DeviceSource reports the DeviceTotals of everything a Collector observes;
// the controller sums its shard devices' (see Collector.SetDeviceSource).
type DeviceSource func() DeviceTotals
