package gc

import (
	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/obs"
	"dloop/internal/sim"
)

// MoveStyle selects how the engine relocates a victim's valid pages.
type MoveStyle uint8

const (
	// MoveCopyBack relocates with intra-plane copy-back commands, gathering
	// sources by in-block offset parity so they match the destination write
	// point; a destination page is deliberately wasted when only
	// wrong-parity sources remain (the §III.A same-parity rule).
	MoveCopyBack MoveStyle = iota
	// MoveExternalParity relocates through the buses with plain reads and
	// writes, draining even-offset sources before odd ones. The parity rule
	// binds only the copy-back command, so nothing is wasted.
	MoveExternalParity
	// MoveOffsetOrder relocates through the buses in plain in-block offset
	// order (DFTL's layout-oblivious loop).
	MoveOffsetOrder
)

// Scheme is the callback surface an FTL supplies to the engine: everything
// scheme-specific about placement and mapping, nothing about collection.
type Scheme interface {
	// PoolLow reports whether the plane's free-block pool is below the GC
	// trigger watermark. Globally-pooled schemes ignore plane.
	PoolLow(plane int) bool
	// FreePages counts the writable pages currently available to the
	// plane's write point: whole pool blocks plus the open block's
	// unwritten tail.
	FreePages(plane int) int
	// DestParity returns the in-block offset parity of the next page the
	// plane's write point will hand out.
	DestParity(plane int) int
	// NextDest allocates the next destination page on the plane's write
	// point for a relocated (or wasted) page tagged stored.
	NextDest(plane int, stored int64) (flash.PPN, error)
	// Redirect commits completed relocations to the scheme's mapping
	// structures. It charges no flash traffic by itself (lazy, OOB-backed
	// redirection) and returns the time the collection may proceed.
	Redirect(moved []ftl.Moved, at sim.Time) (sim.Time, error)
	// Release returns the erased victim to the scheme's free pool.
	Release(victim flash.PlaneBlock)
}

// VictimRecorder is the optional observability hook for the per-victim
// valid-count histogram; the obs Collector implements it.
type VictimRecorder interface {
	RecordGCVictim(valid int, at sim.Time)
}

// Config wires an Engine to its scheme.
type Config struct {
	Dev    *flash.Device
	Policy VictimPolicy
	// Tracker indexes the closed-block candidates. Hybrid schemes that only
	// use the engine for moves and log-victim picks leave it nil.
	Tracker *ftl.Tracker
	// Scheme is the owning FTL's callback surface; nil for hybrid schemes.
	Scheme Scheme
	// PerPlane selects per-plane triggers and victim pools (DLOOP-style
	// striped placement); otherwise trigger and victim search are
	// device-wide and destinations come from write point 0.
	PerPlane bool
	// Style is the move style. Every style but MoveOffsetOrder (plain
	// DFTL's original loop) also guards the collect loop: it breaks when a
	// collection's destination pages (moves plus parity waste) consumed
	// everything it freed, as retrying immediately would livelock.
	Style MoveStyle
	// LowSpaceExternal moves a wrong-parity page through the buses instead
	// of wasting a destination page when the plane is critically low on
	// free pages (under two blocks' worth). Without it mismatches always
	// waste.
	LowSpaceExternal bool
}

// Engine owns garbage collection for one FTL instance. Not safe for
// concurrent use.
type Engine struct {
	dev    *flash.Device
	geo    flash.Geometry
	cfg    Config
	policy VictimPolicy

	tracker *ftl.Tracker
	source  *TrackerSource
	scheme  Scheme

	depth      int    // nesting level of active collections
	collecting []bool // per plane: a collection is running here

	// scratch is a free-list of relocation buffers. Sustained collection runs
	// millions of collectOnce calls, and allocating the moved/parity slices
	// per call was the last allocation on the GC-heavy path; a plain slice
	// stack (rather than one buffer) keeps reuse correct when collections
	// nest through depth.
	scratch []*collectScratch

	// counts is the owning FTL's occurrence counters: collections, copy-back
	// and external moves, parity waste.
	counts    *obs.Counts
	rec       obs.Recorder       // nil when observability is disabled
	victimRec VictimRecorder     // non-nil only when rec implements it
	spanRec   obs.GCSpanRecorder // non-nil only when rec implements it
}

// NewEngine builds an engine that counts into counts; hybrid schemes may
// leave Tracker and Scheme nil and use only MoveExternal, RecordVictim, and
// PickLogVictim.
func NewEngine(cfg Config, counts *obs.Counts) *Engine {
	geo := cfg.Dev.Geometry()
	e := &Engine{
		dev:        cfg.Dev,
		geo:        geo,
		cfg:        cfg,
		policy:     cfg.Policy,
		tracker:    cfg.Tracker,
		scheme:     cfg.Scheme,
		collecting: make([]bool, geo.Planes()),
		counts:     counts,
	}
	if cfg.Tracker != nil {
		e.source = NewTrackerSource(cfg.Tracker, geo.PagesPerBlock)
	}
	return e
}

// SetRecorder attaches (or, with nil, detaches) an observability recorder.
func (e *Engine) SetRecorder(r obs.Recorder) {
	e.rec = r
	e.victimRec = nil
	e.spanRec = nil
	if vr, ok := r.(VictimRecorder); ok {
		e.victimRec = vr
	}
	if sr, ok := r.(obs.GCSpanRecorder); ok {
		e.spanRec = sr
	}
}

// PolicyName reports the victim-selection policy in effect.
func (e *Engine) PolicyName() string { return e.policy.Name() }

// Policy returns the victim policy; hybrid schemes pass it to PickLogVictim.
func (e *Engine) Policy() VictimPolicy { return e.policy }

// Idle reports that no collection is active on the plane (or anywhere, for
// nested placement). Schemes consult it before triggering collection from
// their placement path; it is pure defense against reentry, since
// collections allocate destinations directly and never place through the
// host path.
func (e *Engine) Idle(plane int) bool { return e.depth == 0 && !e.collecting[plane] }

// MaybeCollect runs collections on the plane until its pool is above the
// trigger watermark, nothing is reclaimable, or (outside MoveOffsetOrder) a
// collection makes no net progress. It returns the time placement may
// proceed.
func (e *Engine) MaybeCollect(plane int, ready sim.Time) (sim.Time, error) {
	t := ready
	guard := e.cfg.Style != MoveOffsetOrder
	for e.scheme.PoolLow(plane) {
		var before int
		if guard {
			before = e.scheme.FreePages(plane)
		}
		end, reclaimed, err := e.collectOnce(plane, t)
		if err != nil {
			return 0, err
		}
		if !reclaimed {
			break // nothing invalid to reclaim
		}
		t = end
		if guard && e.scheme.FreePages(plane) <= before {
			// The collection's destination pages (moves plus parity waste)
			// consumed everything it freed. Retrying immediately would
			// livelock; break and let the invalid pages host updates keep
			// creating make the next collection profitable.
			break
		}
	}
	return t, nil
}

// collectScratch holds one collection's relocation buffers: the moved list
// handed to Scheme.Redirect, the by-parity source queues (each sized for half
// a block, filled by index), and the pending copy-back run. Schemes must not
// retain the Redirect slice (none do — they fold it into their mapping
// structures), so the buffers are reusable the moment collectOnce returns.
type collectScratch struct {
	moved  []ftl.Moved
	parity [2][]int
	// The pending run: copy-backs gathered but not yet handed to the
	// device, all into the destination block that starts at dstFirst.
	srcs, dsts []flash.PPN
	dstFirst   flash.PPN
}

// getScratch pops a scratch buffer off the free-list (or makes one), with
// lengths reset and capacities kept.
func (e *Engine) getScratch() *collectScratch {
	n := len(e.scratch)
	if n == 0 {
		half := e.geo.PagesPerBlock / 2
		return &collectScratch{parity: [2][]int{make([]int, half), make([]int, half)}}
	}
	s := e.scratch[n-1]
	e.scratch = e.scratch[:n-1]
	s.moved, s.srcs, s.dsts = s.moved[:0], s.srcs[:0], s.dsts[:0]
	return s
}

// queueCopyBack appends src -> dst to the pending run, first flushing a run
// whose block dst has left.
func (e *Engine) queueCopyBack(sc *collectScratch, src, dst flash.PPN, t sim.Time) (sim.Time, error) {
	if len(sc.srcs) > 0 && uint64(dst-sc.dstFirst) >= uint64(e.geo.PagesPerBlock) {
		var err error
		if t, err = e.flushRun(sc, t); err != nil {
			return 0, err
		}
	}
	if len(sc.srcs) == 0 {
		sc.dstFirst = e.geo.FirstPPN(e.dev.BlockOf(dst))
	}
	sc.srcs, sc.dsts = append(sc.srcs, src), append(sc.dsts, dst)
	return t, nil
}

// flushRun hands the pending copy-back run (possibly empty) to the device,
// starting at t, and returns when its last page lands.
func (e *Engine) flushRun(sc *collectScratch, t sim.Time) (sim.Time, error) {
	t, err := e.dev.CopyBackRun(sc.srcs, sc.dsts, t, flash.CauseGC)
	if err != nil {
		return 0, err
	}
	e.counts[obs.EvGCCopyBack] += int64(len(sc.srcs))
	sc.srcs, sc.dsts = sc.srcs[:0], sc.dsts[:0]
	return t, nil
}

// putScratch returns a buffer to the free-list.
func (e *Engine) putScratch(s *collectScratch) { e.scratch = append(e.scratch, s) }

// collectOnce runs one garbage collection: pick a victim by policy, relocate
// its valid pages per the move style, redirect the mappings, erase, and
// release the block.
func (e *Engine) collectOnce(plane int, ready sim.Time) (end sim.Time, reclaimed bool, err error) {
	pickPlane := plane
	if !e.cfg.PerPlane {
		pickPlane = GlobalPlane
	}
	cand, ok := e.policy.Pick(e.source, pickPlane)
	if !ok {
		return ready, false, nil
	}
	victim := cand.PB
	e.tracker.Take(victim)
	e.depth++
	e.collecting[victim.Plane] = true
	defer func() {
		e.depth--
		e.collecting[victim.Plane] = false
	}()
	if e.victimRec != nil {
		e.victimRec.RecordGCVictim(cand.Valid, ready)
	}

	destPlane := 0
	if e.cfg.PerPlane {
		destPlane = victim.Plane
	}
	t := ready
	sc := e.getScratch()
	defer e.putScratch(sc)
	first := e.geo.FirstPPN(victim)
	ppb := e.geo.PagesPerBlock
	wasted := 0 // destination pages wasted to the parity rule

	if e.cfg.Style == MoveOffsetOrder {
		for p := 0; p < ppb; p++ {
			src := first + flash.PPN(p)
			if e.dev.PageState(src) != flash.PageValid {
				continue
			}
			stored := e.dev.PageLPN(src)
			var dst flash.PPN
			dst, err = e.scheme.NextDest(destPlane, stored)
			if err != nil {
				return 0, false, err
			}
			t, err = e.MoveExternal(src, dst, t)
			if err != nil {
				return 0, false, err
			}
			sc.moved = append(sc.moved, ftl.Moved{Stored: stored, New: dst})
		}
	} else {
		// Gather the victim's valid pages by in-block offset parity. Moves
		// are ordered so the source parity matches the destination write
		// point whenever possible; a page is wasted only when the remaining
		// pages are all of the "wrong" parity — §III.A's worst case of about
		// m/2 wasted pages when m same-parity pages must move. head and
		// count index into the parity queues instead of re-slicing them, so
		// the scratch buffers keep their full capacity for the next
		// collection.
		var head, count [2]int
		for p := 0; p < ppb; p++ {
			if e.dev.PageState(first+flash.PPN(p)) == flash.PageValid {
				sc.parity[p&1][count[p&1]] = p
				count[p&1]++
			}
		}
		// Copy-backs queue as a run while the destination stays in one
		// block; the run goes to the device before anything that needs the
		// time it ends at: a bus move and the redirect. Wastes take no time,
		// so it spans them.
		for head[0] < count[0] || head[1] < count[1] {
			external := e.cfg.Style == MoveExternalParity
			want := 0
			if head[0] >= count[0] {
				want = 1
			}
			if !external { // parity is a copy-back-only restriction
				if dp := e.scheme.DestParity(destPlane); head[dp] < count[dp] {
					want = dp
				} else if !e.cfg.LowSpaceExternal || e.scheme.FreePages(destPlane) >= 2*ppb {
					// Only wrong-parity sources remain: waste one
					// destination page to flip the write point's parity.
					var dst flash.PPN
					dst, err = e.scheme.NextDest(destPlane, 0)
					if err != nil {
						return 0, false, err
					}
					if err = e.dev.WastePage(dst); err != nil {
						return 0, false, err
					}
					e.tracker.Invalidated(e.dev.BlockOf(dst))
					wasted++
					e.counts[obs.EvParityWaste]++
					continue
				} else {
					// The plane is critically low on free pages, where
					// wasting one would risk wedging it, so (with
					// LowSpaceExternal) this page moves through the buses.
					external = true
				}
			}
			p := sc.parity[want][head[want]]
			head[want]++
			src := first + flash.PPN(p)
			stored := e.dev.PageLPN(src)
			var dst flash.PPN
			dst, err = e.scheme.NextDest(destPlane, stored)
			if err != nil {
				return 0, false, err
			}
			if external {
				if t, err = e.flushRun(sc, t); err != nil {
					return 0, false, err
				}
				if t, err = e.MoveExternal(src, dst, t); err != nil {
					return 0, false, err
				}
			} else if t, err = e.queueCopyBack(sc, src, dst, t); err != nil {
				return 0, false, err
			}
			sc.moved = append(sc.moved, ftl.Moved{Stored: stored, New: dst})
		}
		if t, err = e.flushRun(sc, t); err != nil {
			return 0, false, err
		}
	}

	t, err = e.scheme.Redirect(sc.moved, t)
	if err != nil {
		return 0, false, err
	}
	t, err = e.dev.Erase(victim, t, flash.CauseGC)
	if err != nil {
		return 0, false, err
	}
	e.scheme.Release(victim)
	e.counts[obs.EvGCRun]++
	if e.spanRec != nil {
		e.spanRec.RecordGCSpan(int32(victim.Plane), ready, t,
			e.policy.Name(), len(sc.moved), wasted)
	} else if e.rec != nil {
		e.rec.RecordSpan(obs.SpanGC, int32(victim.Plane), ready, t)
	}
	return t, true, nil
}

// MoveExternal relocates one valid page through the buses with a read +
// write pair (flash.Device.MoveExternal; the device carries the OOB tag) and
// invalidates the source. Hybrid FTLs drive their merge copies through it so
// the engine's EvGCExternalMove count covers every relocation through the
// buses.
func (e *Engine) MoveExternal(src, dst flash.PPN, ready sim.Time) (sim.Time, error) {
	t, err := e.dev.MoveExternal(src, dst, ready, flash.CauseGC)
	if err != nil {
		return 0, err
	}
	e.counts[obs.EvGCExternalMove]++
	return t, nil
}

// RecordVictim feeds the per-victim valid-count histogram; hybrid FTLs call
// it for their merge victims (the engine's own collections record theirs
// internally).
func (e *Engine) RecordVictim(valid int, at sim.Time) {
	if e.victimRec != nil {
		e.victimRec.RecordGCVictim(valid, at)
	}
}
