package translate

import (
	"dloop/internal/flash"
	"dloop/internal/ftl"
)

// The learned LPN→PPN index (PolicyLearned), after LearnedFTL (Wang et al.):
// flash pages placed by a regular rule — DLOOP's plane striping, DFTL's
// append-only data log — leave arithmetic structure in the mapping table that
// a handful of piecewise-linear segments capture exactly. A CMT miss first
// consults the segments covering the missed translation page; a prediction is
// verified against the page's out-of-band logical tag (the simulator checks
// the authoritative table, which is what the OOB tag stores), and a correct
// prediction makes the translation-page read unnecessary — the "double read"
// of DFTL §III.D collapses back to one.
//
// Segments are trained at translation-page write-back, when the page's span
// of the table is persisted anyway and is in its most settled state. Training
// walks the span one residue class at a time (stride = the scheme's striping
// period: #planes for DLOOP, 1 for DFTL) and emits one segment per maximal
// run with a constant PPN delta. Random overwrites and GC relocations
// invalidate the covering segment (a stale segment would only mispredict —
// verification keeps it safe — but dropping it keeps the mispredict rate
// down); recovery resets the whole index, which retrains lazily as
// write-backs resume.

// minSegRun is the shortest run worth a segment: shorter runs save too few
// translation reads to justify the lookup work.
const minSegRun = 4

// maxSegsPerTP bounds the per-translation-page segment count, modeling the
// bounded SRAM budget a real learned index trains under. Training keeps the
// first runs it finds (deterministic); uncovered spans simply fall back to
// the translation-page read.
const maxSegsPerTP = 16

// segment is one piecewise-linear piece: count members starting at start,
// lpnStride apart, whose PPNs advance by ppnDelta from base.
type segment struct {
	start     ftl.LPN
	lpnStride int32
	count     int32
	base      flash.PPN
	ppnDelta  int64
}

// covers reports whether lpn is a member of the segment's progression.
func (s segment) covers(lpn ftl.LPN) bool {
	if lpn < s.start {
		return false
	}
	off := int64(lpn - s.start)
	if off%int64(s.lpnStride) != 0 {
		return false
	}
	return off/int64(s.lpnStride) < int64(s.count)
}

// predict returns the segment's PPN for a covered lpn.
func (s segment) predict(lpn ftl.LPN) flash.PPN {
	k := int64(lpn-s.start) / int64(s.lpnStride)
	return s.base + flash.PPN(k*s.ppnDelta)
}

// learnedIndex holds the per-translation-page segments plus training
// counters. The zero value is unusable; newLearnedIndex sizes it.
type learnedIndex struct {
	stride int         // striping period: LPN distance between same-plane neighbors
	segs   [][]segment // tvpn -> trained segments
}

func newLearnedIndex(translationPages, stride int) *learnedIndex {
	if stride < 1 {
		stride = 1
	}
	return &learnedIndex{stride: stride, segs: make([][]segment, translationPages)}
}

// train refits the segments of translation page tvpn from the authoritative
// mapping of the span [lo, hi), which lookup reads. It replaces whatever the
// page had, reusing the backing array, and returns how many segments it
// produced.
func (li *learnedIndex) train(tvpn int64, lo, hi ftl.LPN, lookup func(ftl.LPN) flash.PPN) int {
	segs := li.segs[tvpn][:0]
	for r := 0; r < li.stride && len(segs) < maxSegsPerTP; r++ {
		// First member of residue class r at or after lo.
		first := lo + ftl.LPN(r) - lo%ftl.LPN(li.stride)
		if first < lo {
			first += ftl.LPN(li.stride)
		}
		var run segment
		flush := func() {
			if run.count >= minSegRun && len(segs) < maxSegsPerTP {
				segs = append(segs, run)
			}
			run = segment{}
		}
		for lpn := first; lpn < hi; lpn += ftl.LPN(li.stride) {
			ppn := lookup(lpn)
			if ppn == flash.InvalidPPN {
				flush()
				continue
			}
			if run.count == 0 {
				run = segment{start: lpn, lpnStride: int32(li.stride), count: 1, base: ppn}
				continue
			}
			delta := int64(ppn) - int64(run.predict(lpn-ftl.LPN(li.stride)))
			switch {
			case run.count == 1:
				run.ppnDelta = delta
				run.count = 2
			case delta == run.ppnDelta:
				run.count++
			default:
				flush()
				run = segment{start: lpn, lpnStride: int32(li.stride), count: 1, base: ppn}
			}
		}
		flush()
	}
	li.segs[tvpn] = segs
	return len(segs)
}

// predict returns the learned PPN for lpn, if a segment of tvpn covers it.
func (li *learnedIndex) predict(tvpn int64, lpn ftl.LPN) (flash.PPN, bool) {
	for _, s := range li.segs[tvpn] {
		if s.covers(lpn) {
			return s.predict(lpn), true
		}
	}
	return flash.InvalidPPN, false
}

// invalidate drops any segment of tvpn covering lpn: the mapping changed
// under it (host overwrite or GC relocation). In-place filter, no allocation.
func (li *learnedIndex) invalidate(tvpn int64, lpn ftl.LPN) {
	segs := li.segs[tvpn]
	kept := segs[:0]
	for _, s := range segs {
		if !s.covers(lpn) {
			kept = append(kept, s)
		}
	}
	li.segs[tvpn] = kept
}

// reset drops every segment; recovery uses it (SRAM is lost at power-off)
// and the index retrains lazily as write-backs resume.
func (li *learnedIndex) reset() {
	for i := range li.segs {
		li.segs[i] = nil
	}
}

// segments reports the live segment count (tests and telemetry).
func (li *learnedIndex) segments() int {
	n := 0
	for _, s := range li.segs {
		n += len(s)
	}
	return n
}
