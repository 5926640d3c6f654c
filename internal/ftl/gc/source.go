package gc

import (
	"dloop/internal/flash"
	"dloop/internal/ftl"
)

// TrackerSource adapts the shared ftl.Tracker candidate index to the policy
// Source interface. Tracked candidates are fully written blocks, so the
// valid count derives from the invariant valid = pagesPerBlock - invalid.
type TrackerSource struct {
	tr  *ftl.Tracker
	ppb int
}

// NewTrackerSource wraps tr; ppb is the device's pages-per-block.
func NewTrackerSource(tr *ftl.Tracker, ppb int) *TrackerSource {
	return &TrackerSource{tr: tr, ppb: ppb}
}

// MaxInvalid implements Source by delegating to the tracker's greedy scan.
func (s *TrackerSource) MaxInvalid(plane int) (Candidate, bool) {
	var pb flash.PlaneBlock
	var inv int
	var ok bool
	if plane == GlobalPlane {
		pb, inv, ok = s.tr.MaxGlobal()
	} else {
		pb, inv, ok = s.tr.MaxInPlane(plane)
	}
	if !ok {
		return Candidate{}, false
	}
	return Candidate{PB: pb, Valid: s.ppb - inv, Invalid: inv, Age: s.tr.Age(pb)}, true
}

// ForEach implements Source. Candidates with zero invalid pages are skipped,
// matching the tracker's greedy scan, which never yields them either.
func (s *TrackerSource) ForEach(plane int, fn func(Candidate) bool) {
	visit := func(pb flash.PlaneBlock, inv int, age int64) bool {
		return fn(Candidate{PB: pb, Valid: s.ppb - inv, Invalid: inv, Age: age})
	}
	if plane != GlobalPlane {
		s.tr.ForEachCandidate(plane, visit)
		return
	}
	stopped := false
	for p := 0; p < s.tr.Planes() && !stopped; p++ {
		s.tr.ForEachCandidate(p, func(pb flash.PlaneBlock, inv int, age int64) bool {
			if !visit(pb, inv, age) {
				stopped = true
				return false
			}
			return true
		})
	}
}

// SliceSource is a Source over an explicit candidate list; the hybrid FTLs
// use it for their log-block lists, which live outside the tracker. The
// plane argument is ignored — a log list is already the relevant scope.
type SliceSource []Candidate

// MaxInvalid implements Source: most invalid pages, first listed wins ties.
func (s SliceSource) MaxInvalid(plane int) (Candidate, bool) {
	var best Candidate
	found := false
	for _, c := range s {
		if c.Invalid < 1 {
			continue
		}
		if !found || c.Invalid > best.Invalid {
			found, best = true, c
		}
	}
	return best, found
}

// ForEach implements Source, visiting candidates in list order.
func (s SliceSource) ForEach(plane int, fn func(Candidate) bool) {
	for _, c := range s {
		if !fn(c) {
			return
		}
	}
}
