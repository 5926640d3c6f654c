package ftl

import (
	"fmt"

	"dloop/internal/flash"
)

// Tracker indexes closed (fully written) blocks by invalid-page count so
// garbage collection can find "the block with the maximal number of invalid
// pages" (§III.C) in O(1) amortized instead of scanning every block. The
// counts are the device's (flash.BlockInfo.Invalid): a candidate sits in the
// bucket of its block's count, and the owner reports each page it
// invalidates on a candidate after the device did. Victim picks are
// deterministic (LIFO within a bucket), keeping whole simulations
// reproducible.
//
// A bucket is a doubly linked list threaded through its blocks' entries of
// one column, so the index costs memory only for the blocks that have been
// candidates. It behaves as an array with swap-remove: a block joins at the
// tail, and a block that leaves is replaced in its place by the tail, so
// every pick and every visiting order is that of a []int32 bucket grown by
// append and shrunk by moving its last element into the hole.
type Tracker struct {
	dev *flash.Device
	geo flash.Geometry
	// links holds two words per block (dense block index): links[2bi] is 0
	// while the block is no candidate, 1 when it heads its bucket, and 2 +
	// the in-plane block before it otherwise; links[2bi+1] is 1 + the
	// in-plane block after it, 0 at the tail. A column (flash.NewColumn).
	links []uint32
	// ends holds each bucket's head and tail, 1 + an in-plane block or 0
	// when empty: bucket c of plane p at ends[2(p*(PagesPerBlock+1)+c)].
	ends     []uint32
	maxCount []int // per plane: highest count whose bucket may be non-empty
	// closeSeq records each candidate's close, the low 32 bits of seq when
	// it closed, so age-aware victim policies (cost-benefit, FIFO) can rank
	// candidates without timestamps. A column (flash.NewColumn).
	closeSeq []uint32
	seq      int64 // monotone close counter
}

// NewTracker returns a tracker of dev's blocks with no candidates. Release
// frees its columns.
func NewTracker(dev *flash.Device) (*Tracker, error) {
	geo := dev.Geometry()
	links, err := flash.NewColumn[uint32](2 * geo.TotalBlocks())
	if err != nil {
		return nil, err
	}
	closeSeq, err := flash.NewColumn[uint32](geo.TotalBlocks())
	if err != nil {
		flash.FreeColumn(links)
		return nil, err
	}
	return &Tracker{
		dev:      dev,
		geo:      geo,
		links:    links,
		ends:     make([]uint32, 2*geo.Planes()*(geo.PagesPerBlock+1)),
		maxCount: make([]int, geo.Planes()),
		closeSeq: closeSeq,
	}, nil
}

// Release frees the tracker's columns. The tracker must not be used
// afterwards: a query then panics with an index error. Releasing again does
// nothing.
func (t *Tracker) Release() {
	flash.FreeColumn(t.links)
	flash.FreeColumn(t.closeSeq)
	t.links, t.closeSeq = nil, nil
}

// Invalidated records that one page of pb became invalid on the device
// (host update, translation-page supersession, or a deliberately wasted
// page): a candidate moves up one bucket.
func (t *Tracker) Invalidated(pb flash.PlaneBlock) {
	if t.Candidate(pb) {
		n := t.dev.Block(pb).Invalid
		t.delBucket(pb, n-1)
		t.addBucket(pb, n)
	}
}

// Close marks pb fully written: it becomes a garbage-collection candidate.
//
// pb must not be a candidate already. That is an invariant of the callers,
// not an input to check: a write point closes its block once, when it has
// used it up, the recovery scan closes each full block of a fresh tracker
// once, and DecodeState refuses a checkpoint that lists a candidate twice.
// Close panics if it breaks, and has no error to return.
func (t *Tracker) Close(pb flash.PlaneBlock) {
	if t.Candidate(pb) {
		panic(fmt.Sprintf("ftl: Tracker.Close of candidate %v", pb))
	}
	t.seq++
	t.closeSeq[t.geo.BlockIndex(pb)] = uint32(t.seq)
	t.addBucket(pb, t.dev.Block(pb).Invalid)
}

// Take removes pb from candidacy (it was chosen as a victim or re-opened).
//
// pb must be a candidate. That is an invariant of the callers, not an input
// to check: the collector takes only the block its policy picked from the
// candidates. Take panics if it breaks, and has no error to return.
func (t *Tracker) Take(pb flash.PlaneBlock) {
	if !t.Candidate(pb) {
		panic(fmt.Sprintf("ftl: Tracker.Take of non-candidate %v", pb))
	}
	t.delBucket(pb, t.dev.Block(pb).Invalid)
}

// Candidate reports whether pb is a garbage-collection candidate.
func (t *Tracker) Candidate(pb flash.PlaneBlock) bool {
	return t.links[2*t.geo.BlockIndex(pb)] != 0
}

// MaxInPlane returns the candidate with the most invalid pages on one plane.
// ok is false if the plane has no candidate with at least one invalid page.
func (t *Tracker) MaxInPlane(plane int) (pb flash.PlaneBlock, invalid int, ok bool) {
	for c := t.maxCount[plane]; c >= 1; c-- {
		if tail := t.ends[t.bucket(plane, c)+1]; tail != 0 {
			t.maxCount[plane] = c
			return flash.PlaneBlock{Plane: plane, Block: int(tail - 1)}, c, true
		}
	}
	t.maxCount[plane] = 0
	return flash.PlaneBlock{}, 0, false
}

// MaxGlobal returns the candidate with the most invalid pages device-wide,
// breaking ties toward lower plane numbers. ok is false if no candidate has
// an invalid page.
func (t *Tracker) MaxGlobal() (pb flash.PlaneBlock, invalid int, ok bool) {
	best := 0
	for plane := range t.maxCount {
		cand, c, okP := t.MaxInPlane(plane)
		if okP && c > best {
			best, pb, ok = c, cand, true
		}
	}
	return pb, best, ok
}

// Planes returns the number of planes the tracker indexes.
func (t *Tracker) Planes() int { return len(t.maxCount) }

// Age returns how long ago pb was closed, in close events: the number of
// blocks closed since pb (0 = most recently closed). Meaningful only for
// current candidates. It is exact while fewer than 2^32 blocks have closed
// since pb, which the close sequence's 32 bits wrap around.
func (t *Tracker) Age(pb flash.PlaneBlock) int64 {
	return int64(uint32(t.seq) - t.closeSeq[t.geo.BlockIndex(pb)])
}

// ForEachCandidate calls fn for every candidate on one plane that has at
// least one invalid page (blocks with zero invalid pages are never victims,
// matching MaxInPlane). Iteration order is deterministic: descending invalid
// count, LIFO within a bucket — so the first visit is exactly MaxInPlane's
// pick. fn receives the block, its invalid count, and its close age.
func (t *Tracker) ForEachCandidate(plane int, fn func(pb flash.PlaneBlock, invalid int, age int64) bool) {
	base := 2 * int(t.geo.BlockIndex(flash.PlaneBlock{Plane: plane}))
	for c := t.geo.PagesPerBlock; c >= 1; c-- {
		for b := t.ends[t.bucket(plane, c)+1]; b != 0; {
			pb := flash.PlaneBlock{Plane: plane, Block: int(b - 1)}
			prev := t.links[base+2*pb.Block]
			if !fn(pb, c, t.Age(pb)) {
				return
			}
			b = prev - 1 // 1 (heads its bucket) ends the walk at 0
		}
	}
}

// bucket returns the index in ends of bucket count's head on plane; its
// tail follows it.
func (t *Tracker) bucket(plane, count int) int {
	return 2 * (plane*(t.geo.PagesPerBlock+1) + count)
}

// addBucket appends pb to the tail of bucket count.
func (t *Tracker) addBucket(pb flash.PlaneBlock, count int) {
	e := t.bucket(pb.Plane, count)
	base := 2 * int(t.geo.BlockIndex(flash.PlaneBlock{Plane: pb.Plane}))
	me := uint32(pb.Block) + 1
	if tail := t.ends[e+1]; tail != 0 {
		t.links[base+2*int(tail-1)+1] = me
		t.links[base+2*pb.Block] = tail + 1
	} else {
		t.ends[e] = me
		t.links[base+2*pb.Block] = 1
	}
	t.links[base+2*pb.Block+1] = 0
	t.ends[e+1] = me
	if count > t.maxCount[pb.Plane] {
		t.maxCount[pb.Plane] = count
	}
}

// delBucket removes pb from bucket count: the tail leaves the list, and
// unless pb was the tail it takes pb's place.
func (t *Tracker) delBucket(pb flash.PlaneBlock, count int) {
	e := t.bucket(pb.Plane, count)
	base := 2 * int(t.geo.BlockIndex(flash.PlaneBlock{Plane: pb.Plane}))
	me := uint32(pb.Block) + 1
	last := t.ends[e+1]
	t.unlink(e, base, last)
	if last != me {
		prev, next := t.links[base+2*pb.Block], t.links[base+2*pb.Block+1]
		l := base + 2*int(last-1)
		t.links[l], t.links[l+1] = prev, next
		if prev == 1 {
			t.ends[e] = last
		} else {
			t.links[base+2*int(prev-2)+1] = last
		}
		if next == 0 {
			t.ends[e+1] = last
		} else {
			t.links[base+2*int(next-1)] = last + 1
		}
	}
	t.links[base+2*pb.Block], t.links[base+2*pb.Block+1] = 0, 0
}

// unlink removes the tail b of the bucket at ends[e] from its list.
func (t *Tracker) unlink(e, base int, b uint32) {
	prev := t.links[base+2*int(b-1)]
	if prev == 1 {
		t.ends[e], t.ends[e+1] = 0, 0
		return
	}
	t.links[base+2*int(prev-2)+1] = 0
	t.ends[e+1] = prev - 1
}
