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
type Tracker struct {
	dev     *flash.Device
	geo     flash.Geometry
	inBkt   []int32 // 1 + position within its bucket, 0 if not a candidate
	buckets [][][]int32
	// buckets[plane][count] holds in-plane block ids of closed candidates
	maxCount []int // per plane: highest count whose bucket may be non-empty
	closeSeq []int64
	seq      int64 // monotone close counter; closeSeq[bi] records each block's
	// close order so age-aware victim policies (cost-benefit, FIFO) can rank
	// candidates without timestamps
}

// NewTracker returns a tracker of dev's blocks with no candidates.
func NewTracker(dev *flash.Device) *Tracker {
	geo := dev.Geometry()
	t := &Tracker{
		dev:      dev,
		geo:      geo,
		inBkt:    make([]int32, geo.TotalBlocks()),
		buckets:  make([][][]int32, geo.Planes()),
		maxCount: make([]int, geo.Planes()),
		closeSeq: make([]int64, geo.TotalBlocks()),
	}
	for p := range t.buckets {
		t.buckets[p] = make([][]int32, geo.PagesPerBlock+1)
	}
	return t
}

// Invalidated records that one page of pb became invalid on the device
// (host update, translation-page supersession, or a deliberately wasted
// page): a candidate moves up one bucket.
func (t *Tracker) Invalidated(pb flash.PlaneBlock) {
	if t.Candidate(pb) {
		n := t.dev.Block(pb).Invalid
		t.moveBucket(pb, n-1, n)
	}
}

// Close marks pb fully written: it becomes a garbage-collection candidate.
func (t *Tracker) Close(pb flash.PlaneBlock) {
	bi := t.geo.BlockIndex(pb)
	if t.inBkt[bi] != 0 {
		panic(fmt.Sprintf("ftl: Tracker.Close of candidate %v", pb))
	}
	t.seq++
	t.closeSeq[bi] = t.seq
	t.addBucket(pb, t.dev.Block(pb).Invalid)
}

// Take removes pb from candidacy (it was chosen as a victim or re-opened).
func (t *Tracker) Take(pb flash.PlaneBlock) {
	bi := t.geo.BlockIndex(pb)
	if t.inBkt[bi] == 0 {
		panic(fmt.Sprintf("ftl: Tracker.Take of non-candidate %v", pb))
	}
	t.delBucket(pb, t.dev.Block(pb).Invalid)
}

// Candidate reports whether pb is a garbage-collection candidate.
func (t *Tracker) Candidate(pb flash.PlaneBlock) bool {
	return t.inBkt[t.geo.BlockIndex(pb)] != 0
}

// MaxInPlane returns the candidate with the most invalid pages on one plane.
// ok is false if the plane has no candidate with at least one invalid page.
func (t *Tracker) MaxInPlane(plane int) (pb flash.PlaneBlock, invalid int, ok bool) {
	bkts := t.buckets[plane]
	for c := t.maxCount[plane]; c >= 1; c-- {
		if n := len(bkts[c]); n > 0 {
			t.maxCount[plane] = c
			return flash.PlaneBlock{Plane: plane, Block: int(bkts[c][n-1])}, c, true
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
	for plane := range t.buckets {
		cand, c, okP := t.MaxInPlane(plane)
		if okP && c > best {
			best, pb, ok = c, cand, true
		}
	}
	return pb, best, ok
}

// Planes returns the number of planes the tracker indexes.
func (t *Tracker) Planes() int { return len(t.buckets) }

// Age returns how long ago pb was closed, in close events: the number of
// blocks closed since pb (0 = most recently closed). Meaningful only for
// current candidates.
func (t *Tracker) Age(pb flash.PlaneBlock) int64 {
	return t.seq - t.closeSeq[t.geo.BlockIndex(pb)]
}

// ForEachCandidate calls fn for every candidate on one plane that has at
// least one invalid page (blocks with zero invalid pages are never victims,
// matching MaxInPlane). Iteration order is deterministic: descending invalid
// count, LIFO within a bucket — so the first visit is exactly MaxInPlane's
// pick. fn receives the block, its invalid count, and its close age.
func (t *Tracker) ForEachCandidate(plane int, fn func(pb flash.PlaneBlock, invalid int, age int64) bool) {
	bkts := t.buckets[plane]
	for c := len(bkts) - 1; c >= 1; c-- {
		bkt := bkts[c]
		for i := len(bkt) - 1; i >= 0; i-- {
			pb := flash.PlaneBlock{Plane: plane, Block: int(bkt[i])}
			if !fn(pb, c, t.Age(pb)) {
				return
			}
		}
	}
}

func (t *Tracker) addBucket(pb flash.PlaneBlock, count int) {
	bkt := &t.buckets[pb.Plane][count]
	*bkt = append(*bkt, int32(pb.Block))
	t.inBkt[t.geo.BlockIndex(pb)] = int32(len(*bkt))
	if count > t.maxCount[pb.Plane] {
		t.maxCount[pb.Plane] = count
	}
}

func (t *Tracker) delBucket(pb flash.PlaneBlock, count int) {
	bi := t.geo.BlockIndex(pb)
	bkt := t.buckets[pb.Plane][count]
	pos := t.inBkt[bi] // 1 + its position
	last := len(bkt) - 1
	moved := bkt[last]
	bkt[pos-1] = moved
	t.inBkt[t.geo.BlockIndex(flash.PlaneBlock{Plane: pb.Plane, Block: int(moved)})] = pos
	t.buckets[pb.Plane][count] = bkt[:last]
	t.inBkt[bi] = 0
}

func (t *Tracker) moveBucket(pb flash.PlaneBlock, from, to int) {
	t.delBucket(pb, from)
	t.addBucket(pb, to)
}
