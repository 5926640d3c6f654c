package ftl

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"dloop/internal/ckpt"
	"dloop/internal/flash"
)

// refTracker is Tracker as it was before its buckets became linked lists:
// per plane and count, a []int32 grown by append and shrunk by moving its
// last element into the hole, with each block's 1-based position, and a
// 64-bit close sequence per block.
type refTracker struct {
	dev      *flash.Device
	geo      flash.Geometry
	inBkt    []int32
	buckets  [][][]int32
	maxCount []int
	closeSeq []int64
	seq      int64
}

func newRefTracker(dev *flash.Device) *refTracker {
	geo := dev.Geometry()
	r := &refTracker{
		dev: dev, geo: geo,
		inBkt:    make([]int32, geo.TotalBlocks()),
		buckets:  make([][][]int32, geo.Planes()),
		maxCount: make([]int, geo.Planes()),
		closeSeq: make([]int64, geo.TotalBlocks()),
	}
	for p := range r.buckets {
		r.buckets[p] = make([][]int32, geo.PagesPerBlock+1)
	}
	return r
}

func (r *refTracker) candidate(pb flash.PlaneBlock) bool { return r.inBkt[r.geo.BlockIndex(pb)] != 0 }

func (r *refTracker) add(pb flash.PlaneBlock, count int) {
	bkt := &r.buckets[pb.Plane][count]
	*bkt = append(*bkt, int32(pb.Block))
	r.inBkt[r.geo.BlockIndex(pb)] = int32(len(*bkt))
	r.maxCount[pb.Plane] = max(r.maxCount[pb.Plane], count)
}

func (r *refTracker) del(pb flash.PlaneBlock, count int) {
	bi := r.geo.BlockIndex(pb)
	bkt := r.buckets[pb.Plane][count]
	pos, last := r.inBkt[bi], len(bkt)-1
	moved := bkt[last]
	bkt[pos-1] = moved
	r.inBkt[r.geo.BlockIndex(flash.PlaneBlock{Plane: pb.Plane, Block: int(moved)})] = pos
	r.buckets[pb.Plane][count] = bkt[:last]
	r.inBkt[bi] = 0
}

func (r *refTracker) invalidated(pb flash.PlaneBlock) {
	if r.candidate(pb) {
		n := r.dev.Block(pb).Invalid
		r.del(pb, n-1)
		r.add(pb, n)
	}
}

func (r *refTracker) close(pb flash.PlaneBlock) {
	r.seq++
	r.closeSeq[r.geo.BlockIndex(pb)] = r.seq
	r.add(pb, r.dev.Block(pb).Invalid)
}

func (r *refTracker) take(pb flash.PlaneBlock) { r.del(pb, r.dev.Block(pb).Invalid) }

func (r *refTracker) maxInPlane(plane int) (flash.PlaneBlock, int, bool) {
	for c := r.maxCount[plane]; c >= 1; c-- {
		if n := len(r.buckets[plane][c]); n > 0 {
			r.maxCount[plane] = c
			return flash.PlaneBlock{Plane: plane, Block: int(r.buckets[plane][c][n-1])}, c, true
		}
	}
	r.maxCount[plane] = 0
	return flash.PlaneBlock{}, 0, false
}

// visit is one ForEachCandidate call's argument triple.
type visit struct {
	pb      flash.PlaneBlock
	invalid int
	age     int64
}

func (r *refTracker) forEach(plane int) []visit {
	var out []visit
	for c := len(r.buckets[plane]) - 1; c >= 1; c-- {
		bkt := r.buckets[plane][c]
		for i := len(bkt) - 1; i >= 0; i-- {
			pb := flash.PlaneBlock{Plane: plane, Block: int(bkt[i])}
			out = append(out, visit{pb, c, r.seq - r.closeSeq[r.geo.BlockIndex(pb)]})
		}
	}
	return out
}

// encode writes the tracker in Tracker.EncodeState's format.
func (r *refTracker) encode() []byte {
	var w ckpt.Writer
	w.U32(uint32(len(r.buckets)))
	for p, bkts := range r.buckets {
		n := 0
		for _, bkt := range bkts {
			n += len(bkt)
		}
		w.U32(uint32(n))
		for _, bkt := range bkts {
			for _, b := range bkt {
				w.I32(b)
				w.I64(r.closeSeq[r.geo.BlockIndex(flash.PlaneBlock{Plane: p, Block: int(b)})])
			}
		}
	}
	w.I64(r.seq)
	return w.Bytes()
}

func trackerBytes(t *Tracker) []byte {
	var w ckpt.Writer
	t.EncodeState(&w)
	return w.Bytes()
}

// TestTrackerMatchesSliceBuckets drives Tracker and refTracker over one
// device through random invalidations, closes, takes and recycles. After
// every operation both must pick the same victims (MaxInPlane, MaxGlobal),
// visit the same candidates in the same order with the same counts and
// ages, and encode to the same bytes. Halfway, the reference's bytes are
// decoded into a fresh Tracker, which carries the rest of the sequence.
func TestTrackerMatchesSliceBuckets(t *testing.T) {
	geo := testGeo()
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dev, tr := newTrackedDevice(t, geo)
		ref := newRefTracker(dev)
		const steps = 2000
		for step := range steps {
			if step == steps/2 {
				r := ckpt.NewReader(ref.encode())
				tr.Release()
				var err error
				if tr, err = NewTracker(dev); err != nil {
					t.Fatal(err)
				}
				if tr.DecodeState(r); r.Err() != nil {
					t.Fatalf("seed %d: %v", seed, r.Err())
				}
			}
			pb := flash.PlaneBlock{Plane: rng.Intn(geo.Planes()), Block: rng.Intn(geo.BlocksPerPlane)}
			switch rng.Intn(4) {
			case 0:
				if dev.Block(pb).Valid > 0 {
					if err := dev.Invalidate(geo.FirstPPN(pb) + flash.PPN(dev.Block(pb).Invalid)); err != nil {
						t.Fatal(err)
					}
					tr.Invalidated(pb)
					ref.invalidated(pb)
				}
			case 1:
				if !ref.candidate(pb) {
					tr.Close(pb)
					ref.close(pb)
				}
			case 2:
				if ref.candidate(pb) {
					tr.Take(pb)
					ref.take(pb)
				}
			case 3:
				if !ref.candidate(pb) {
					recycle(t, dev, tr, pb) // no candidate: neither tracker moves
				}
			}
			if tr.Candidate(pb) != ref.candidate(pb) {
				t.Fatalf("seed %d step %d: Candidate(%v) = %v, reference %v", seed, step, pb, tr.Candidate(pb), ref.candidate(pb))
			}
			best, bestInv := flash.PlaneBlock{}, 0
			for p := range geo.Planes() {
				got, gotInv, gotOK := tr.MaxInPlane(p)
				want, wantInv, wantOK := ref.maxInPlane(p)
				if got != want || gotInv != wantInv || gotOK != wantOK {
					t.Fatalf("seed %d step %d: MaxInPlane(%d) = %v %d %v, reference %v %d %v",
						seed, step, p, got, gotInv, gotOK, want, wantInv, wantOK)
				}
				if wantOK && wantInv > bestInv {
					best, bestInv = want, wantInv
				}
				var visits []visit
				tr.ForEachCandidate(p, func(pb flash.PlaneBlock, invalid int, age int64) bool {
					visits = append(visits, visit{pb, invalid, age})
					return true
				})
				if want := ref.forEach(p); !slices.Equal(visits, want) {
					t.Fatalf("seed %d step %d: plane %d visits %v, reference %v", seed, step, p, visits, want)
				}
			}
			if got, gotInv, _ := tr.MaxGlobal(); got != best || gotInv != bestInv {
				t.Fatalf("seed %d step %d: MaxGlobal = %v %d, reference %v %d", seed, step, got, gotInv, best, bestInv)
			}
			if got, want := trackerBytes(tr), ref.encode(); !bytes.Equal(got, want) {
				t.Fatalf("seed %d step %d: tracker encodes to %x, reference %x", seed, step, got, want)
			}
		}
		tr.Release()
		dev.Release()
	}
}

// TestTrackerDecodeRejectsSpan checks the close sequences a decode accepts:
// each at most the close counter and fewer than 2^32 closes behind it, the
// span whose ages the 32 bits kept of each give exactly. The bytes list one
// candidate, then the counter.
func TestTrackerDecodeRejectsSpan(t *testing.T) {
	dev, tr := newTrackedDevice(t, testGeo())
	encode := func(seq, counter int64) []byte {
		var w ckpt.Writer
		w.U32(uint32(tr.Planes()))
		w.U32(1)
		w.I32(3)
		w.I64(seq)
		for range tr.Planes() - 1 {
			w.U32(0)
		}
		w.I64(counter)
		return w.Bytes()
	}
	pb := flash.PlaneBlock{Block: 3}
	for _, tc := range []struct {
		seq, counter int64
		ok           bool
	}{
		{5, 9, true},
		{-3, 2, true},
		{9, 9, true},
		{10, 9, false},
		{1, 1 << 32, true},
		{0, 1 << 32, false},
		{-1 << 63, 1<<63 - 1, false},
	} {
		data := encode(tc.seq, tc.counter)
		r := ckpt.NewReader(data)
		tr.DecodeState(r)
		if (r.Err() == nil) != tc.ok {
			t.Fatalf("close sequence %d against counter %d: %v, want accepted %v", tc.seq, tc.counter, r.Err(), tc.ok)
		}
		if !tc.ok {
			continue
		}
		if got := tr.Age(pb); got != tc.counter-tc.seq {
			t.Fatalf("close sequence %d against counter %d: age %d", tc.seq, tc.counter, got)
		}
		if got := trackerBytes(tr); !bytes.Equal(got, data) {
			t.Fatalf("close sequence %d against counter %d re-encodes to %x", tc.seq, tc.counter, got)
		}
	}
	dev.Release()
}
