package flash

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"dloop/internal/ckpt"
	"dloop/internal/obs"
	"dloop/internal/sim"
)

// refSchedule is Device.schedule without its closed-form tail placement:
// every phase of every operation through Acquire / AcquireAll.
func refSchedule(d *Device, kind opKind, plane int, ready sim.Time) (start, end sim.Time) {
	pl := d.planes[plane]
	switch kind {
	case opRead:
		var cellDone sim.Time
		start, cellDone = pl.Acquire(ready, d.readLat)
		_, end = sim.AcquireAll(cellDone, d.xferLat, d.planeChip[plane], d.planeChannel[plane], pl)
	case opWrite:
		var xferDone sim.Time
		start, xferDone = sim.AcquireAll(ready, d.xferLat, d.planeChip[plane], d.planeChannel[plane], pl)
		_, end = pl.Acquire(xferDone, d.progLat)
	case opCopyBack:
		start, end = pl.Acquire(ready, d.cbLat)
	case opErase:
		start, end = pl.Acquire(ready, d.eraseLat)
	}
	return start, end
}

// TestScheduleMatchesPhases is the closed-form ≡ phase-by-phase
// differential: random operation streams, each ready behind, at or past the
// tails of its plane, chip bus and channel, on a device that schedules and a
// twin that runs refSchedule. Every (start, end) and, after every operation,
// the three timelines it touched must agree; the whole devices at the end.
// Zero-length phases are included, where occupations count but do not place.
func TestScheduleMatchesPhases(t *testing.T) {
	zeroRead, zeroXfer := DefaultTiming(), DefaultTiming()
	zeroRead.PageRead = 0
	zeroXfer.BytePeriod, zeroXfer.CmdAddr = 0, 0
	for name, timing := range map[string]Timing{"table I": DefaultTiming(), "zero read": zeroRead, "zero transfer": zeroXfer} {
		t.Run(name, func(t *testing.T) {
			var got, want *Device
			for _, d := range []**Device{&got, &want} {
				dev, err := NewDevice(testGeometry(), timing)
				if err != nil {
					t.Fatal(err)
				}
				*d = dev
			}
			rng := rand.New(rand.NewSource(20261015))
			var closed, general int
			for i := 0; i < 20000; i++ {
				kind := opKind(rng.Intn(int(numOps)))
				if rng.Intn(3) > 0 {
					kind = opKind(rng.Intn(2)) // mostly reads and writes
				}
				plane := rng.Intn(len(got.planes))
				tails := []sim.Time{got.planes[plane].FreeAt(), got.planeChip[plane].FreeAt(), got.planeChannel[plane].FreeAt()}
				hi := max(tails[0], tails[1], tails[2])
				var ready sim.Time
				switch rng.Intn(6) {
				case 0, 1: // past every tail
					ready = hi.Add(sim.Duration(rng.Intn(300_000)))
				case 2: // exactly at the latest tail
					ready = hi
				case 3: // at one of the tails
					ready = tails[rng.Intn(3)]
				case 4: // just behind
					ready = hi - sim.Time(rng.Intn(300_000))
				case 5: // far behind, past the window
					ready = hi - sim.Time(rng.Intn(50_000_000))
				}
				ready = max(ready, 0)
				if kind <= opWrite && ready >= hi {
					closed++
				} else {
					general++
				}
				s1, e1 := got.schedule(kind, plane, ready)
				s2, e2 := refSchedule(want, kind, plane, ready)
				if s1 != s2 || e1 != e2 {
					t.Fatalf("op %d (%d on plane %d, ready %d): [%d, %d), phase by phase [%d, %d)", i, kind, plane, ready, s1, e1, s2, e2)
				}
				for _, r := range []struct {
					name      string
					got, want *sim.Resource
				}{
					{"plane", got.planes[plane], want.planes[plane]},
					{"chipbus", got.planeChip[plane], want.planeChip[plane]},
					{"channel", got.planeChannel[plane], want.planeChannel[plane]},
				} {
					if !bytes.Equal(timelineBytes(r.got), timelineBytes(r.want)) {
						t.Fatalf("op %d (%d on plane %d, ready %d): %s timeline differs from the phase-by-phase one", i, kind, plane, ready, r.name)
					}
				}
			}
			if !bytes.Equal(stateBytes(got), stateBytes(want)) {
				t.Fatal("devices differ after the stream")
			}
			if closed < 5000 || general < 5000 {
				t.Fatalf("%d operations took the closed form and %d the general path; the stream must exercise both", closed, general)
			}
		})
	}
}

// timelineBytes encodes a resource's timeline and statistics.
func timelineBytes(r *sim.Resource) []byte {
	var w ckpt.Writer
	r.EncodeState(&w)
	return w.Bytes()
}

// truncate forgets every op after the first n.
func (r *countingRecorder) truncate(n int) {
	for _, op := range r.seen[n:] {
		r.ops[op.Kind.String()+"/"+op.Cause.String()]--
	}
	r.seen = r.seen[:n]
}

// movePair applies one external move to tw.run as MoveExternal and to tw.per
// as ReadPage + WritePage(src's tag) + Invalidate. When the per-operation
// sequence fails, MoveExternal must fail with the same sentinel and leave its
// device untouched; the twin is then rewound, its recorder included, so both
// stay in step.
func (tw *runTwins) movePair(src, dst PPN, ready sim.Time) (end sim.Time, err error) {
	tw.t.Helper()
	runBefore, perBefore := stateBytes(tw.run), stateBytes(tw.per)
	perRec, _ := tw.per.rec.(*countingRecorder)
	var perSeen int
	if perRec != nil {
		perSeen = len(perRec.seen)
	}
	end, err = tw.run.MoveExternal(src, dst, ready, CauseGC)
	perEnd, perErr := tw.per.ReadPage(src, ready, CauseGC)
	if perErr == nil {
		if perEnd, perErr = tw.per.WritePage(dst, tw.per.PageLPN(src), perEnd, CauseGC); perErr == nil {
			perErr = tw.per.Invalidate(src)
		}
	}
	if perErr != nil {
		for _, sentinel := range []error{ErrOutOfRange, ErrReadInvalid, ErrWriteNotFree} {
			if errors.Is(perErr, sentinel) != errors.Is(err, sentinel) {
				tw.t.Fatalf("move %d -> %d: %v, per operation %v", src, dst, err, perErr)
			}
		}
		if !bytes.Equal(stateBytes(tw.run), runBefore) {
			tw.t.Fatalf("move %d -> %d failed (%v) but changed the device", src, dst, err)
		}
		r := ckpt.NewReader(perBefore)
		if tw.per.DecodeState(r); r.Err() != nil {
			tw.t.Fatal(r.Err())
		}
		if perRec != nil {
			perRec.truncate(perSeen)
		}
		return end, err
	}
	if err != nil || end != perEnd {
		tw.t.Fatalf("move %d -> %d: ends %d (%v), per operation %d", src, dst, end, err, perEnd)
	}
	return end, nil
}

// randomMoves lays out the twins at random — written blocks with holes,
// future reads that leave gaps on the timelines — and then makes n moves:
// most from a valid page to the next free page of some block, ready around
// the tails, and some from or to any page number at all.
func (tw *runTwins) randomMoves(rng *rand.Rand, n int) (moved int) {
	tw.t.Helper()
	geo := tw.run.Geometry()
	ppb := geo.PagesPerBlock
	for p := 0; p < geo.Planes(); p++ {
		for b := 0; b < 3; b++ {
			density := rng.Intn(5)
			keep := make([]bool, ppb)
			for i := range keep {
				keep[i] = rng.Intn(4) < density
			}
			tw.fill(PlaneBlock{p, b}, rng.Intn(ppb+1), func(i int) bool { return keep[i] })
		}
	}
	pick := func(want PageState) PPN {
		if rng.Intn(8) == 0 {
			return PPN(rng.Int63n(geo.TotalPages()+2) - 1)
		}
		for tries := 0; tries < 64; tries++ {
			pb := PlaneBlock{rng.Intn(geo.Planes()), rng.Intn(geo.BlocksPerPlane)}
			if want == PageFree {
				if next := tw.run.Block(pb).NextWrite; next < ppb {
					return geo.FirstPPN(pb) + PPN(next)
				}
				continue
			}
			for off := 0; off < ppb; off++ {
				if ppn := geo.FirstPPN(pb) + PPN(off); tw.run.PageState(ppn) == want && rng.Intn(3) == 0 {
					return ppn
				}
			}
		}
		return 0
	}
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 { // an island on some plane's timeline
			if src := pick(PageValid); tw.run.validPPN(src) && tw.run.PageState(src) == PageValid {
				at := tw.run.PlaneFreeAt(tw.run.PlaneOf(src)).Add(sim.Duration(rng.Intn(2_000_000)))
				tw.both(func(d *Device) error {
					_, err := d.ReadPage(src, at, CauseHost)
					return err
				})
			}
		}
		src, dst := pick(PageValid), pick(PageFree)
		var ready sim.Time
		if tw.run.validPPN(src) {
			ready = max(0, tw.run.PlaneFreeAt(tw.run.PlaneOf(src))+sim.Time(rng.Intn(1_000_000)-500_000))
		}
		if _, err := tw.movePair(src, dst, ready); err == nil {
			moved++
		}
	}
	return moved
}

// TestMoveExternalMatchesPerOp is the fused ≡ per-operation differential for
// external moves over many random layouts: whole-device snapshots and
// completion times after every successful move; the same sentinel and an
// untouched device after every failed one.
func TestMoveExternalMatchesPerOp(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	moved, tried := 0, 0
	for trial := 0; trial < 200; trial++ {
		tw := newRunTwins(t)
		moved += tw.randomMoves(rng, 40)
		tried += 40
		tw.equal("random layout")
	}
	if moved < tried/3 || moved > tried*9/10 {
		t.Fatalf("%d of %d moves succeeded; the layouts must exercise both outcomes", moved, tried)
	}
}

// TestMoveExternalErrors names each refusal: the sentinel ReadPage or
// WritePage would return, with nothing changed.
func TestMoveExternalErrors(t *testing.T) {
	geo := runTestGeometry()
	valid, invalid := geo.FirstPPN(PlaneBlock{0, 1}), geo.FirstPPN(PlaneBlock{0, 1})+1
	free, used := geo.FirstPPN(PlaneBlock{3, 2})+1, geo.FirstPPN(PlaneBlock{3, 2})
	for _, tc := range []struct {
		name     string
		src, dst PPN
		want     error
	}{
		{"source out of range", PPN(geo.TotalPages()), free, ErrOutOfRange},
		{"negative source", -1, free, ErrOutOfRange},
		{"source not valid", invalid, free, ErrReadInvalid},
		{"source free", free, free + 1, ErrReadInvalid},
		{"destination out of range", valid, PPN(geo.TotalPages()), ErrOutOfRange},
		{"destination programmed", valid, used, ErrWriteNotFree},
		{"onto itself", valid, valid, ErrWriteNotFree},
		{"both bad: the source is reported", invalid, used, ErrReadInvalid},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tw := newRunTwins(t)
			tw.fill(PlaneBlock{0, 1}, 4, func(p int) bool { return p != 1 })
			tw.fill(PlaneBlock{3, 2}, 1, func(int) bool { return true })
			if _, err := tw.movePair(tc.src, tc.dst, 0); !errors.Is(err, tc.want) {
				t.Fatalf("MoveExternal: %v, want %v", err, tc.want)
			}
			tw.equal(tc.name)
		})
	}
}

// TestMoveExternalObservedAndSharded: under a recorder a move reports the two
// operations its per-operation twin reports and leaves the same device.
func TestMoveExternalObservedAndSharded(t *testing.T) {
	t.Run("recorder", func(t *testing.T) {
		tw := newRunTwins(t)
		runRec, perRec := &countingRecorder{}, &countingRecorder{}
		tw.run.SetRecorder(runRec)
		tw.per.SetRecorder(perRec)
		tw.randomMoves(rand.New(rand.NewSource(5)), 60)
		if !reflect.DeepEqual(runRec.seen, perRec.seen) {
			t.Fatal("the fused move's op stream differs from the per-operation one")
		}
		if runRec.ops[obs.OpWrite.String()+"/"+obs.CauseGC.String()] == 0 {
			t.Fatal("no move reached the recorder")
		}
		tw.equal("recorder")
	})
}
