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

func runTestGeometry() Geometry {
	return Geometry{
		Channels: 2, PackagesPerChannel: 1, ChipsPerPackage: 1, DiesPerChip: 1,
		PlanesPerDie: 2, BlocksPerPlane: 6, PagesPerBlock: 16, PageSize: 2048,
	}
}

// runTwins is a pair of devices kept in lock step: one relocates with
// CopyBackRun, its twin page by page with CopyBack.
type runTwins struct {
	t        *testing.T
	run, per *Device
}

func newRunTwins(t *testing.T) *runTwins {
	t.Helper()
	tw := &runTwins{t: t}
	for _, d := range []**Device{&tw.run, &tw.per} {
		dev, err := NewDevice(runTestGeometry(), DefaultTiming())
		if err != nil {
			t.Fatal(err)
		}
		*d = dev
	}
	return tw
}

// both applies one set-up operation to each twin.
func (tw *runTwins) both(op func(d *Device) error) {
	tw.t.Helper()
	for _, d := range []*Device{tw.run, tw.per} {
		if err := op(d); err != nil {
			tw.t.Fatal(err)
		}
	}
}

// fill programs pages [0, n) of a block at time zero and then invalidates
// those keep rejects.
func (tw *runTwins) fill(pb PlaneBlock, n int, keep func(p int) bool) {
	tw.t.Helper()
	tw.both(func(d *Device) error {
		first := d.Geometry().FirstPPN(pb)
		for p := 0; p < n; p++ {
			if _, err := d.WritePage(first+PPN(p), int64(1000*pb.Block+p), 0, CauseHost); err != nil {
				return err
			}
			if !keep(p) {
				if err := d.Invalidate(first + PPN(p)); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// relocate moves the victim's valid pages to the write point at page wp of
// block dest, and on to block dest+1 when that fills, the way the collection
// loop does: sources are picked by the write point's parity, and a
// destination page is wasted when only the other parity is left. The run
// device gets each destination block's copy-backs as one CopyBackRun (wastes
// applied as they come, before the run they interleave with), the twin gets
// everything in order, page by page. It returns both completion times.
func (tw *runTwins) relocate(victim, dest PlaneBlock, wp int, ready sim.Time) (runEnd, perEnd sim.Time) {
	tw.t.Helper()
	geo := tw.run.Geometry()
	ppb := geo.PagesPerBlock
	var queue [2][]PPN
	for p := 0; p < ppb; p++ {
		if ppn := geo.FirstPPN(victim) + PPN(p); tw.run.PageState(ppn) == PageValid {
			queue[p&1] = append(queue[p&1], ppn)
		}
	}
	runEnd, perEnd = ready, ready
	var srcs, dsts []PPN
	flush := func() {
		var err error
		if runEnd, err = tw.run.CopyBackRun(srcs, dsts, runEnd, CauseGC); err != nil {
			tw.t.Fatal(err)
		}
		srcs, dsts = srcs[:0], dsts[:0]
	}
	for len(queue[0])+len(queue[1]) > 0 {
		if wp == ppb {
			flush()
			dest.Block++
			wp = 0
		}
		dst := geo.FirstPPN(dest) + PPN(wp)
		wp++
		if len(queue[dst&1]) == 0 {
			tw.both(func(d *Device) error { return d.WastePage(dst) })
			continue
		}
		src := queue[dst&1][0]
		queue[dst&1] = queue[dst&1][1:]
		srcs, dsts = append(srcs, src), append(dsts, dst)
		var err error
		if perEnd, err = tw.per.CopyBack(src, dst, perEnd, CauseGC); err != nil {
			tw.t.Fatal(err)
		}
	}
	flush()
	return runEnd, perEnd
}

// stateBytes encodes a device's state: twin devices compare by their bytes,
// which hold every field of the state.
func stateBytes(d *Device) []byte {
	var w ckpt.Writer
	d.EncodeState(&w)
	return w.Bytes()
}

// equal compares everything a device holds: pages, tags, block counters, all
// three timeline sets and the statistics.
func (tw *runTwins) equal(what string) {
	tw.t.Helper()
	if !bytes.Equal(stateBytes(tw.run), stateBytes(tw.per)) {
		tw.t.Fatalf("%s: device after CopyBackRun differs from its per-page twin\nrun: %+v\nper: %+v",
			what, tw.run.Stats(), tw.per.Stats())
	}
}

// TestCopyBackRunMatchesPerOp is the run ≡ per-operation differential: named
// layouts first (one parity only, runs of length 0, 1 and a whole block,
// timelines that make the chain backfill), then random ones.
func TestCopyBackRunMatchesPerOp(t *testing.T) {
	geo := runTestGeometry()
	ppb := geo.PagesPerBlock
	cb := DefaultTiming().CopyBack()
	victim, dest, spare := PlaneBlock{1, 0}, PlaneBlock{1, 2}, PlaneBlock{1, 5}
	all := func(int) bool { return true }
	for _, tc := range []struct {
		name  string
		keep  func(p int) bool
		wp    int          // destination write point
		back  sim.Duration // the run is ready this long before the plane is free
		plant sim.Duration // an erase is planted this long after the run is ready; 0: none
	}{
		{name: "whole block", keep: all},
		{name: "whole block onto odd write point", keep: all, wp: 5},
		{name: "all even", keep: func(p int) bool { return p%2 == 0 }},
		{name: "all odd", keep: func(p int) bool { return p%2 == 1 }, wp: 2},
		{name: "interleaved wastes", keep: func(p int) bool { return p%2 == 0 || p > 11 }, wp: 3},
		{name: "empty", keep: func(int) bool { return false }},
		{name: "single page", keep: func(p int) bool { return p == 6 }, wp: 9},
		{name: "ready inside the tail interval", keep: all, back: 1000},
		{name: "first operation backfills", keep: all, plant: 20 * cb},
		{name: "gap fits part of the chain", keep: all, wp: 4, plant: 3*cb + cb/2},
		{name: "gap too small for one", keep: all, plant: cb / 2},
		{name: "gap fits the chain exactly", keep: func(p int) bool { return p < 4 }, plant: 4 * cb},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tw := newRunTwins(t)
			tw.fill(victim, ppb, tc.keep)
			tw.fill(dest, tc.wp, all)
			ready := tw.run.PlaneFreeAt(victim.Plane) - sim.Time(tc.back)
			if tc.plant > 0 {
				tw.both(func(d *Device) error {
					_, err := d.Erase(spare, ready.Add(tc.plant), CauseGC)
					return err
				})
			}
			runEnd, perEnd := tw.relocate(victim, dest, tc.wp, ready)
			if runEnd != perEnd {
				t.Fatalf("run ends at %d, per-page chain at %d", runEnd, perEnd)
			}
			tw.equal(tc.name)
		})
	}

	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(20260930))
		for trial := 0; trial < 300; trial++ {
			tw := newRunTwins(t)
			density := rng.Intn(5)
			valid := make([]bool, ppb)
			for p := range valid {
				valid[p] = rng.Intn(4) < density
			}
			tw.fill(victim, ppb, func(p int) bool { return valid[p] })
			tw.fill(spare, 1, all)
			wp := rng.Intn(ppb)
			tw.fill(dest, wp, all)
			ready := tw.run.PlaneFreeAt(victim.Plane) + sim.Time(rng.Intn(3)-1)*sim.Time(rng.Intn(5000))
			for islands := rng.Intn(3); islands > 0; islands-- { // future work on the plane: gaps to backfill
				at := ready.Add(sim.Duration(rng.Intn(12*int(cb)) + 1))
				tw.both(func(d *Device) error {
					_, err := d.ReadPage(geo.FirstPPN(spare), at, CauseHost)
					return err
				})
			}
			runEnd, perEnd := tw.relocate(victim, dest, wp, ready)
			if runEnd != perEnd {
				t.Fatalf("trial %d: run ends at %d, per-page chain at %d", trial, runEnd, perEnd)
			}
			tw.equal("random trial")
		}
	})
}

// TestCopyBackRunObservedAndSharded: with a recorder attached the run
// reports the operations its per-page twin reports, one by one, and leaves
// the same device behind.
func TestCopyBackRunObservedAndSharded(t *testing.T) {
	t.Run("recorder", func(t *testing.T) {
		geo := runTestGeometry()
		victim, dest := PlaneBlock{2, 1}, PlaneBlock{2, 3}
		tw := newRunTwins(t)
		runRec, perRec := &countingRecorder{}, &countingRecorder{}
		tw.run.SetRecorder(runRec)
		tw.per.SetRecorder(perRec)
		tw.fill(victim, geo.PagesPerBlock, func(p int) bool { return p%3 != 0 })
		tw.fill(dest, 3, func(int) bool { return true })
		runEnd, perEnd := tw.relocate(victim, dest, 3, tw.run.PlaneFreeAt(victim.Plane)-500)
		if runEnd != perEnd {
			t.Fatalf("run ends at %d, per-page chain at %d", runEnd, perEnd)
		}
		if !reflect.DeepEqual(runRec.seen, perRec.seen) {
			t.Fatal("the run's op stream differs from the per-page one")
		}
		if n := runRec.ops[obs.OpCopyBack.String()+"/"+obs.CauseGC.String()]; n == 0 {
			t.Fatal("no copy-back reached the recorder")
		}
		tw.equal("recorder")
	})
}

// TestCopyBackRunErrors: a run rejects what CopyBack rejects with the same
// sentinel, having moved exactly the pages before the offending one, and
// rejects shapes that are not a run.
func TestCopyBackRunErrors(t *testing.T) {
	geo := runTestGeometry()
	ppb := PPN(geo.PagesPerBlock)
	src, dst := geo.FirstPPN(PlaneBlock{0, 1}), geo.FirstPPN(PlaneBlock{0, 3})
	otherPlane := geo.FirstPPN(PlaneBlock{1, 3})
	for _, tc := range []struct {
		name       string
		srcs, dsts []PPN
		want       error
		perOpToo   bool // the per-page twin fails the same way at the same page
	}{
		{"wrong parity", []PPN{src, src + 1}, []PPN{dst, dst + 2}, ErrParity, true},
		{"cross-plane", []PPN{src}, []PPN{otherPlane}, ErrCrossPlane, true},
		{"source not valid", []PPN{src, src + 15}, []PPN{dst, dst + 1}, ErrReadInvalid, true},
		{"source moved twice", []PPN{src, src}, []PPN{dst, dst + 2}, ErrReadInvalid, true},
		{"destination not free", []PPN{src, src + 2}, []PPN{dst, dst + 12}, ErrWriteNotFree, true},
		{"destination used twice", []PPN{src, src + 2}, []PPN{dst, dst}, ErrWriteNotFree, true},
		{"out of range", []PPN{PPN(geo.TotalPages())}, []PPN{dst}, ErrOutOfRange, true},
		{"negative page", []PPN{src}, []PPN{-1}, ErrOutOfRange, true},
		{"source leaves its block", []PPN{src, src + ppb}, []PPN{dst, dst + 2}, ErrRunShape, false},
		{"destination leaves its block", []PPN{src, src + 2}, []PPN{dst, dst + ppb}, ErrRunShape, false},
		{"page beyond the device mid-run", []PPN{src, PPN(geo.TotalPages())}, []PPN{dst, dst + 2}, ErrRunShape, false},
		{"mismatched lengths", []PPN{src, src + 2}, []PPN{dst}, ErrRunShape, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tw := newRunTwins(t)
			// Blocks 1 and 2 hold pages 0..14 valid, 15 invalid; the
			// destination block has pages 12.. already programmed.
			for _, b := range []int{1, 2} {
				tw.fill(PlaneBlock{0, b}, geo.PagesPerBlock, func(p int) bool { return p != 15 })
			}
			tw.both(func(d *Device) error {
				_, err := d.WritePage(dst+12, 77, 0, CauseHost)
				return err
			})
			if _, err := tw.run.CopyBackRun(tc.srcs, tc.dsts, 0, CauseGC); !errors.Is(err, tc.want) {
				t.Fatalf("CopyBackRun: %v, want %v", err, tc.want)
			}
			if !tc.perOpToo {
				return
			}
			var at sim.Time
			var err error
			for i := 0; i < len(tc.srcs) && err == nil; i++ {
				at, err = tw.per.CopyBack(tc.srcs[i], tc.dsts[i], at, CauseGC)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("CopyBack: %v, want %v", err, tc.want)
			}
			tw.equal("after the error")
		})
	}
}

// TestReciprocalAddressing checks the multiply-high division against the
// hardware one: divisors of every shape, numerators at the multiples'
// edges up to the 2^32 bound, and the device's BlockOf/PlaneOf against
// Geometry.BlockOf on a geometry with no power of two in it.
func TestReciprocalAddressing(t *testing.T) {
	div := func(m uint64, n uint64) uint64 {
		d := Device{blockRecip: m}
		return uint64(d.blockIndexOf(PPN(n)))
	}
	rng := rand.New(rand.NewSource(3))
	divisors := []int64{2, 3, 6, 7, 64, 100, 127, 128, 129, 641, 65535, 65536, 65537, 6700417, 1<<31 - 1, 1 << 31, 1<<32 - 1, 1 << 32}
	for i := 0; i < 200; i++ {
		divisors = append(divisors, 2+rng.Int63n(1<<32-1))
	}
	const exact = 1 << 32 // recip's domain, past maxPages
	for _, d := range divisors {
		m := recip(d)
		check := func(n uint64) {
			if n < exact && div(m, n) != n/uint64(d) {
				t.Fatalf("%d / %d by reciprocal = %d, want %d", n, d, div(m, n), n/uint64(d))
			}
		}
		for _, q := range []uint64{0, 1, 2, 3, rng.Uint64() % (exact / uint64(d)), (exact - 1) / uint64(d)} {
			check(q * uint64(d))
			check(q*uint64(d) + 1)
			check(q*uint64(d) + uint64(d) - 1)
		}
		check(exact - 1)
		for i := 0; i < 64; i++ {
			check(rng.Uint64() % exact)
		}
	}

	geo := Geometry{Channels: 3, PackagesPerChannel: 1, ChipsPerPackage: 1, DiesPerChip: 1,
		PlanesPerDie: 1, BlocksPerPlane: 7, PagesPerBlock: 6, PageSize: 2048}
	d, err := NewDevice(geo, DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	for ppn := PPN(0); int64(ppn) < geo.TotalPages(); ppn++ {
		if d.BlockOf(ppn) != geo.BlockOf(ppn) || d.PlaneOf(ppn) != geo.BlockOf(ppn).Plane {
			t.Fatalf("ppn %d: device says %v / plane %d, geometry %v / plane %d",
				ppn, d.BlockOf(ppn), d.PlaneOf(ppn), geo.BlockOf(ppn), geo.BlockOf(ppn).Plane)
		}
	}
}

// TestNewDeviceRejectsTooManyPages: a geometry past the reciprocal bound is
// a typed error, before anything is allocated for it.
func TestNewDeviceRejectsTooManyPages(t *testing.T) {
	geo := runTestGeometry()
	geo.BlocksPerPlane = 1 << 27 // 4 planes x 2^27 blocks x 16 pages = 2^33 pages
	if _, err := NewDevice(geo, DefaultTiming()); !errors.Is(err, ErrTooManyPages) {
		t.Fatalf("NewDevice with %d pages: %v, want ErrTooManyPages", geo.TotalPages(), err)
	}
}
