package ssd

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"dloop/internal/ckpt"
	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/ftl/fast"
	"dloop/internal/ftl/pagemap"
	"dloop/internal/sim"
	"dloop/internal/trace"
	"dloop/internal/workload"
)

// A checkpoint stores only what the page words cannot rebuild (DESIGN §11):
// the tracker's counts, the write cursors and FAST's log map are read back
// off the decoded device. These tests hold the live state to the same rule
// and the decoders to the checks it leaves them.

// field returns the named field of the struct p points to, unexported or
// not, for reading.
func field(p any, name string) reflect.Value {
	return reflect.ValueOf(p).Elem().FieldByName(name)
}

// planeBlock reads a flash.PlaneBlock held in a field.
func planeBlock(v reflect.Value) flash.PlaneBlock {
	return flash.PlaneBlock{Plane: int(v.FieldByName("Plane").Int()), Block: int(v.FieldByName("Block").Int())}
}

// checkDerived compares a single-shard controller's derived FTL state with
// what its device's page words give: on a page-mapping FTL, the tracker's
// candidates are exactly the full blocks no active write point holds, each
// in the bucket of its device invalid count, and every active write
// cursor is its block's high-water mark; on FAST, the log map is exactly
// the valid pages of the log blocks.
func checkDerived(t *testing.T, c *Controller) {
	t.Helper()
	dev := c.Device()
	geo := dev.Geometry()
	ppb := geo.PagesPerBlock
	switch f := c.FTL().(type) {
	case *pagemap.FTL:
		tr := (*ftl.Tracker)(unsafe.Pointer(field(f, "tracker").Pointer()))
		writing := map[flash.PlaneBlock]bool{}
		cur := field(f, "cur")
		for i := 0; i < cur.Len(); i++ {
			wp := cur.Index(i)
			if !wp.FieldByName("active").Bool() {
				continue
			}
			pb := planeBlock(wp.FieldByName("pb"))
			writing[pb] = true
			if next := int(wp.FieldByName("next").Int()); next != dev.Block(pb).NextWrite {
				t.Fatalf("write point %d on %v has cursor %d, the device's high-water mark is %d", i, pb, next, dev.Block(pb).NextWrite)
			}
		}
		counted := 0 // candidates with an invalid page: those ForEachCandidate visits
		for p := 0; p < geo.Planes(); p++ {
			for b := 0; b < geo.BlocksPerPlane; b++ {
				pb := flash.PlaneBlock{Plane: p, Block: b}
				info := dev.Block(pb)
				if want := info.NextWrite == ppb && !writing[pb]; tr.Candidate(pb) != want {
					t.Fatalf("block %v %+v (write point: %v) is a candidate: %v", pb, info, writing[pb], tr.Candidate(pb))
				}
				if tr.Candidate(pb) && info.Invalid > 0 {
					counted++
				}
			}
			tr.ForEachCandidate(p, func(pb flash.PlaneBlock, invalid int, _ int64) bool {
				if n := dev.Block(pb).Invalid; n != invalid {
					t.Fatalf("candidate %v in bucket %d, the device holds %d invalid pages", pb, invalid, n)
				}
				counted--
				return true
			})
		}
		if counted != 0 {
			t.Fatalf("%d candidates with invalid pages are in bucket 0", counted)
		}
	case *fast.FAST:
		var logs []flash.PlaneBlock
		if field(f, "swLBN").Int() >= 0 {
			logs = append(logs, planeBlock(field(f, "swBlock")))
		}
		if field(f, "rwActive").Bool() {
			logs = append(logs, planeBlock(field(f, "rwBlock")))
		}
		full := field(f, "rwFull")
		for i := 0; i < full.Len(); i++ {
			logs = append(logs, planeBlock(full.Index(i)))
		}
		want := map[int64]int64{}
		for _, pb := range logs {
			for ppn := geo.FirstPPN(pb); ppn < geo.FirstPPN(pb)+flash.PPN(ppb); ppn++ {
				if dev.PageState(ppn) == flash.PageValid {
					want[dev.PageLPN(ppn)] = int64(ppn)
				}
			}
		}
		got := map[int64]int64{}
		slots := field(f, "logMap").FieldByName("slots") // lpn<<32 | ppn+1 words, 0 empty
		for i := 0; i < slots.Len(); i++ {
			if w := slots.Index(i).Uint(); w != 0 {
				got[int64(w>>32)] = int64(uint32(w)) - 1
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("log map holds %d pages, the log blocks' valid pages %d", len(got), len(want))
		}
	default:
		t.Fatalf("no derived-state check for %T", f)
	}
}

// TestDerivedStateMatchesDevice runs every scheme, and FAST under a
// sequential rewrite (switch merges), on a GC-heavy 0.05-scale device and
// checks the derived state against the device between request chunks. Then
// a checkpoint restored into a fresh controller re-encodes byte for byte,
// holds the same derived state, and serves the next requests with the same
// Result as the uninterrupted controller.
func TestDerivedStateMatchesDevice(t *testing.T) {
	const chunks, chunk, after = 20, 1000, 10000
	for _, tc := range []struct {
		name, scheme string
		profile      workload.Profile
	}{
		{SchemeDLOOP, SchemeDLOOP, workload.Financial1()},
		{SchemeDFTL, SchemeDFTL, workload.Financial1()},
		{SchemeFAST, SchemeFAST, workload.Financial1()},
		{SchemePureMap, SchemePureMap, workload.Financial1()},
		{SchemePureMapStriped, SchemePureMapStriped, workload.Financial1()},
		{"FAST-sequential", SchemeFAST, workload.SeqWrite()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			geo, err := ScaledGeometryFor(4, 2, 0.03, 3, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{CapacityGB: 4, PageSizeKB: 2, FTL: tc.scheme, Geometry: &geo}
			exported, err := ExportedBytes(cfg)
			if err != nil {
				t.Fatal(err)
			}
			p := tc.profile
			p.WriteRatio = 1
			p = p.ScaleFootprint(0.9 * float64(exported) / float64(p.FootprintBytes))
			reqs, err := workload.Generate(p, 7, chunks*chunk+after)
			if err != nil {
				t.Fatal(err)
			}
			build := func() *Controller {
				c, err := Build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(c.Close)
				return c
			}
			c := build()
			if err := c.PreconditionBytes(p.FootprintBytes); err != nil {
				t.Fatal(err)
			}
			checkDerived(t, c)
			for i := 0; i < chunks; i++ {
				if _, err := c.Run(trace.NewSliceReader(reqs[i*chunk : (i+1)*chunk])); err != nil {
					t.Fatal(err)
				}
				checkDerived(t, c)
			}
			res := c.Result()
			if res.GCRuns+res.SwitchMerges+res.PartialMerges+res.FullMerges == 0 {
				t.Fatalf("no collection or merge ran: %+v", res)
			}
			t.Logf("%d requests: %d collections, %d switch, %d partial and %d full merges",
				res.Requests, res.GCRuns, res.SwitchMerges, res.PartialMerges, res.FullMerges)
			if tc.name == "FAST-sequential" && res.SwitchMerges == 0 {
				t.Fatalf("the sequential rewrite ran no switch merge: %+v", res)
			}

			cp, err := c.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			data, err := c.EncodeCheckpoint(cp)
			if err != nil {
				t.Fatal(err)
			}
			r := build()
			if err := r.Restore(cp); err != nil {
				t.Fatal(err)
			}
			checkDerived(t, r)
			again, err := r.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if reenc, err := r.EncodeCheckpoint(again); err != nil || !bytes.Equal(reenc, data) {
				t.Fatalf("the restored controller re-encodes to other bytes (%v)", err)
			}
			rest := reqs[chunks*chunk:]
			want, err := c.Run(trace.NewSliceReader(rest))
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.Run(trace.NewSliceReader(rest))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("restored run differs:\n got %+v\nwant %+v", got, want)
			}
			if got.GCRuns+got.SwitchMerges+got.PartialMerges+got.FullMerges == res.GCRuns+res.SwitchMerges+res.PartialMerges+res.FullMerges {
				t.Fatal("the restored controller ran no collection or merge")
			}
			checkDerived(t, r)
		})
	}
}

// trackerLayout locates the tracker's candidate lists and the write points
// inside craftedDonor's DLOOP checkpoint. The FTL state follows the device
// state and ends with the write points (two int64 and a bool each) and the
// GC run count; the tracker ends just before the write points with its
// close counter, after per-plane candidate counts and (int32 block, int64
// close sequence) pairs. The candidates of a plane are its full blocks
// that no active write point holds, so the device gives the tracker's
// length. lists[p] is the offset of plane p's candidate count.
func trackerLayout(t *testing.T, donor *Controller, data []byte, device int) (lists []int, wps int) {
	t.Helper()
	dev := donor.Device()
	geo := dev.Geometry()
	var w ckpt.Writer
	donor.FTL().EncodeState(&w)
	end := device + len(deviceBytes(dev)) + w.Len()
	wps = end - 8 - (4 + 17*geo.Planes())
	if got := u32At(data, wps); got != uint32(geo.Planes()) {
		t.Fatalf("write-point count at offset %d reads %d, want %d: the layout moved", wps, got, geo.Planes())
	}
	writing := map[flash.PlaneBlock]bool{}
	for i := 0; i < geo.Planes(); i++ {
		off := wps + 4 + 17*i
		if data[off+16] == 1 {
			writing[flash.PlaneBlock{Plane: int(u32At(data, off)), Block: int(u32At(data, off+8))}] = true
		}
	}
	counts := make([]int, geo.Planes())
	size := 4 + 8
	for p := range counts {
		for b := 0; b < geo.BlocksPerPlane; b++ {
			pb := flash.PlaneBlock{Plane: p, Block: b}
			if dev.Block(pb).NextWrite == geo.PagesPerBlock && !writing[pb] {
				counts[p]++
			}
		}
		size += 4 + 12*counts[p]
	}
	off := wps - size
	if got := u32At(data, off); got != uint32(geo.Planes()) {
		t.Fatalf("tracker plane count at offset %d reads %d, want %d: the layout moved", off, got, geo.Planes())
	}
	off += 4
	for p, n := range counts {
		if got := u32At(data, off); int(got) != n {
			t.Fatalf("plane %d lists %d candidates at offset %d, want %d: the layout moved", p, got, off, n)
		}
		lists = append(lists, off)
		off += 4 + 12*n
	}
	return lists, wps
}

// TestDecodeStateCrafted damages the tracker's candidate list and the write
// points inside a valid DLOOP container: a candidate off the device, one
// listed twice, one not full on the device, and an active write point on a
// candidate. Restore must refuse each with its error, and the writes that
// follow must return that error rather than run. A candidate's invalid
// count and the GC engine's guards are not in the bytes, so no damage can
// set them.
func TestDecodeStateCrafted(t *testing.T) {
	donor, data, device := craftedDonor(t)
	lists, wps := trackerLayout(t, donor, data, device)
	geo := donor.Geometry()
	plane := -1
	for p, off := range lists {
		if u32At(data, off) >= 2 {
			plane = p
			break
		}
	}
	if plane < 0 {
		t.Fatal("test setup: no plane lists two candidates")
	}
	cand := func(i int) int { return lists[plane] + 4 + 12*i }
	first := u32At(data, cand(0))
	open := -1 // a block of the plane that is not full
	for b := 0; b < geo.BlocksPerPlane; b++ {
		if donor.Device().Block(flash.PlaneBlock{Plane: plane, Block: b}).NextWrite < geo.PagesPerBlock {
			open = b
			break
		}
	}
	if open < 0 || data[wps+4+16] != 1 {
		t.Fatalf("test setup: plane %d has no open block (%d) or write point 0 is idle", plane, open)
	}
	probe := trace.Request{Arrival: sim.Time(0), LBN: 0, Sectors: 8, Op: trace.OpWrite}

	for _, tc := range []struct {
		name, want string
		damage     func(b []byte)
	}{
		{"candidate off the device", "off the device", func(b []byte) { putU32At(b, cand(0), uint32(geo.BlocksPerPlane)) }},
		{"candidate listed twice", "listed twice", func(b []byte) { putU32At(b, cand(1), first) }},
		{"candidate not full on the device", "not full", func(b []byte) { putU32At(b, cand(0), uint32(open)) }},
		{"write point on a candidate", "is a collection candidate", func(b []byte) {
			putU32At(b, wps+4, uint32(plane))
			putU32At(b, wps+4+8, first)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rejectCrafted(t, donor, data, tc.damage)
			bad := bytes.Clone(data)
			tc.damage(bad)
			cp, err := donor.DecodeCheckpoint(reseal(bad))
			if err != nil {
				t.Fatal(err)
			}
			rerr := donor.Restore(cp)
			if rerr == nil || !strings.Contains(rerr.Error(), tc.want) {
				t.Fatalf("restore error %v, want one saying %q", rerr, tc.want)
			}
			for i := 0; i < 25; i++ {
				if _, err := donor.Serve(probe); !errors.Is(err, rerr) {
					t.Fatalf("write %d after the failed restore: %v, want %v", i, err, rerr)
				}
			}
		})
	}
}
