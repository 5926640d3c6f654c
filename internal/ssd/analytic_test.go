package ssd

import (
	"math"
	"testing"

	"dloop/internal/flash"
	"dloop/internal/sim"
	"dloop/internal/trace"
)

// Analytic anchors: numbers the simulator must hit that it did not produce
// itself. They come from the paper's cost model (§III.A, DESIGN §3) and from
// conservation of busy time, not from an earlier run, so they hold whatever
// path — closed form or general — placed the operations.

// TestUnloadedServiceTimes checks each operation on idle timelines against
// Table I. The paper rounds the register-to-controller transfer of a 2 KB
// page to 50 µs; Table I as configured makes it 2048 B × 25 ns plus the
// 0.2 µs command cycle, 51.4 µs, so its 75 / 250 / 325 µs read, write and
// external move are 76.4 / 251.4 / 327.8 µs here, and the paper's 30.7 %
// copy-back saving is 31.4 %.
func TestUnloadedServiceTimes(t *testing.T) {
	geo := tinyGeometry()
	const at = sim.Time(sim.Second) // long after the set-up writes at time 0
	far := geo.Planes() - 1
	if geo.ChannelOfPlane(far) == geo.ChannelOfPlane(0) {
		t.Fatal("the tiny geometry's first and last planes share a channel")
	}
	plane0 := func(off int) flash.PPN { return geo.PPNOf(0, 1, off) }
	for _, tc := range []struct {
		name string
		op   func(d *flash.Device) (sim.Time, error)
		want sim.Duration
	}{
		{"read", func(d *flash.Device) (sim.Time, error) { return d.ReadPage(plane0(0), at, flash.CauseHost) }, 76_400},
		{"write", func(d *flash.Device) (sim.Time, error) { return d.WritePage(plane0(1), 7, at, flash.CauseHost) }, 251_400},
		{"copy-back", func(d *flash.Device) (sim.Time, error) { return d.CopyBack(plane0(0), plane0(2), at, flash.CauseGC) }, 225_000},
		{"external move, same plane", func(d *flash.Device) (sim.Time, error) {
			return d.MoveExternal(plane0(0), plane0(1), at, flash.CauseGC)
		}, 327_800},
		{"external move, across channels", func(d *flash.Device) (sim.Time, error) {
			return d.MoveExternal(plane0(0), geo.PPNOf(far, 1, 0), at, flash.CauseGC)
		}, 327_800},
		{"erase", func(d *flash.Device) (sim.Time, error) {
			return d.Erase(flash.PlaneBlock{Plane: 0, Block: 2}, at, flash.CauseGC)
		}, 2_000_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := flash.NewDevice(geo, flash.DefaultTiming())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.WritePage(plane0(0), 42, 0, flash.CauseHost); err != nil {
				t.Fatal(err)
			}
			end, err := tc.op(d)
			if err != nil {
				t.Fatal(err)
			}
			if got := end.Sub(at); got != tc.want {
				t.Errorf("%s takes %.1f µs on idle timelines, want %.1f", tc.name, got.Microseconds(), tc.want.Microseconds())
			}
		})
	}
	tm := flash.DefaultTiming()
	saving := 1 - tm.CopyBack().Microseconds()/tm.InterPlaneCopy(geo.PageSize).Microseconds()
	paper := 1 - 225.0/325
	if math.Abs(saving-paper) > 0.01 {
		t.Errorf("copy-back saves %.1f %% of an external move, the paper %.1f %%", 100*saving, 100*paper)
	}
}

// TestUtilisationIdentities runs small workloads and checks that busy time
// is conserved: every plane, chip-bus and channel microsecond is some
// counted operation's phase, and no operation's phase is lost.
//
//	Σ plane busy    = (read+xfer)·R + (xfer+program)·W + copy-back·C + erase·E
//	Σ channel busy  = Σ chip-bus busy = xfer·(R + W)
//	GC channel time = 2·xfer·(external moves), so 0 with copy-back
//
// The last is the paper's bus argument as an equation: copy-back takes
// garbage collection off the channels.
func TestUtilisationIdentities(t *testing.T) {
	tm := flash.DefaultTiming()
	xfer := tm.Transfer(tinyGeometry().PageSize)
	for _, tc := range []struct {
		name     string
		scheme   string
		noCB     bool
		copyBack bool // GC relocates with copy-back only
	}{
		{"FAST", SchemeFAST, false, false},
		{"DFTL", SchemeDFTL, false, false},
		{"DLOOP", SchemeDLOOP, false, true},
		{"DLOOP no-copyback", SchemeDLOOP, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinyConfig(tc.scheme)
			cfg.DisableCopyBack = tc.noCB
			c, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			preconditionTiny(t, c)
			res, err := c.Run(trace.NewSliceReader(tinyWorkload(t, c, 4000, 7)))
			if err != nil {
				t.Fatal(err)
			}
			st := c.Device().Stats()
			planes, chips, chans := c.Device().BusyTimes()
			r, w, cb, e := st.Reads(), st.Writes(), st.CopyBacks(), st.Erases()
			gcR, gcW, gcCB, _ := st.ByCause(flash.CauseGC)

			want := sim.Duration(r)*(tm.PageRead+xfer) + sim.Duration(w)*(xfer+tm.PageProgram) +
				sim.Duration(cb)*tm.CopyBack() + sim.Duration(e)*tm.BlockErase
			if got := total(planes); got != want {
				t.Errorf("Σ plane busy %d ns, want %d for %d reads, %d writes, %d copy-backs, %d erases", got, want, r, w, cb, e)
			}
			bus := sim.Duration(r+w) * xfer
			if got := total(chans); got != bus {
				t.Errorf("Σ channel busy %d ns, want %d for %d transfers", got, bus, r+w)
			}
			if got := total(chips); got != bus {
				t.Errorf("Σ chip-bus busy %d ns, want %d for %d transfers", got, bus, r+w)
			}

			moves := res.GCExternalMoves
			if tc.scheme == SchemeFAST && moves != res.MergeCopies {
				t.Errorf("%d GC writes, %d merge copies", moves, res.MergeCopies)
			}
			if gcR != moves || gcW != moves {
				t.Errorf("GC did %d reads and %d writes for %d external moves", gcR, gcW, moves)
			}
			nonGC := sim.Duration(r+w-gcR-gcW) * xfer
			if got, want := total(chans)-nonGC, 2*xfer*sim.Duration(moves); got != want {
				t.Errorf("GC channel time %d ns, want 2 × %d ns × %d moves", got, xfer, moves)
			}
			if tc.copyBack {
				if moves != 0 || gcCB == 0 {
					t.Errorf("copy-back run: %d external moves, %d GC copy-backs; want 0 and some", moves, gcCB)
				}
			} else if moves == 0 || gcCB != 0 {
				t.Errorf("external-move run: %d external moves, %d GC copy-backs; want some and 0", moves, gcCB)
			}
		})
	}
}

func total(ds []sim.Duration) (s sim.Duration) {
	for _, d := range ds {
		s += d
	}
	return s
}
