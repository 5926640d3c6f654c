package flash

import (
	"errors"
	"reflect"
	"testing"
)

// TestUntimedChangesStateOnly runs one op script on a timed device and,
// under Untimed, on a second one. Page, tag and block state (wear included)
// and every error must agree; the untimed device must record no operation,
// leave its timelines idle, and complete every operation at its ready time.
// Untimed must return fn's error and leave the device timed again.
func TestUntimedChangesStateOnly(t *testing.T) {
	script := func(d *Device, check func(end, ready int64)) error {
		g := d.Geometry()
		for p := 0; p < 4; p++ { // fill block 0 of plane 0
			end, err := d.WritePage(g.PPNOf(0, 0, p), int64(100+p), 7, CauseHost)
			if err != nil {
				return err
			}
			check(int64(end), 7)
		}
		end, err := d.ReadPage(g.PPNOf(0, 0, 1), 9, CauseHost)
		if err != nil {
			return err
		}
		check(int64(end), 9)
		srcs := []PPN{g.PPNOf(0, 0, 0), g.PPNOf(0, 0, 1), g.PPNOf(0, 0, 2)}
		dsts := []PPN{g.PPNOf(0, 1, 0), g.PPNOf(0, 1, 1), g.PPNOf(0, 1, 2)}
		if end, err = d.CopyBackRun(srcs, dsts, 11, CauseGC); err != nil {
			return err
		}
		check(int64(end), 11)
		if end, err = d.MoveExternal(g.PPNOf(0, 0, 3), g.PPNOf(1, 0, 0), 13, CauseGC); err != nil {
			return err
		}
		check(int64(end), 13)
		if end, err = d.Erase(PlaneBlock{0, 0}, 17, CauseGC); err != nil {
			return err
		}
		check(int64(end), 17)
		if err = d.Invalidate(g.PPNOf(0, 1, 2)); err != nil {
			return err
		}
		// A refused op fails the same way on both devices.
		_, err = d.CopyBackRun([]PPN{g.PPNOf(0, 1, 0)}, []PPN{g.PPNOf(0, 1, 3)}, 19, CauseGC)
		return err
	}

	timed, untimed := newTestDevice(t), newTestDevice(t)
	wantErr := script(timed, func(end, ready int64) {
		if end <= ready {
			t.Fatalf("timed op ended at %d, ready %d", end, ready)
		}
	})
	if !errors.Is(wantErr, ErrParity) {
		t.Fatalf("script error %v, want ErrParity", wantErr)
	}
	gotErr := Untimed([]*Device{untimed}, func() error {
		return script(untimed, func(end, ready int64) {
			if end != ready {
				t.Fatalf("untimed op ended at %d, want its ready time %d", end, ready)
			}
		})
	})
	if gotErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("untimed error %v, want %v", gotErr, wantErr)
	}
	if !reflect.DeepEqual(untimed.pages, timed.pages) || !reflect.DeepEqual(untimed.blocks, timed.blocks) {
		t.Fatal("untimed page or block state differs from the timed run")
	}
	st := untimed.Stats()
	if st.Reads()+st.Writes()+st.CopyBacks()+st.Erases() != 0 {
		t.Fatalf("untimed device counted ops: %+v", st)
	}
	if !reflect.DeepEqual(untimed.BlockErases(), timed.BlockErases()) {
		t.Fatal("untimed device lost block wear")
	}
	for p := 0; p < untimed.Geometry().Planes(); p++ {
		if at := untimed.PlaneFreeAt(p); at != 0 {
			t.Fatalf("plane %d busy until %v after an untimed script", p, at)
		}
	}
	g := untimed.Geometry()
	if end, err := untimed.WritePage(g.PPNOf(2, 0, 0), 1, 0, CauseHost); err != nil || end == 0 {
		t.Fatalf("write after Untimed returned = %v, %v; want a timed completion", end, err)
	}
}
