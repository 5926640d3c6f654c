package flash

import (
	"testing"

	"dloop/internal/obs"
	"dloop/internal/sim"
)

// countingRecorder tallies RecordOp calls by "kind/cause" and keeps every op
// for timestamp checks; the other Recorder methods are no-ops.
type countingRecorder struct {
	ops  map[string]int64
	seen []obs.Op
}

func (r *countingRecorder) RecordOp(op obs.Op) {
	if r.ops == nil {
		r.ops = map[string]int64{}
	}
	r.ops[op.Kind.String()+"/"+op.Cause.String()]++
	r.seen = append(r.seen, op)
}
func (r *countingRecorder) RecordSpan(obs.SpanKind, int32, sim.Time, sim.Time) {}
func (r *countingRecorder) RecordRequest(bool, sim.Time, sim.Time)             {}

// The device converts flash.Cause to obs.Cause by value and maps its internal
// opKind onto obs.OpKind positionally, so the enums must stay numerically
// aligned. This pins the correspondence.
func TestObsConstantsMirrorFlash(t *testing.T) {
	causes := []struct {
		f Cause
		o obs.Cause
	}{
		{CauseHost, obs.CauseHost},
		{CauseGC, obs.CauseGC},
		{CauseMap, obs.CauseMap},
	}
	for _, c := range causes {
		if uint8(c.f) != uint8(c.o) {
			t.Errorf("flash.%v = %d but obs.%v = %d", c.f, uint8(c.f), c.o, uint8(c.o))
		}
		if c.f.String() != c.o.String() {
			t.Errorf("cause name mismatch: flash %q vs obs %q", c.f, c.o)
		}
	}
	if uint8(numCauses) != uint8(obs.NumCauses) {
		t.Errorf("flash has %d causes, obs has %d", numCauses, obs.NumCauses)
	}
	ops := []struct {
		f opKind
		o obs.OpKind
	}{
		{opRead, obs.OpRead},
		{opWrite, obs.OpWrite},
		{opCopyBack, obs.OpCopyBack},
		{opErase, obs.OpErase},
	}
	for _, op := range ops {
		if uint8(op.f) != uint8(op.o) {
			t.Errorf("flash opKind %d != obs.%v (%d)", uint8(op.f), op.o, uint8(op.o))
		}
	}
	if uint8(numOps) != uint8(obs.NumOpKinds) {
		t.Errorf("flash has %d op kinds, obs has %d", numOps, obs.NumOpKinds)
	}
}

// RecordOp must see every operation the device's own stats count, with
// matching attribution.
func TestDeviceRecorderSeesEveryOp(t *testing.T) {
	d := newTestDevice(t)
	rec := &countingRecorder{}
	d.SetRecorder(rec)

	var at sim.Time
	mustOp := func(end sim.Time, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		at = end
	}
	mustOp(d.WritePage(0, 7, at, CauseHost))
	mustOp(d.WritePage(2, 9, at, CauseGC))
	mustOp(d.ReadPage(0, at, CauseMap))
	mustOp(d.CopyBack(0, 4, at, CauseGC))
	mustOp(d.Erase(PlaneBlock{Plane: 1, Block: 0}, at, CauseGC))

	want := map[string]int64{
		"write/host": 1, "write/gc": 1, "read/map": 1, "copyback/gc": 1, "erase/gc": 1,
	}
	if len(rec.ops) != len(want) {
		t.Fatalf("recorded ops %v, want keys %v", rec.ops, want)
	}
	for k, n := range want {
		if rec.ops[k] != n {
			t.Errorf("recorded %q %d times, want %d", k, rec.ops[k], n)
		}
	}
	for _, op := range rec.seen {
		if op.Start < op.Ready || op.End < op.Start {
			t.Errorf("op %v/%v timestamps out of order: ready %d start %d end %d",
				op.Kind, op.Cause, op.Ready, op.Start, op.End)
		}
		if want := int32(d.Geometry().ChannelOfPlane(int(op.Plane))); op.Channel != want {
			t.Errorf("op on plane %d reported channel %d, want %d", op.Plane, op.Channel, want)
		}
	}
}
