package ssd

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"dloop/internal/ckpt"
	"dloop/internal/flash"
	"dloop/internal/trace"
)

// fuzzCell is one configuration FuzzDecodeCheckpoint decodes into, with a
// checkpoint it took itself to heal from.
type fuzzCell struct {
	c    *Controller
	good *Checkpoint
}

// newFuzzCell builds cfg, warms it the way TestCheckpointBytesStable does
// (precondition, then 600 requests), and checkpoints it.
func newFuzzCell(tb testing.TB, cfg Config) fuzzCell {
	tb.Helper()
	c, err := Build(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Close)
	preconditionTiny(tb, c)
	if _, err := c.Run(trace.NewSliceReader(tinyWorkload(tb, c, 600, 9))); err != nil {
		tb.Fatal(err)
	}
	cp, err := c.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	return fuzzCell{c: c, good: cp}
}

// decodeRestore is DecodeCheckpoint followed, when it accepts, by Restore.
// It reports the bytes both allocated (the smallest of three readings when
// over the bound: the heap counters are process-wide, and a fuzzing worker's
// own goroutines allocate too), whether Restore ran, and the error.
func decodeRestore(c *Controller, data []byte) (alloc uint64, restored bool, err error) {
	for try := 0; try < 3 && (try == 0 || alloc > allocBound(len(data))); try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var cp *Checkpoint
		if cp, err = c.DecodeCheckpoint(data); err == nil {
			restored, err = true, c.Restore(cp)
		}
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; try == 0 || n < alloc {
			alloc = n
		}
	}
	return alloc, restored, err
}

// allocBound is what decoding and restoring n bytes may allocate: the copy
// DecodeCheckpoint keeps, the measurement accumulators Restore rebuilds, and
// the error; a slice sized by a count the bytes do not back is far past it.
func allocBound(n int) uint64 { return 4*uint64(n) + 4096 }

// taglessValidPage returns a single-shard controller's checkpoint data,
// resealed, with the OOB tag of its first valid page cleared to -1: a page
// no device produces, whose first relocation would hand -1 to a redirect.
func taglessValidPage(tb testing.TB, c *Controller, data []byte) []byte {
	tb.Helper()
	w := ckpt.NewWriterSize(0)
	w.String(c.cfg.FTL)
	w.Raw(sha256.Size)
	encodeGeometry(w, c.Geometry())
	w.Bool(false)
	n := int(c.Geometry().TotalPages())
	states := w.Len() + 4
	if got := u32At(data, states-4); got != uint32(n) {
		tb.Fatalf("page count at offset %d reads %d, want %d: the layout moved", states-4, got, n)
	}
	p := bytes.IndexByte(data[states:states+n], byte(flash.PageValid))
	if p < 0 {
		tb.Fatal("the checkpoint holds no valid page")
	}
	bad := bytes.Clone(data)
	binary.LittleEndian.PutUint64(bad[states+n+4+8*p:], ^uint64(0))
	bad = reseal(bad)
	cp, err := c.DecodeCheckpoint(bad)
	if err == nil {
		err = c.Restore(cp)
	}
	if !errors.Is(err, flash.ErrPageTag) {
		tb.Fatalf("restoring a valid page without a tag: %v, want flash.ErrPageTag", err)
	}
	if cp, err = c.DecodeCheckpoint(data); err == nil {
		err = c.Restore(cp)
	}
	if err != nil {
		tb.Fatal(err)
	}
	return bad
}

// FuzzDecodeCheckpoint feeds arbitrary bytes to DecodeCheckpoint and, when it
// accepts them, to Restore, on a controller of each seed's configuration.
// Neither may panic or allocate more than the bytes given back. A Restore
// that fails leaves the controller refusing EnqueueBatch, Run, Snapshot and
// Result with that error until a later Restore succeeds; a DecodeCheckpoint
// that fails leaves it untouched.
func FuzzDecodeCheckpoint(f *testing.F) {
	var cells []fuzzCell
	for _, tc := range []struct{ scheme, policy string }{
		{SchemeDLOOP, ""}, {SchemeDLOOP, "learned"}, {SchemeDFTL, ""},
		{SchemeFAST, ""}, {SchemePureMap, ""}, {SchemePureMapStriped, ""},
	} {
		cfg := tinyConfig(tc.scheme)
		cfg.TranslatePolicy = tc.policy
		cells = append(cells, newFuzzCell(f, cfg))
	}
	cells = append(cells, newFuzzCell(f, mqConfig(SchemeDLOOP, tiny8Geometry(), 2)))
	for i, cell := range cells {
		data, err := cell.c.EncodeCheckpoint(cell.good)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		if i == 0 {
			f.Add(taglessValidPage(f, cell.c, data))
		}
	}
	probe := trace.Request{Arrival: 0, LBN: 0, Sectors: 4, Op: trace.OpWrite}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, cell := range cells {
			c := cell.c
			alloc, restored, err := decodeRestore(c, data)
			if alloc > allocBound(len(data)) {
				t.Fatalf("%s: allocated %d bytes decoding %d", c.cfg.FTL, alloc, len(data))
			}
			if err == nil {
				if c.Err() != nil {
					t.Fatalf("%s: Restore succeeded but the controller refuses: %v", c.cfg.FTL, c.Err())
				}
				continue
			}
			if !restored {
				if c.Err() != nil {
					t.Fatalf("%s: rejected bytes broke the controller: %v", c.cfg.FTL, c.Err())
				}
				continue
			}
			if !errors.Is(c.Err(), err) || !errors.Is(c.EnqueueBatch([]trace.Request{probe}), err) {
				t.Fatalf("%s: after a failed Restore (%v), Err %v", c.cfg.FTL, err, c.Err())
			}
			if _, rerr := c.Run(trace.NewSliceReader(nil)); !errors.Is(rerr, err) {
				t.Fatalf("%s: Run after a failed Restore: %v", c.cfg.FTL, rerr)
			}
			if _, serr := c.Snapshot(); !errors.Is(serr, err) {
				t.Fatalf("%s: Snapshot after a failed Restore: %v", c.cfg.FTL, serr)
			}
			if res := c.Result(); !reflect.DeepEqual(res, Result{}) {
				t.Fatalf("%s: Result after a failed Restore: %+v", c.cfg.FTL, res)
			}
			if err := c.Restore(cell.good); err != nil || c.Err() != nil {
				t.Fatalf("%s: Restore of a good checkpoint did not heal: %v", c.cfg.FTL, err)
			}
		}
	})
}

// TestCheckpointOwnsItsBytes decodes a checkpoint from a buffer, overwrites
// the buffer (as the warm-up cache does when it recycles a file buffer), and
// restores the checkpoint into two different controllers, one of them run on
// past the warm-up. Both must run bit-identically to a fork of the original
// checkpoint, and writing into the bytes EncodeCheckpoint returns must not
// reach the checkpoint either.
func TestCheckpointOwnsItsBytes(t *testing.T) {
	donor := buildTiny(t, SchemeDLOOP)
	preconditionTiny(t, donor)
	cp, err := donor.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	w := tinyWorkload(t, donor, 1500, 41)
	want, err := donor.Run(trace.NewSliceReader(w))
	if err != nil {
		t.Fatal(err)
	}

	buf, err := donor.EncodeCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := donor.DecodeCheckpoint(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xA5
	}
	again, err := donor.EncodeCheckpoint(decoded)
	if err != nil {
		t.Fatal(err)
	}
	for i := range again {
		again[i] = 0x5A
	}

	diverged := buildTiny(t, SchemeDLOOP)
	preconditionTiny(t, diverged)
	if _, err := diverged.Run(trace.NewSliceReader(tinyWorkload(t, diverged, 700, 43))); err != nil {
		t.Fatal(err)
	}
	for i, c := range []*Controller{buildTiny(t, SchemeDLOOP), diverged} {
		if err := c.Restore(decoded); err != nil {
			t.Fatalf("controller %d: %v", i, err)
		}
		got, err := c.Run(trace.NewSliceReader(w))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("controller %d: run from the decoded checkpoint differs:\n got %+v\nwant %+v", i, got, want)
		}
	}
}
