package ssd

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dloop/internal/ckpt"
	"dloop/internal/flash"

	"dloop/internal/sim"
	"dloop/internal/trace"
)

// TestEncodedCheckpointRoundTrip is the codec acceptance test: for every FTL
// scheme, a warm-up checkpoint encoded to bytes and decoded into a separately
// built controller (a fresh process stand-in) must fork a run bit-identical
// to an uninterrupted fresh run — and re-encoding the decoded checkpoint must
// reproduce the original container byte for byte.
func TestEncodedCheckpointRoundTrip(t *testing.T) {
	schemes := []string{SchemeDLOOP, SchemeDFTL, SchemeFAST, SchemePureMap, SchemePureMapStriped}
	for _, scheme := range schemes {
		t.Run(scheme, func(t *testing.T) {
			fresh := buildTiny(t, scheme)
			preconditionTiny(t, fresh)
			w := tinyWorkload(t, fresh, 1500, 31)
			want, err := fresh.Run(trace.NewSliceReader(w))
			if err != nil {
				t.Fatal(err)
			}

			donor := buildTiny(t, scheme)
			preconditionTiny(t, donor)
			cp, err := donor.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			data, err := donor.EncodeCheckpoint(cp)
			if err != nil {
				t.Fatal(err)
			}
			again, err := donor.EncodeCheckpoint(cp)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, again) {
				t.Fatal("encoding the same checkpoint twice produced different bytes")
			}

			rec := buildTiny(t, scheme)
			cp2, err := rec.DecodeCheckpoint(data)
			if err != nil {
				t.Fatal(err)
			}
			reenc, err := rec.EncodeCheckpoint(cp2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, reenc) {
				t.Fatal("decode(encode(cp)) re-encoded to different bytes")
			}
			if err := rec.Restore(cp2); err != nil {
				t.Fatal(err)
			}
			got, err := rec.Run(trace.NewSliceReader(w))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("run forked from decoded checkpoint differs:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestEncodedCheckpointRoundTripMQ covers the multi-queue layout: per-shard
// device and FTL states round-trip through bytes.
func TestEncodedCheckpointRoundTripMQ(t *testing.T) {
	for _, scheme := range []string{SchemeDLOOP, SchemeFAST} {
		t.Run(scheme, func(t *testing.T) {
			cfg := mqConfig(scheme, tiny8Geometry(), 2)
			fresh := buildMQ(t, cfg)
			preconditionTiny(t, fresh)
			w := tinyWorkload(t, fresh, 1500, 33)
			want, err := fresh.Run(trace.NewSliceReader(w))
			if err != nil {
				t.Fatal(err)
			}

			donor := buildMQ(t, cfg)
			preconditionTiny(t, donor)
			cp, err := donor.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			data, err := donor.EncodeCheckpoint(cp)
			if err != nil {
				t.Fatal(err)
			}
			rec := buildMQ(t, cfg)
			cp2, err := rec.DecodeCheckpoint(data)
			if err != nil {
				t.Fatal(err)
			}
			if err := rec.Restore(cp2); err != nil {
				t.Fatal(err)
			}
			got, err := rec.Run(trace.NewSliceReader(w))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("MQ run forked from decoded checkpoint differs:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestEncodedCheckpointWithSeries reaches the controller state the plain
// round trip does not: the time series.
func TestEncodedCheckpointWithSeries(t *testing.T) {
	build := func() *Controller {
		c := buildTiny(t, SchemeDLOOP)
		if err := c.EnableTimeSeries(1 * sim.Second); err != nil {
			t.Fatal(err)
		}
		preconditionTiny(t, c)
		return c
	}
	donor := build()
	w := tinyWorkload(t, donor, 1500, 35)
	cp, err := donor.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := donor.EncodeCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	want, err := donor.Run(trace.NewSliceReader(w))
	if err != nil {
		t.Fatal(err)
	}
	rec := build()
	cp2, err := rec.DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Restore(cp2); err != nil {
		t.Fatal(err)
	}
	got, err := rec.Run(trace.NewSliceReader(w))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("run forked from decoded checkpoint differs:\n got %+v\nwant %+v", got, want)
	}
	if rec.TimeSeries().Buckets() != donor.TimeSeries().Buckets() {
		t.Fatalf("series buckets %d, want %d", rec.TimeSeries().Buckets(), donor.TimeSeries().Buckets())
	}
}

// TestDecodeCheckpointRejects feeds a valid container to the wrong
// controllers and damaged containers to the right one; every case must fail
// loudly instead of restoring corrupt state.
func TestDecodeCheckpointRejects(t *testing.T) {
	donor := buildTiny(t, SchemeDLOOP)
	preconditionTiny(t, donor)
	cp, err := donor.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := donor.EncodeCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}

	wrongScheme := buildTiny(t, SchemeDFTL)
	if _, err := wrongScheme.DecodeCheckpoint(data); err == nil ||
		!strings.Contains(err.Error(), "controller runs") {
		t.Fatalf("foreign-scheme checkpoint accepted: %v", err)
	}

	cfg := tinyConfig(SchemeDLOOP)
	cfg.CMTEntries = 128 // same scheme and geometry, different configuration
	wrongCfg, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(wrongCfg.Close)
	if _, err := wrongCfg.DecodeCheckpoint(data); err == nil ||
		!strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("foreign-config checkpoint accepted: %v", err)
	}

	if _, err := donor.DecodeCheckpoint(data[:len(data)-16]); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := donor.DecodeCheckpoint(flipped); err == nil {
		t.Fatal("bit-flipped checkpoint accepted")
	}
	bumped := append([]byte(nil), data...)
	bumped[4]++ // container format version
	if _, err := donor.DecodeCheckpoint(bumped); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Fatalf("future-version checkpoint accepted: %v", err)
	}
	// The original must still decode after all that.
	if _, err := donor.DecodeCheckpoint(data); err != nil {
		t.Fatal(err)
	}
}

// craftedDonor runs a short workload on a tiny DLOOP controller (leaving busy
// intervals on every timeline) and returns it with its encoded checkpoint and
// the offset of the device state inside it: after the container header and
// the checkpoint preamble.
func craftedDonor(t *testing.T) (donor *Controller, data []byte, device int) {
	t.Helper()
	donor = buildTiny(t, SchemeDLOOP)
	preconditionTiny(t, donor)
	if _, err := donor.Run(trace.NewSliceReader(tinyWorkload(t, donor, 400, 5))); err != nil {
		t.Fatal(err)
	}
	cp, err := donor.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err = donor.EncodeCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	w := ckpt.NewWriterSize(0)
	w.String(SchemeDLOOP)
	w.Raw(sha256.Size)
	encodeGeometry(w, donor.Geometry())
	w.Bool(false)
	return donor, data, w.Len()
}

// rejectCrafted damages a copy of a valid container, re-seals it (so magic,
// length and checksum all pass) and requires DecodeCheckpoint or Restore to
// return an error: no panic, and no allocation sized by a claimed count
// rather than by the bytes present.
func rejectCrafted(t *testing.T, donor *Controller, data []byte, damage func(b []byte)) {
	t.Helper()
	bad := append([]byte(nil), data...)
	damage(bad)
	bad = reseal(bad)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cp, err := donor.DecodeCheckpoint(bad)
	if err == nil {
		err = donor.Restore(cp)
	}
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("damaged container accepted")
	}
	// DecodeCheckpoint copies the container and Restore decodes into the
	// live columns; a slice sized by a crafted count is far past that.
	if got := after.TotalAlloc - before.TotalAlloc; got > 4*uint64(len(bad)) {
		t.Fatalf("allocated %d bytes rejecting a %d-byte container", got, len(bad))
	}
}

// reseal recomputes a damaged container's header so that only the decoder
// can reject it.
func reseal(data []byte) []byte {
	header := ckpt.NewWriterSize(0).Len()
	sealed := ckpt.NewWriterSize(0)
	copy(sealed.Raw(len(data)-header), data[header:])
	return sealed.Seal()
}

// TestDecodeCheckpointRejectsBufferState sets the retired DRAM write buffer's
// presence byte, which precedes the four trailing counters, and requires the
// typed error.
func TestDecodeCheckpointRejectsBufferState(t *testing.T) {
	donor, data, _ := craftedDonor(t)
	bad := append([]byte(nil), data...)
	off := len(bad) - 4*8 - 1
	if bad[off] != 0 {
		t.Fatalf("buffer presence byte is %d, want 0", bad[off])
	}
	bad[off] = 1
	cp, err := donor.DecodeCheckpoint(reseal(bad))
	if err == nil {
		err = donor.Restore(cp)
	}
	if !errors.Is(err, ErrBufferedCheckpoint) {
		t.Fatalf("got %v, want ErrBufferedCheckpoint", err)
	}
}

// deviceBytes encodes a device's state: twin devices compare by their bytes,
// which hold every field of the state.
func deviceBytes(d *flash.Device) []byte {
	var w ckpt.Writer
	d.EncodeState(&w)
	return w.Bytes()
}

func u32At(b []byte, off int) uint32 { return binary.LittleEndian.Uint32(b[off:]) }

func putU32At(b []byte, off int, v uint32) { binary.LittleEndian.PutUint32(b[off:], v) }

// TestDecodeCheckpointCraftedTimelines damages the resource timelines inside
// a valid container: counts the payload does not back, and intervals out of
// order.
func TestDecodeCheckpointCraftedTimelines(t *testing.T) {
	donor, data, device := craftedDonor(t)
	// The plane timelines follow the device's page, tag and block columns.
	geo := donor.Geometry()
	planes := device + (4 + int(geo.TotalPages())) + (4 + 8*int(geo.TotalPages())) + (4 + 20*int(geo.TotalBlocks()))
	if got := u32At(data, planes); got != uint32(geo.Planes()) {
		t.Fatalf("plane count at offset %d reads %d, want %d: the layout moved", planes, got, geo.Planes())
	}
	// The first plane whose timeline holds two intervals to swap: each state
	// is three i64, a count, then count (start, end) pairs.
	busy := planes + 4
	for u32At(data, busy+24) < 2 {
		busy += 28 + 16*int(u32At(data, busy+24))
	}

	for _, tc := range []struct {
		name   string
		damage func(b []byte)
	}{
		{"plane count beyond payload", func(b []byte) { putU32At(b, planes, 0xFFFFFFFF) }},
		{"interval count beyond payload", func(b []byte) { putU32At(b, planes+4+24, 1<<24) }},
		{"interval count beyond the window", func(b []byte) { putU32At(b, planes+4+24, 1000) }},
		{"intervals out of order", func(b []byte) {
			first, second := b[busy+28:busy+44], b[busy+44:busy+60]
			tmp := append([]byte(nil), first...)
			copy(first, second)
			copy(second, tmp)
		}},
		{"empty interval", func(b []byte) { copy(b[busy+36:busy+44], b[busy+28:busy+36]) }},
	} {
		t.Run(tc.name, func(t *testing.T) { rejectCrafted(t, donor, data, tc.damage) })
	}
}

// TestDecodeCheckpointCraftedBlocks damages the device's block bookkeeping
// and per-plane statistics columns: counts that would size a 160 GB slice,
// and rows whose counters contradict each other — the copy-back run updates
// them by deltas, so nothing downstream would notice.
func TestDecodeCheckpointCraftedBlocks(t *testing.T) {
	donor, data, device := craftedDonor(t)
	geo := donor.Geometry()
	blocks := device + (4 + int(geo.TotalPages())) + (4 + 8*int(geo.TotalPages()))
	if got := u32At(data, blocks); int64(got) != geo.TotalBlocks() {
		t.Fatalf("block count at offset %d reads %d, want %d: the layout moved", blocks, got, geo.TotalBlocks())
	}
	// The statistics follow the three timeline sets; their per-plane column
	// comes after numOps x numCauses (count, latency) pairs.
	planeOps := blocks + 4 + 20*int(geo.TotalBlocks())
	for set := 0; set < 3; set++ {
		n := int(u32At(data, planeOps))
		planeOps += 4
		for ; n > 0; n-- {
			planeOps += 28 + 16*int(u32At(data, planeOps+24))
		}
	}
	planeOps += 4 * 3 * 16
	if got := u32At(data, planeOps); got != uint32(geo.Planes()) {
		t.Fatalf("PlaneOps count at offset %d reads %d, want %d: the layout moved", planeOps, got, geo.Planes())
	}
	// A written block's row: Valid, Invalid, Written, Erases, NextWrite.
	row := blocks + 4
	for u32At(data, row+8) == 0 {
		row += 20
	}

	for _, tc := range []struct {
		name   string
		damage func(b []byte)
	}{
		{"block count beyond payload", func(b []byte) { putU32At(b, blocks, 0xFFFFFFFF) }},
		{"block count beyond geometry", func(b []byte) { putU32At(b, blocks, uint32(geo.TotalBlocks())+1) }},
		{"PlaneOps count beyond payload", func(b []byte) { putU32At(b, planeOps, 0xFFFFFFFF) }},
		{"negative valid count", func(b []byte) { putU32At(b, row, 0xFFFFFFFF) }},
		{"valid + invalid != written", func(b []byte) { putU32At(b, row+4, u32At(b, row+4)+1) }},
		{"written beyond high-water mark", func(b []byte) { putU32At(b, row+16, u32At(b, row+8)-1) }},
		{"high-water mark beyond block", func(b []byte) { putU32At(b, row+16, uint32(geo.PagesPerBlock)+1) }},
		{"negative erase count", func(b []byte) { putU32At(b, row+12, 0x80000000) }},
	} {
		t.Run(tc.name, func(t *testing.T) { rejectCrafted(t, donor, data, tc.damage) })
	}
}

// TestCheckpointBytesStable pins the encoded bytes of one small warmed
// checkpoint per scheme (and DLOOP under the learned translation policy, the
// only state holding learned segments). The in-memory columns are free to
// change shape; the container format is not, because the warm-up cache keys
// and the ckpt format version promise that a file written before such a
// change still decodes after it.
func TestCheckpointBytesStable(t *testing.T) {
	for _, tc := range []struct {
		scheme, policy, sha string
	}{
		{SchemeDLOOP, "", "08a8584f96b3686302e8a9d66ee08dcb873a5628feefe3ca3e5185fe5d1b83eb"},
		{SchemeDLOOP, "learned", "51dec49c193dbbd3daf906152b710b57db1d95686268d2fa088579fc93c01fad"},
		{SchemeDFTL, "", "87afb23d868ab8ba50dc6651e23f0196d0494c2c6f1f6a8773525e7d94d59f74"},
		{SchemeFAST, "", "04490d025dd54203a801bba3da418bff58aa6b3e71ffe0a5b69c315a175b65a1"},
		{SchemePureMap, "", "fa005f273f7dc59d1016541e15efe800f0f260d36957b72c5b804c9092a0d6e1"},
		{SchemePureMapStriped, "", "52869bce67532b715984fb63990a04ae542342a87f154c8945854e2ea2a3345c"},
	} {
		name := tc.scheme
		if tc.policy != "" {
			name += "-" + tc.policy
		}
		t.Run(name, func(t *testing.T) {
			cfg := tinyConfig(tc.scheme)
			cfg.TranslatePolicy = tc.policy
			c, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			preconditionTiny(t, c)
			if _, err := c.Run(trace.NewSliceReader(tinyWorkload(t, c, 600, 9))); err != nil {
				t.Fatal(err)
			}
			cp, err := c.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			data, err := c.EncodeCheckpoint(cp)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != tc.sha {
				t.Fatalf("checkpoint of %d bytes hashes to %s, want %s: the encoding changed", len(data), got, tc.sha)
			}
		})
	}
}

// TestDecodeFTLStateCountSweep overwrites every 4-byte window of each
// scheme's encoded FTL state with 0xFFFFFFFF — at some offset that is each
// count the state holds — and decodes it into the built FTL. No decode may
// panic or allocate more than a small multiple of the bytes it was given:
// every count is checked against the bytes left and the live shape before it
// sizes or writes anything.
func TestDecodeFTLStateCountSweep(t *testing.T) {
	for _, scheme := range []string{SchemeDLOOP, SchemeDFTL, SchemeFAST, SchemePureMap, SchemePureMapStriped} {
		t.Run(scheme, func(t *testing.T) {
			c, err := Build(tinyConfig(scheme))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			preconditionTiny(t, c)
			if _, err := c.Run(trace.NewSliceReader(tinyWorkload(t, c, 300, 3))); err != nil {
				t.Fatal(err)
			}
			var w ckpt.Writer
			c.FTL().EncodeState(&w)
			data := w.Bytes()
			bad := make([]byte, len(data))
			const batch = 32 // offsets per heap reading; one count-sized slice is gigabytes
			for first := 0; first+4 <= len(data); first += batch {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for off := first; off < first+batch && off+4 <= len(data); off++ {
					copy(bad, data)
					putU32At(bad, off, 0xFFFFFFFF)
					c.FTL().DecodeState(ckpt.NewReader(bad))
				}
				runtime.ReadMemStats(&after)
				if got := after.TotalAlloc - before.TotalAlloc; got > batch*(4*uint64(len(bad))+4096) {
					t.Fatalf("count 0xFFFFFFFF at offsets %d..%d: allocated %d bytes decoding %d-byte states",
						first, first+batch-1, got, len(bad))
				}
			}
		})
	}
}

// benchCheckpoint builds one preconditioned paper-shape controller and its
// snapshot for the codec benchmarks.
func benchCheckpoint(b *testing.B) (*Controller, *Checkpoint) {
	b.Helper()
	cfg := tinyConfig(SchemeDLOOP)
	c, err := Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	capBytes := int64(c.Capacity()) * int64(c.Geometry().PageSize)
	if err := c.PreconditionBytes(capBytes * 3 / 4); err != nil {
		b.Fatal(err)
	}
	cp, err := c.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	return c, cp
}

// BenchmarkCheckpointEncode times Snapshot, which encodes the live state.
func BenchmarkCheckpointEncode(b *testing.B) {
	c, cp := benchCheckpoint(b)
	b.SetBytes(int64(len(cp.data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointDecode times a cache hit: DecodeCheckpoint checks and
// copies the container, Restore decodes it into the live state.
func BenchmarkCheckpointDecode(b *testing.B) {
	c, cp := benchCheckpoint(b)
	b.SetBytes(int64(len(cp.data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp, err := c.DecodeCheckpoint(cp.data)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Restore(cp); err != nil {
			b.Fatal(err)
		}
	}
}
