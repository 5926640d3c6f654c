package ssd

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dloop/internal/ckpt"
	"dloop/internal/sim"
	"dloop/internal/trace"
)

// TestEncodedCheckpointRoundTrip is the codec acceptance test: for every FTL
// scheme, a warm-up checkpoint encoded to bytes and decoded into a separately
// built controller (a fresh process stand-in) must fork a run bit-identical
// to an uninterrupted fresh run — and re-encoding the decoded checkpoint must
// reproduce the original container byte for byte.
func TestEncodedCheckpointRoundTrip(t *testing.T) {
	schemes := []string{SchemeDLOOP, SchemeDFTL, SchemeFAST, SchemeBAST,
		SchemePureMap, SchemePureMapStriped}
	for _, scheme := range schemes {
		t.Run(scheme, func(t *testing.T) {
			fresh := buildTinyShards(t, scheme, 0)
			preconditionTiny(t, fresh)
			w := tinyWorkload(t, fresh, 1500, 31)
			want, err := fresh.Run(trace.NewSliceReader(w))
			if err != nil {
				t.Fatal(err)
			}

			donor := buildTinyShards(t, scheme, 0)
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

			rec := buildTinyShards(t, scheme, 0)
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
// device states, FTL states, and accumulators all round-trip through bytes.
func TestEncodedCheckpointRoundTripMQ(t *testing.T) {
	for _, scheme := range []string{SchemeDLOOP, SchemeFAST} {
		t.Run(scheme, func(t *testing.T) {
			cfg := mqConfig(scheme, tiny8Geometry(), 2, "")
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

// TestEncodedCheckpointWithBufferAndSeries reaches the controller state the
// plain round trip does not: the DRAM write buffer and the time series.
func TestEncodedCheckpointWithBufferAndSeries(t *testing.T) {
	build := func() *Controller {
		cfg := tinyConfig(SchemeDLOOP)
		cfg.BufferPages = 16
		c, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
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
		t.Fatalf("buffered run forked from decoded checkpoint differs:\n got %+v\nwant %+v", got, want)
	}
	if rec.TimeSeries().Buckets() != donor.TimeSeries().Buckets() {
		t.Fatalf("series buckets %d, want %d", rec.TimeSeries().Buckets(), donor.TimeSeries().Buckets())
	}
}

// TestDecodeCheckpointRejects feeds a valid container to the wrong
// controllers and damaged containers to the right one; every case must fail
// loudly instead of restoring corrupt state.
func TestDecodeCheckpointRejects(t *testing.T) {
	donor := buildTinyShards(t, SchemeDLOOP, 0)
	preconditionTiny(t, donor)
	cp, err := donor.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := donor.EncodeCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}

	wrongScheme := buildTinyShards(t, SchemeDFTL, 0)
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

// TestDecodeCheckpointCraftedTimelines re-seals a valid container (so magic,
// length and checksum all pass) after damaging the resource timelines inside
// it: counts the payload does not back, and intervals out of order. The
// decoder must return an error — no panic, and no allocation sized by a
// claimed count rather than by the bytes present.
func TestDecodeCheckpointCraftedTimelines(t *testing.T) {
	donor := buildTinyShards(t, SchemeDLOOP, 0)
	preconditionTiny(t, donor)
	if _, err := donor.Run(trace.NewSliceReader(tinyWorkload(t, donor, 400, 5))); err != nil {
		t.Fatal(err) // leaves busy intervals on every timeline
	}
	cp, err := donor.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := donor.EncodeCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}

	// Where the plane timelines start: after the container header, the
	// checkpoint preamble, and the device's page, tag and block columns.
	geo := donor.Geometry()
	w := ckpt.NewWriter()
	w.String(SchemeDLOOP)
	w.Raw(sha256.Size)
	encodeGeometry(w, geo)
	w.Bool(false)
	header, preamble := ckpt.NewWriter().Len(), w.Len()
	planes := preamble + (4 + int(geo.TotalPages())) + (4 + 8*int(geo.TotalPages())) + (4 + 20*int(geo.TotalBlocks()))
	u32 := func(b []byte, off int) uint32 { return binary.LittleEndian.Uint32(b[off:]) }
	if got := u32(data, planes); got != uint32(geo.Planes()) {
		t.Fatalf("plane count at offset %d reads %d, want %d: the layout moved", planes, got, geo.Planes())
	}
	// The first plane whose timeline holds two intervals to swap: each state
	// is three i64, a count, then count (start, end) pairs.
	busy := planes + 4
	for u32(data, busy+24) < 2 {
		busy += 28 + 16*int(u32(data, busy+24))
	}

	for _, tc := range []struct {
		name   string
		damage func(b []byte)
	}{
		{"plane count beyond payload", func(b []byte) { binary.LittleEndian.PutUint32(b[planes:], 0xFFFFFFFF) }},
		{"interval count beyond payload", func(b []byte) { binary.LittleEndian.PutUint32(b[planes+4+24:], 1<<24) }},
		{"interval count beyond the window", func(b []byte) { binary.LittleEndian.PutUint32(b[planes+4+24:], 1000) }},
		{"intervals out of order", func(b []byte) {
			first, second := b[busy+28:busy+44], b[busy+44:busy+60]
			tmp := append([]byte(nil), first...)
			copy(first, second)
			copy(second, tmp)
		}},
		{"empty interval", func(b []byte) { copy(b[busy+36:busy+44], b[busy+28:busy+36]) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := append([]byte(nil), data...)
			tc.damage(bad)
			sealed := ckpt.NewWriter()
			copy(sealed.Raw(len(bad)-header), bad[header:])
			bad = sealed.Seal()

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := donor.DecodeCheckpoint(bad)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("damaged timeline accepted")
			}
			// A healthy decode allocates the in-memory columns, about twice
			// their encoding; a slice sized by a crafted count is far past that.
			if got := after.TotalAlloc - before.TotalAlloc; got > 4*uint64(len(bad)) {
				t.Fatalf("allocated %d bytes rejecting a %d-byte container", got, len(bad))
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

func BenchmarkCheckpointEncode(b *testing.B) {
	c, cp := benchCheckpoint(b)
	data, err := c.EncodeCheckpoint(cp)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := ckpt.NewWriter()
		if _, err := c.AppendCheckpoint(w, cp); err != nil {
			b.Fatal(err)
		}
		ckpt.PutWriter(w)
	}
}

func BenchmarkCheckpointDecode(b *testing.B) {
	c, cp := benchCheckpoint(b)
	data, err := c.EncodeCheckpoint(cp)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.DecodeCheckpoint(data); err != nil {
			b.Fatal(err)
		}
	}
}
