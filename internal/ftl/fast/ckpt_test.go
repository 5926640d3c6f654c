package fast

import (
	"bytes"
	"encoding/binary"
	"slices"
	"strings"
	"testing"

	"dloop/internal/ckpt"
	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/obs"
	"dloop/internal/sim"
)

// loggedFTL returns a FAST whose log map holds pages of several log blocks:
// a spread of first writes, then updates at non-zero offsets that fill the
// RW log and run full merges.
func loggedFTL(t *testing.T) *FAST {
	t.Helper()
	f, _ := newTestFTL(t, 4)
	var at sim.Time
	write := func(lpn ftl.LPN) {
		end, err := f.WritePage(lpn, at)
		if err != nil {
			t.Fatal(err)
		}
		at = end
	}
	for lpn := ftl.LPN(0); lpn < 96; lpn++ {
		write(lpn)
	}
	for i := 0; i < 150; i++ {
		write(ftl.LPN((i*7)%96 | 1))
	}
	if f.logMap.n < 3 || len(f.rwFull) == 0 || f.Counts()[obs.EvFullMerge] == 0 {
		t.Fatalf("test setup: %d log pages, %d full RW blocks, %d full merges", f.logMap.n, len(f.rwFull), f.Counts()[obs.EvFullMerge])
	}
	return f
}

// stateBytes encodes a FAST's device and then the FAST, as a checkpoint
// does: the FAST's decoder rebuilds its log map from the decoded pages.
func stateBytes(f *FAST) []byte {
	var w ckpt.Writer
	f.dev.EncodeState(&w)
	f.EncodeState(&w)
	return w.Bytes()
}

// decodeState decodes what stateBytes wrote into f's device and f.
func decodeState(f *FAST, data []byte) error {
	r := ckpt.NewReader(data)
	f.dev.DecodeState(r)
	f.DecodeState(r)
	return r.Err()
}

// TestDecodeStateRoundTrip: a FAST state decodes into a fresh FAST and
// re-encodes to the same bytes, with every log-resident page where it was.
func TestDecodeStateRoundTrip(t *testing.T) {
	f := loggedFTL(t)
	data := stateBytes(f)
	g, _ := newTestFTL(t, 4)
	if err := decodeState(g, data); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stateBytes(g), data) {
		t.Fatal("re-encoding changed the bytes")
	}
	if g.logMap.n != f.logMap.n {
		t.Fatalf("decoded log map holds %d pages, want %d", g.logMap.n, f.logMap.n)
	}
	for lpn := ftl.LPN(0); lpn < f.capacity; lpn++ {
		if got, want := g.logPPN(lpn), f.logPPN(lpn); got != want {
			t.Fatalf("lpn %d logged at %d after decoding, want %d", lpn, got, want)
		}
	}
}

// TestDecodeStateCrafted damages a valid encoding and decodes it into a
// built FAST. Each must fail: the block map names blocks of the device, the
// SW log's logical block lies in the space, the log blocks lie on the
// device, and the log map rebuilt from their valid pages holds LPNs of the
// space, each in one log page.
func TestDecodeStateCrafted(t *testing.T) {
	f := loggedFTL(t)
	data := stateBytes(f)
	var w ckpt.Writer
	f.dev.EncodeState(&w)
	f.pool.EncodeState(&w)
	blockMap := w.Len() // the block map's count, then an int64 per logical block
	swLBN := blockMap + 4 + 8*len(f.dataBlock)
	swPlane := swLBN + 8
	if got := binary.LittleEndian.Uint32(data[blockMap:]); int(got) != len(f.dataBlock) {
		t.Fatalf("test setup: block map count %d at offset %d, want %d", got, blockMap, len(f.dataBlock))
	}
	if f.swLBN >= 0 {
		t.Fatal("test setup: the SW log is in use")
	}
	// Valid pages of two log blocks; a page's OOB tag is at tags+8*ppn.
	n := int(f.geo.TotalPages())
	tags := 4 + n + 4
	var logPages [][]flash.PPN
	for _, pb := range slices.Concat(f.rwFull, []flash.PlaneBlock{f.rwBlock}) {
		var valid []flash.PPN
		for p := f.geo.FirstPPN(pb); p < f.geo.FirstPPN(pb)+flash.PPN(f.geo.PagesPerBlock); p++ {
			if f.dev.PageState(p) == flash.PageValid {
				valid = append(valid, p)
			}
		}
		if len(valid) > 0 {
			logPages = append(logPages, valid)
		}
	}
	if len(logPages) < 2 {
		t.Fatalf("test setup: %d log blocks hold valid pages", len(logPages))
	}
	a, b := logPages[0][0], logPages[1][0]
	put := func(buf []byte, off int, v int64) { binary.LittleEndian.PutUint64(buf[off:], uint64(v)) }

	for _, tc := range []struct {
		name, want string
		damage     func(b []byte)
	}{
		{"logical block mapped off the device", "mapped to block", func(buf []byte) { put(buf, blockMap+4, f.geo.TotalBlocks()) }},
		{"SW log of a logical block beyond the space", "SW log of logical block", func(buf []byte) { put(buf, swLBN, int64(len(f.dataBlock))) }},
		{"log block outside the device", "outside the device", func(buf []byte) { put(buf, swPlane, int64(f.geo.Planes())) }},
		{"lpn outside the space", "outside exported capacity", func(buf []byte) { put(buf, tags+8*int(a), int64(f.capacity)) }},
		{"lpn valid in two log blocks", "valid in log pages", func(buf []byte) { put(buf, tags+8*int(b), f.dev.PageLPN(a)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := bytes.Clone(data)
			tc.damage(bad)
			g, _ := newTestFTL(t, 4)
			if err := decodeState(g, bad); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("decode error %v, want one saying %q", err, tc.want)
			}
		})
	}
}
