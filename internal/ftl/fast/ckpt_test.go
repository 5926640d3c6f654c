package fast

import (
	"bytes"
	"encoding/binary"
	"testing"

	"dloop/internal/ckpt"
	"dloop/internal/ftl"
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
	if len(f.logMap) < 3 || len(f.rwFull) == 0 || f.Stats().FullMerges == 0 {
		t.Fatalf("test setup: %d log pages, %d full RW blocks, %d full merges", len(f.logMap), len(f.rwFull), f.Stats().FullMerges)
	}
	return f
}

func stateBytes(f *FAST) []byte {
	var w ckpt.Writer
	f.EncodeState(&w)
	return w.Bytes()
}

// TestDecodeStateRoundTrip: a FAST state decodes into a fresh FAST and
// re-encodes to the same bytes, with every log-resident page where it was.
func TestDecodeStateRoundTrip(t *testing.T) {
	f := loggedFTL(t)
	data := stateBytes(f)
	g, _ := newTestFTL(t, 4)
	r := ckpt.NewReader(data)
	if g.DecodeState(r); r.Err() != nil {
		t.Fatal(r.Err())
	}
	if !bytes.Equal(stateBytes(g), data) {
		t.Fatal("re-encoding changed the bytes")
	}
	for lpn := ftl.LPN(0); lpn < f.capacity; lpn++ {
		if got, want := g.logPPN(lpn), f.logPPN(lpn); got != want {
			t.Fatalf("lpn %d logged at %d after decoding, want %d", lpn, got, want)
		}
	}
}

// TestDecodeStateCrafted damages the log blocks and the log map's pairs of a
// valid encoding and decodes it into a built FAST. Each must fail: the log
// blocks lie in the device, the pairs come in ascending LPN order, each LPN
// of the space and each page of a log block the state holds, and there are
// no more pairs than those blocks have pages.
func TestDecodeStateCrafted(t *testing.T) {
	f := loggedFTL(t)
	data := stateBytes(f)
	// The log map sits just before the engine's state and four counters.
	var tail ckpt.Writer
	f.engine.EncodeState(&tail)
	n := len(f.logMap)
	suffix := tail.Len() + 4*8
	start := len(data) - suffix - (4 + 16*n) // the pair count
	if got := binary.LittleEndian.Uint32(data[start:]); int(got) != n {
		t.Fatalf("test setup: pair count %d at offset %d, want %d", got, start, n)
	}
	pair := func(i int) int { return start + 4 + 16*i } // lpn, then ppn
	put := func(b []byte, off int, v int64) { binary.LittleEndian.PutUint64(b[off:], uint64(v)) }
	lpnOf := func(i int) int64 { return int64(binary.LittleEndian.Uint64(data[pair(i):])) }
	ppnOf := func(i int) int64 { return int64(binary.LittleEndian.Uint64(data[pair(i)+8:])) }
	ppb := f.geo.PagesPerBlock
	// A page of a data block: mapped, but in no log block.
	var dataPage int64 = -1
	for _, b := range f.dataBlock {
		if b >= 0 {
			dataPage = b * int64(ppb)
			break
		}
	}
	if dataPage < 0 {
		t.Fatal("test setup: no data block")
	}
	// The idle SW log block's plane: before it swNext, rwActive, the RW
	// block, rwNext and the full RW blocks' count and list.
	if f.swLBN >= 0 {
		t.Fatal("test setup: the SW log is in use")
	}
	swPlane := start - 16*len(f.rwFull) - 4 - 8 - 16 - 1 - 8 - 16
	// More pairs than the state's log blocks have pages, each well formed.
	logPages := f.LogBlocksInUse() * ppb
	overfull := append([]byte(nil), data[:start]...)
	overfull = binary.LittleEndian.AppendUint32(overfull, uint32(logPages+1))
	for lpn := 0; lpn <= logPages; lpn++ {
		overfull = binary.LittleEndian.AppendUint64(overfull, uint64(lpn))
		overfull = binary.LittleEndian.AppendUint64(overfull, uint64(ppnOf(0)))
	}
	overfull = append(overfull, data[len(data)-suffix:]...)

	for _, tc := range []struct {
		name   string
		damage func(b []byte) []byte
	}{
		{"pairs out of order", func(b []byte) []byte {
			put(b, pair(0), lpnOf(1))
			put(b, pair(1), lpnOf(0))
			return b
		}},
		{"pair duplicated", func(b []byte) []byte { put(b, pair(1), lpnOf(0)); return b }},
		{"lpn outside the space", func(b []byte) []byte { put(b, pair(n-1), int64(f.capacity)); return b }},
		{"ppn outside every log block", func(b []byte) []byte { put(b, pair(0)+8, dataPage); return b }},
		{"log block outside the device", func(b []byte) []byte { put(b, swPlane, int64(f.geo.Planes())); return b }},
		{"pair count beyond the log blocks", func([]byte) []byte { return overfull }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := tc.damage(append([]byte(nil), data...))
			g, _ := newTestFTL(t, 4)
			r := ckpt.NewReader(bad)
			if g.DecodeState(r); r.Err() == nil {
				t.Fatal("damaged state accepted")
			}
		})
	}
}
