package fast

import (
	"testing"

	"dloop/internal/flash"
	"dloop/internal/ftl"
)

// FuzzLogTable drives a logTable and a map through the same stream of
// operations, two bytes each: the first picks the operation (low two bits:
// drop, lookup, or set to the ppn the rest of the byte gives) and the second
// the LPN. A table sized for two entries holds at most 8 slots before it
// grows, and 64 LPNs collide often, so probe runs wrap around the table's
// end and deletions shift entries back. Every lookup must agree with the
// map, and after every operation the entry count must equal the map's and
// every mapped LPN must be found.
func FuzzLogTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 6, 1, 10, 2, 1, 1, 0, 0, 1, 1, 0, 1, 1, 2})
	var seq []byte
	for i := 0; i < 40; i++ {
		seq = append(seq, byte(4*i+2), byte(i*37)) // sets, growing the table
	}
	for i := 0; i < 40; i++ {
		seq = append(seq, 0, byte(i*37), 1, byte(i*37+37)) // drops, each checked
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, err := newLogTable(2)
		if err != nil {
			t.Fatal(err)
		}
		defer tab.release()
		ref := map[ftl.LPN]flash.PPN{}
		for ; len(data) >= 2; data = data[2:] {
			op, lpn := data[0], ftl.LPN(data[1]&63)
			switch op & 3 {
			case 0:
				tab.drop(lpn)
				delete(ref, lpn)
			case 1:
				want, ok := ref[lpn]
				if !ok {
					want = flash.InvalidPPN
				}
				if got := tab.get(lpn); got != want {
					t.Fatalf("get(%d) = %d, want %d", lpn, got, want)
				}
			default:
				ppn := flash.PPN(op >> 2)
				if err := tab.set(lpn, ppn); err != nil {
					t.Fatal(err)
				}
				ref[lpn] = ppn
			}
			if tab.n != len(ref) {
				t.Fatalf("table holds %d entries, map %d", tab.n, len(ref))
			}
			for l, want := range ref {
				if got := tab.get(l); got != want {
					t.Fatalf("lpn %d at %d in the table, %d in the map", l, got, want)
				}
			}
		}
	})
}
