package workload

import (
	"runtime"
	"testing"

	"dloop/internal/trace"
)

// TestMaterializeArenaMatchesGenerate holds the streamed arena to the slice
// path it replaced: for every profile and two seeds, the arena built straight
// from the generator equals trace.BuildArena over Generate, request by request
// and in its summary.
func TestMaterializeArenaMatchesGenerate(t *testing.T) {
	const n = 3000
	for _, p := range All() {
		for _, seed := range []int64{3, 11} {
			got, err := MaterializeArena(p, seed, n)
			if err != nil {
				t.Fatalf("%s seed %d: %v", p.Name, seed, err)
			}
			reqs, err := Generate(p, seed, n)
			if err != nil {
				t.Fatal(err)
			}
			want, err := trace.BuildArena(trace.NewSliceReader(reqs))
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != want.Len() {
				t.Fatalf("%s seed %d: Len %d, want %d", p.Name, seed, got.Len(), want.Len())
			}
			for i := 0; i < want.Len(); i++ {
				if got.At(i) != want.At(i) {
					t.Fatalf("%s seed %d: request %d = %+v, want %+v", p.Name, seed, i, got.At(i), want.At(i))
				}
			}
			if got.Stats() != want.Stats() {
				t.Fatalf("%s seed %d: Stats %+v, want %+v", p.Name, seed, got.Stats(), want.Stats())
			}
		}
	}
}

// TestMaterializeArenaAllocBound pins what a fresh materialisation costs:
// the arena's bit-packed blocks (about 5.1 bytes per request on this
// stream) and block headers (0.25 bytes per request), allocated once, plus
// a small fixed overhead for the generator and the cache entry. It read
// 5.35 bytes per request when the bound was set; blocks without presence
// bitmaps and dictionaries (6.85), byte-wide records (8.6) or building the
// stream as a request slice first (24 more) fail it.
func TestMaterializeArenaAllocBound(t *testing.T) {
	const n = 200_000
	p := Financial1().ScaleFootprint(0.05)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a, err := MaterializeArena(p, 918273, n) // a seed no other test materialises
	runtime.ReadMemStats(&after)
	if err != nil || a.Len() != n {
		t.Fatalf("Len %d, err %v", a.Len(), err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	if limit := uint64(11*n/2 + 64<<10); alloc > limit {
		t.Fatalf("materialising %d requests allocated %d bytes (%.1f per request), want <= %d",
			n, alloc, float64(alloc)/n, limit)
	}
}

// TestMaterializeArenaEmpty checks a zero-length stream builds an empty
// arena rather than failing.
func TestMaterializeArenaEmpty(t *testing.T) {
	a, err := MaterializeArena(Financial1(), 5, 0)
	if err != nil || a.Len() != 0 {
		t.Fatalf("Len %d, err %v", a.Len(), err)
	}
}
