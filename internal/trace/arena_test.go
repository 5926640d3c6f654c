package trace

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dloop/internal/sim"
)

func genRequests(n int, seed int64) []Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]Request, n)
	var t sim.Time
	for i := range reqs {
		t = t.Add(sim.Duration(rng.Int63n(int64(sim.Millisecond))))
		op := OpRead
		if rng.Intn(10) < 7 {
			op = OpWrite
		}
		reqs[i] = Request{
			Arrival: t,
			LBN:     rng.Int63n(1 << 24),
			Sectors: int32(rng.Intn(64) + 1),
			Op:      op,
		}
	}
	return reqs
}

// arenaOf builds an arena over an in-memory request slice.
func arenaOf(t testing.TB, reqs []Request) *Arena {
	t.Helper()
	a, err := BuildArena(NewSliceReader(reqs))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// Golden test: an arena cursor must replay the exact Request sequence the
// streaming readers produce.
func TestArenaCursorMatchesStreamingReader(t *testing.T) {
	reqs := genRequests(500, 1)
	var buf bytes.Buffer
	if _, err := WriteAll(&buf, FormatSPC, NewSliceReader(reqs)); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	want, err := ReadAll(NewSPCReader(strings.NewReader(text)))
	if err != nil {
		t.Fatal(err)
	}
	a, err := BuildArena(NewSPCReader(strings.NewReader(text)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(a.Cursor())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("arena cursor diverges from streaming reader")
	}
	if !reflect.DeepEqual(a.Stats(), Summarize(want)) {
		t.Fatalf("arena stats %+v != Summarize %+v", a.Stats(), Summarize(want))
	}
}

func TestArenaOfAndReset(t *testing.T) {
	reqs := genRequests(100, 2)
	a := arenaOf(t, reqs)
	if a.Len() != len(reqs) {
		t.Fatalf("Len = %d, want %d", a.Len(), len(reqs))
	}
	first, err := ReadAll(a.Cursor())
	if err != nil {
		t.Fatal(err)
	}
	second, err := ReadAll(a.Cursor())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, reqs) || !reflect.DeepEqual(second, reqs) {
		t.Fatal("cursor replay or a second cursor diverged from source slice")
	}
}

// Many goroutines may replay one arena concurrently; run under -race.
func TestArenaConcurrentCursors(t *testing.T) {
	a := arenaOf(t, genRequests(2000, 3))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := ReadAll(a.Cursor())
			if err != nil || len(got) != a.Len() {
				t.Errorf("concurrent replay: n=%d err=%v", len(got), err)
			}
		}()
	}
	wg.Wait()
}

func TestDiskSimToleratesCRLF(t *testing.T) {
	in := "# header\r\n\r\n0.5 0 100 8 1\r\n1.0 0 200 4 0\r\n"
	got, err := ReadAll(NewDiskSimReader(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Op != OpRead || got[0].LBN != 100 ||
		got[1].Op != OpWrite || got[1].LBN != 200 {
		t.Fatalf("got %+v", got)
	}
}

func TestSPCToleratesCRLF(t *testing.T) {
	in := "0,100,512,r,0.5\r\n0,200,1024,w,1.5\r\n"
	got, err := ReadAll(NewSPCReader(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Op != OpRead || got[1].Sectors != 2 {
		t.Fatalf("got %+v", got)
	}
}

func TestDiskSimOverlongLineReportsLineNumber(t *testing.T) {
	long := strings.Repeat("9", 2<<20) // one line well past the 1 MiB cap
	in := "0.5 0 100 8 1\n0.6 0 100 8 1\n" + long + "\n"
	_, err := ReadAll(NewDiskSimReader(strings.NewReader(in)))
	if err == nil {
		t.Fatal("expected error for over-long line")
	}
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("err = %v, want bufio.ErrTooLong", err)
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("err %q does not name line 3", err)
	}
}

func TestSPCOverlongLineReportsLineNumber(t *testing.T) {
	long := strings.Repeat("9", 2<<20)
	in := "0,100,512,r,0.5\n" + long + "\n"
	_, err := ReadAll(NewSPCReader(strings.NewReader(in)))
	if err == nil || !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("err = %v, want bufio.ErrTooLong", err)
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err %q does not name line 2", err)
	}
}

func writeTempTrace(t *testing.T, reqs []Request) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.txt")
	var buf bytes.Buffer
	if err := WriteDiskSim(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadArenaParsesOnce(t *testing.T) {
	path := writeTempTrace(t, genRequests(50, 4))
	var arenas [4]*Arena
	var wg sync.WaitGroup
	for i := range arenas {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, err := LoadArena(path, "")
			if err != nil {
				t.Errorf("LoadArena: %v", err)
				return
			}
			arenas[i] = a
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(arenas); i++ {
		if arenas[i] != arenas[0] {
			t.Fatal("LoadArena returned distinct arenas for one path")
		}
	}
	if arenas[0].Len() != 50 {
		t.Fatalf("Len = %d, want 50", arenas[0].Len())
	}
}

func TestOpenArenaFormats(t *testing.T) {
	if _, err := OpenArena("nope.txt", "bogus"); err == nil {
		t.Fatal("accepted unknown format")
	}
	if got := DetectFormat("a/b/Financial1.spc.csv"); got != FormatSPC {
		t.Fatalf("DetectFormat(.csv) = %q", got)
	}
	if got := DetectFormat("websearch.ascii"); got != FormatDiskSim {
		t.Fatalf("DetectFormat(.ascii) = %q", got)
	}
}

// TestBuildArenaAllocBound pins the parse-time allocation profile: with a
// sized source the block headers preallocate from the reader's SizeHint and
// the records fill 64 KiB segments that are never regrown, so one full parse
// costs a handful of allocations (reader + scanner buffer + field scratch +
// arena + headers + segments) that grows only with the segment count.
// Regrowing the headers or the records mid-parse would blow past the bound.
func TestBuildArenaAllocBound(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteDiskSim(&buf, genRequests(10000, 5)); err != nil {
		t.Fatal(err)
	}
	text := buf.Bytes()
	allocs := testing.AllocsPerRun(5, func() {
		a, err := BuildArena(NewDiskSimReader(bytes.NewReader(text)))
		if err != nil || a.Len() != 10000 {
			t.Fatalf("n=%d err=%v", a.Len(), err)
		}
	})
	if allocs > 14 {
		t.Fatalf("BuildArena did %.0f allocs for a sized source, want <= 14", allocs)
	}
}

// TestSizeHint checks both readers estimate from sized sources and degrade
// to 0 (plain appending) on unsized streams.
func TestSizeHint(t *testing.T) {
	data := strings.Repeat("x", 1600)
	if got := NewDiskSimReader(strings.NewReader(data)).SizeHint(); got != 100 {
		t.Fatalf("DiskSim SizeHint = %d, want 100", got)
	}
	if got := NewSPCReader(bytes.NewReader([]byte(data))).SizeHint(); got != 100 {
		t.Fatalf("SPC SizeHint = %d, want 100", got)
	}
	unsized := io.MultiReader(strings.NewReader(data))
	if got := NewDiskSimReader(unsized).SizeHint(); got != 0 {
		t.Fatalf("unsized SizeHint = %d, want 0", got)
	}
}

// BenchmarkDiskSimParse pins the cost of one full parse of a DiskSim trace
// — the cost LoadArena pays once per file instead of once per sweep cell.
func BenchmarkDiskSimParse(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteDiskSim(&buf, genRequests(10000, 5)); err != nil {
		b.Fatal(err)
	}
	text := buf.Bytes()
	b.ReportAllocs()
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := BuildArena(NewDiskSimReader(bytes.NewReader(text)))
		if err != nil || a.Len() != 10000 {
			b.Fatalf("n=%d err=%v", a.Len(), err)
		}
	}
}

// BenchmarkSPCParse is BenchmarkDiskSimParse for an SPC trace.
func BenchmarkSPCParse(b *testing.B) {
	var buf bytes.Buffer
	if _, err := WriteAll(&buf, FormatSPC, NewSliceReader(genRequests(10000, 5))); err != nil {
		b.Fatal(err)
	}
	text := buf.Bytes()
	b.ReportAllocs()
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := BuildArena(NewSPCReader(bytes.NewReader(text)))
		if err != nil || a.Len() != 10000 {
			b.Fatalf("n=%d err=%v", a.Len(), err)
		}
	}
}

// BenchmarkWriteTrace times writing 10,000 requests in each format, the cost
// tracegen and a trace file's set-up pay per request.
func BenchmarkWriteTrace(b *testing.B) {
	reqs := genRequests(10000, 5)
	for _, format := range []string{FormatDiskSim, FormatSPC} {
		b.Run(format, func(b *testing.B) {
			w, err := NewWriter(io.Discard, format)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, r := range reqs {
					if err := w.Write(r); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(reqs)), "ns/line")
		})
	}
}

// BenchmarkArenaReplay pins the per-cell replay cost: iterating a shared
// arena through a cursor, one request at a time (Next) or in the chunks
// Controller.Run takes (NextN), must stay allocation-free.
func BenchmarkArenaReplay(b *testing.B) {
	reqs := genRequests(10000, 6)
	a := arenaOf(b, reqs)
	b.Run("Next", func(b *testing.B) {
		c := a.Cursor()
		b.ReportAllocs()
		var sectors int64
		for i := 0; i < b.N; i++ {
			*c = Cursor{a: a} // rewind without allocating
			for {
				req, err := c.Next()
				if err != nil {
					break
				}
				sectors += int64(req.Sectors)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(reqs)), "ns/req")
		if sectors == 0 {
			b.Fatal("empty replay")
		}
	})
	b.Run("NextN", func(b *testing.B) {
		c := a.Cursor()
		buf := make([]Request, 256)
		b.ReportAllocs()
		var sectors int64
		for i := 0; i < b.N; i++ {
			*c = Cursor{a: a} // rewind without allocating
			for {
				n, _ := c.NextN(buf)
				if n == 0 {
					break
				}
				for _, req := range buf[:n] {
					sectors += int64(req.Sectors)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(reqs)), "ns/req")
		if sectors == 0 {
			b.Fatal("empty replay")
		}
	})
}

// TestBuildArenaRejectsInvalidRequests checks BuildArena refuses a request
// that fails Validate with an error naming its index, and keeps the requests
// before it. (A size a record cannot hold is refused by the parsers: see
// TestParsersRefuseWideSizes.)
func TestBuildArenaRejectsInvalidRequests(t *testing.T) {
	for _, bad := range []Request{
		{Arrival: 5, LBN: 8, Sectors: 0, Op: OpRead},
		{Arrival: 5, LBN: -1, Sectors: 8, Op: OpRead},
		{Arrival: -1, LBN: 8, Sectors: 8, Op: OpRead},
		{Arrival: 5, LBN: maxSector - 7, Sectors: 8, Op: OpRead},
		{Arrival: 5, LBN: 8, Sectors: 8, Op: Op(2)},
	} {
		reqs := append(genRequests(70, 8), bad, Request{Arrival: 9, LBN: 1, Sectors: 1, Op: OpRead})
		a, err := BuildArena(NewSliceReader(reqs))
		if err == nil {
			t.Errorf("BuildArena accepted %+v", bad)
			continue
		}
		if !strings.Contains(err.Error(), "request 70") {
			t.Errorf("error %q for %+v does not name request 70", err, bad)
		}
		if a.Len() != 70 {
			t.Errorf("arena holds %d requests before %+v, want 70", a.Len(), bad)
			continue
		}
		got, _ := ReadAll(a.Cursor())
		if !reflect.DeepEqual(got, reqs[:70]) {
			t.Errorf("arena before %+v diverges from its input", bad)
		}
	}
}

// arenaStream decodes FuzzArena's input into valid requests. Each request
// is a control byte (bit 0 the op; bits 1-3 and 4-6 one less than the
// number of little-endian bytes of arrival and LBN; bit 7 four bytes of
// sectors instead of one) and its fields. Values are taken modulo what
// Validate admits, and an LBN past the last sector a request may start at
// is pinned to it, so the end of the address space is hit often.
func arenaStream(data []byte) []Request {
	le := func(n int) uint64 {
		var v uint64
		for i := 0; i < n && i < len(data); i++ {
			v |= uint64(data[i]) << (8 * i)
		}
		data = data[min(n, len(data)):]
		return v
	}
	var reqs []Request
	for len(data) > 0 {
		c := data[0]
		data = data[1:]
		r := Request{Op: Op(c & 1)}
		r.Arrival = sim.Time(le(int(c>>1&7)+1) & math.MaxInt64)
		r.LBN = int64(le(int(c>>4&7)+1) & math.MaxInt64)
		if c&0x80 != 0 {
			r.Sectors = int32(le(4) & math.MaxInt32)
		} else {
			r.Sectors = int32(le(1))
		}
		r.Sectors = max(r.Sectors, 1)
		r.LBN = min(r.LBN, maxSector-int64(r.Sectors))
		reqs = append(reqs, r)
	}
	return reqs
}

// byteLen returns how many bytes hold v, at least one.
func byteLen(v uint64) int { return (bits.Len64(v|1) + 7) >> 3 }

// arenaBytes is arenaStream's inverse, for seed inputs.
func arenaBytes(reqs []Request) []byte {
	var out []byte
	put := func(v uint64, n int) {
		for i := 0; i < n; i++ {
			out = append(out, byte(v>>(8*i)))
		}
	}
	for _, r := range reqs {
		wa, wl := byteLen(uint64(r.Arrival)), byteLen(uint64(r.LBN))
		c := byte(r.Op) | byte(wa-1)<<1 | byte(wl-1)<<4
		ws := 1
		if r.Sectors > 255 {
			c, ws = c|0x80, 4
		}
		out = append(out, c)
		put(uint64(r.Arrival), wa)
		put(uint64(r.LBN), wl)
		put(uint64(r.Sectors), ws)
	}
	return out
}

// widthReqs returns n requests whose arrival deltas, LBNs and sector counts
// are drawn below 2^arr, 2^lbn and 2^sec, so that most blocks' fields are
// that many bits wide (the sectors field one more, for the op).
func widthReqs(n, arr, lbn, sec int, seed int64) []Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]Request, n)
	var t sim.Time
	for i := range reqs {
		t += sim.Time(rng.Int63n(1 << arr))
		reqs[i] = Request{Arrival: t, LBN: rng.Int63n(1 << lbn), Sectors: int32(rng.Int63n(1<<sec-1) + 1), Op: Op(rng.Intn(2))}
	}
	return reqs
}

// wideReqs returns n requests with arrivals, LBNs and sector counts drawn
// over all that Validate admits: rows of about 64 + 54 + 32 bits.
func wideReqs(n int, seed int64) []Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]Request, n)
	for i := range reqs {
		r := Request{Arrival: sim.Time(rng.Int63()), Sectors: rng.Int31n(math.MaxInt32) + 1, Op: Op(rng.Intn(2))}
		r.LBN = rng.Int63n(maxSector - int64(r.Sectors))
		reqs[i] = r
	}
	return reqs
}

// shapeReqs returns n requests of the block shapes the layout chooses
// between: zero is the share of zero arrival deltas in percent, codes how
// many distinct sectors<<1 | op codes there are, and every LBN is a
// multiple of align.
func shapeReqs(n, zero, codes int, align int64, seed int64) []Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]Request, n)
	var t sim.Time
	for i := range reqs {
		if rng.Intn(100) >= zero {
			t += sim.Time(rng.Int63n(1<<20) + 1)
		}
		c := rng.Intn(codes)
		reqs[i] = Request{Arrival: t, LBN: rng.Int63n(1<<24) * align, Sectors: int32(c>>1 + 1), Op: Op(c & 1)}
	}
	return reqs
}

// blockShapes counts a's blocks with a presence bitmap, with a dictionary,
// and with LBNs shifted.
func blockShapes(a *Arena) (bitmap, dict, shifted int) {
	for _, h := range a.blocks {
		bitmap += int(h.at >> atBitmap & 1)
		dict += int(h.at >> atDict & 1)
		if h.at>>atShift&0x3f != 0 {
			shifted++
		}
	}
	return bitmap, dict, shifted
}

// hintedReader is a SliceReader that reports an exact SizeHint, as
// workload.LimitReader does.
type hintedReader struct {
	*SliceReader
	left int
}

func (r *hintedReader) Next() (Request, error) {
	r.left--
	return r.SliceReader.Next()
}

func (r *hintedReader) SizeHint() int { return r.left }

// TestArenaSegments checks arenas whose records fill several segments:
// narrow rows, wide rows, a hinted build whose rows widen after the first
// segment is sized, so the hint's estimate falls short, and each block
// shape: with a presence bitmap and a dictionary, with a bitmap and more
// codes than a dictionary holds, with neither, with a dictionary alone, and
// with every delta zero. Every index must decode the same through At, Next
// and NextN, and each shape must be the one its blocks take.
func TestArenaSegments(t *testing.T) {
	const n = 50_000 // several segments at 4 to 6 bytes a request
	for _, c := range []struct {
		name string
		gen  func() []Request // one case's requests live at a time
		hint bool
		// shape lists what every block has of "bitmap", "dict" and
		// "shift", and no block has the rest; "" leaves them unchecked.
		shape string
	}{
		{name: "narrow", gen: func() []Request { return genRequests(200_000, 14) }},
		{name: "wide", gen: func() []Request { return wideReqs(10_000, 15) }},
		{name: "widening, hinted", hint: true, gen: func() []Request {
			return append(genRequests(20000, 12), wideReqs(5000, 13)...)
		}},
		{name: "bursts, 8 codes, aligned", shape: "bitmap dict shift", gen: func() []Request { return shapeReqs(n, 35, 8, 8, 16) }},
		{name: "bursts, 40 codes", shape: "bitmap", gen: func() []Request { return shapeReqs(n, 35, 40, 1, 17) }},
		{name: "no zero delta, 8 codes", shape: "dict", gen: func() []Request { return shapeReqs(n, 0, 8, 1, 18) }},
		{name: "no zero delta, 40 codes", shape: "plain", gen: func() []Request { return shapeReqs(n, 0, 40, 1, 19) }},
		{name: "every delta zero", shape: "dict", gen: func() []Request { return shapeReqs(n, 100, 3, 1, 20) }},
	} {
		reqs := c.gen()
		var r Reader = NewSliceReader(reqs)
		if c.hint {
			r = &hintedReader{NewSliceReader(reqs), len(reqs)}
		}
		a, err := BuildArena(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.segs) < 2 {
			t.Fatalf("%s: %d segment(s), want several", c.name, len(a.segs))
		}
		if c.shape != "" {
			bitmap, dict, shifted := blockShapes(a)
			for _, f := range []struct {
				name string
				n    int
			}{{"bitmap", bitmap}, {"dict", dict}, {"shift", shifted}} {
				want := 0
				if strings.Contains(c.shape, f.name) {
					want = len(a.blocks)
				}
				if f.n != want {
					t.Fatalf("%s: %d of %d blocks have a %s, want %d", c.name, f.n, len(a.blocks), f.name, want)
				}
			}
		}
		got, err := ReadAll(a.Cursor())
		if err != nil || !reflect.DeepEqual(got, reqs) {
			t.Fatalf("%s: Next replay diverges from the input (err %v)", c.name, err)
		}
		cur, buf := a.Cursor(), make([]Request, 100) // chunks that straddle blocks
		for i := 0; i < a.Len(); {
			n, err := cur.NextN(buf)
			if err != nil {
				t.Fatal(err)
			}
			for k, req := range buf[:n] {
				if at := a.At(i + k); at != req || req != reqs[i+k] {
					t.Fatalf("%s: request %d: At %+v, NextN %+v, want %+v", c.name, i+k, at, req, reqs[i+k])
				}
			}
			i += n
		}
	}
}

// FuzzArena builds an arena from a byte-coded request stream and checks
// that every way of reading it back — At, Next, NextN at several chunk
// sizes, and a replay on a second cursor — returns the input exactly, and
// that Stats equals Summarize.
func FuzzArena(f *testing.F) {
	for _, n := range []int{0, 1, 63, 64, 65, 129} {
		f.Add(arenaBytes(genRequests(n, int64(n))))
	}
	backwards := genRequests(130, 9)
	for i := range backwards {
		backwards[i].Arrival = sim.Time(int64(len(backwards)-i) * int64(sim.Millisecond))
	}
	f.Add(arenaBytes(backwards))
	f.Add(arenaBytes([]Request{
		{Arrival: 1, LBN: 0, Sectors: 8, Op: OpRead},
		{Arrival: 2, LBN: maxSector - 8, Sectors: 8, Op: OpWrite},
		{Arrival: 3, LBN: maxSector - math.MaxInt32, Sectors: math.MaxInt32, Op: OpRead},
		{Arrival: math.MaxInt64, LBN: 0, Sectors: math.MaxInt32, Op: OpWrite},
	}))
	// Deltas of ±MaxInt64: the widest a delta less the block's least gets.
	f.Add(arenaBytes([]Request{
		{Arrival: 0, LBN: 5, Sectors: 1, Op: OpRead},
		{Arrival: math.MaxInt64, LBN: 5, Sectors: 1, Op: OpRead},
		{Arrival: 0, LBN: 5, Sectors: 1, Op: OpWrite},
		{Arrival: math.MaxInt64, LBN: 5, Sectors: 1, Op: OpWrite},
	}))
	// Rows of 58 to 64 bits, which one load no longer holds, and wider ones.
	for _, w := range [][3]int{{30, 20, 7}, {31, 22, 8}, {33, 23, 7}, {40, 40, 30}} {
		f.Add(arenaBytes(widthReqs(300, w[0], w[1], w[2], int64(w[0]))))
	}
	// Arrivals that jump back and forth inside a block.
	zigzag := genRequests(200, 10)
	for i := range zigzag {
		if i%3 == 1 {
			zigzag[i].Arrival = zigzag[i].Arrival / 2
		}
	}
	f.Add(arenaBytes(zigzag))
	// Rows of about 150 bits, so the records span two segments.
	f.Add(arenaBytes(wideReqs(4000, 11)))
	// Each block shape: a bitmap and a dictionary over aligned LBNs; every
	// delta zero; no delta zero; 17 and more codes, beside zero deltas.
	f.Add(arenaBytes(shapeReqs(300, 35, 8, 8, 21)))
	f.Add(arenaBytes(shapeReqs(200, 100, 3, 1, 22)))
	f.Add(arenaBytes(shapeReqs(200, 0, 5, 1, 23)))
	f.Add(arenaBytes(shapeReqs(200, 35, 17, 1, 24)))
	f.Add(arenaBytes(shapeReqs(300, 20, 60, 4, 25)))
	// One unaligned LBN among aligned ones.
	unaligned := shapeReqs(200, 35, 4, 8, 26)
	unaligned[77].LBN++
	f.Add(arenaBytes(unaligned))
	// Deltas of ±MaxInt64 beside zero deltas: a bitmap over the widest
	// nonzero spread.
	var swing []Request
	for i := 0; i < 140; i++ {
		r := Request{LBN: int64(i % 7 * 8), Sectors: 8, Op: Op(i % 2)}
		if i%4 >= 2 {
			r.Arrival = math.MaxInt64
		}
		swing = append(swing, r)
	}
	f.Add(arenaBytes(swing))
	f.Fuzz(func(t *testing.T, data []byte) {
		reqs := arenaStream(data)
		a, err := BuildArena(NewSliceReader(reqs))
		if err != nil {
			t.Fatal(err)
		}
		if a.Len() != len(reqs) {
			t.Fatalf("Len %d, want %d", a.Len(), len(reqs))
		}
		for i, want := range reqs {
			if got := a.At(i); got != want {
				t.Fatalf("At(%d) = %+v, want %+v", i, got, want)
			}
		}
		if s := a.Stats(); s != Summarize(reqs) {
			t.Fatalf("Stats %+v, Summarize %+v", s, Summarize(reqs))
		}
		for pass := 0; pass < 2; pass++ {
			c := a.Cursor()
			for i, want := range reqs {
				if got, err := c.Next(); err != nil || got != want {
					t.Fatalf("pass %d: Next #%d = %+v, %v; want %+v", pass, i, got, err, want)
				}
			}
			if _, err := c.Next(); !errors.Is(err, io.EOF) {
				t.Fatalf("pass %d: Next past the end: %v", pass, err)
			}
		}
		buf := make([]Request, 200)
		for _, chunk := range []int{1, 3, 63, 64, 65, 200, 0} {
			c := a.Cursor()
			var got []Request
			for k := 0; ; k++ {
				size := chunk
				if size == 0 { // varied: 1 to 130
					size = k*37%130 + 1
				}
				n, err := c.NextN(buf[:size])
				got = append(got, buf[:n]...)
				if err != nil {
					if !errors.Is(err, io.EOF) || n != 0 {
						t.Fatalf("chunk %d: NextN = %d, %v", chunk, n, err)
					}
					break
				}
				if n == 0 {
					t.Fatalf("chunk %d: NextN returned 0 before the end", chunk)
				}
			}
			if len(got) != len(reqs) || (len(reqs) > 0 && !reflect.DeepEqual(got, reqs)) {
				t.Fatalf("chunk %d: NextN replayed %d requests, diverging from the %d put in", chunk, len(got), len(reqs))
			}
		}
	})
}
