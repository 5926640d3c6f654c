package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
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
			Sectors: rng.Intn(64) + 1,
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
	c := a.Cursor()
	first, err := ReadAll(c)
	if err != nil {
		t.Fatal(err)
	}
	c.Reset()
	second, err := ReadAll(c)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, reqs) || !reflect.DeepEqual(second, reqs) {
		t.Fatal("cursor replay or reset diverged from source slice")
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
// sized source the columns preallocate from the reader's SizeHint, so one
// full parse costs a fixed handful of allocations (reader + scanner buffer +
// field scratch + arena + 4 columns) regardless of trace length. Regrowing
// columns mid-parse would blow well past the bound.
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

// BenchmarkArenaReplay pins the per-cell replay cost: iterating a shared
// arena through a cursor must stay allocation-free.
func BenchmarkArenaReplay(b *testing.B) {
	a := arenaOf(b, genRequests(10000, 6))
	c := a.Cursor()
	b.ReportAllocs()
	b.ResetTimer()
	var sectors int64
	for i := 0; i < b.N; i++ {
		c.Reset()
		for {
			req, err := c.Next()
			if err != nil {
				break
			}
			sectors += int64(req.Sectors)
		}
	}
	if sectors == 0 {
		b.Fatal("empty replay")
	}
	_ = fmt.Sprint(sectors)
}
