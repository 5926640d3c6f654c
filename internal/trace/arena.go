package trace

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"dloop/internal/sim"
)

// Arena is an immutable, columnar (structure-of-arrays) copy of a trace:
// one parse produces four dense slices that every sweep cell replays
// read-only through its own Cursor. Sharing one Arena across worker
// goroutines is safe precisely because nothing mutates it after Build —
// the cursors carry all replay state.
type Arena struct {
	arrival []sim.Time
	lbn     []int64
	sectors []int32
	ops     []uint8
	stats   Stats
}

// sizeHinter is implemented by readers that can estimate how many requests
// they will produce (DiskSimReader and SPCReader over sized sources).
// BuildArena preallocates the arena columns from it.
type sizeHinter interface{ SizeHint() int }

// BuildArena drains a Reader into a new Arena. The reader's error, if any,
// is returned with however many requests parsed before it. When the reader
// can estimate its request count, the four columns are preallocated once
// instead of grown-and-copied across the parse.
func BuildArena(r Reader) (*Arena, error) {
	a := &Arena{}
	if h, ok := r.(sizeHinter); ok {
		if n := h.SizeHint(); n > 0 {
			a.arrival = make([]sim.Time, 0, n)
			a.lbn = make([]int64, 0, n)
			a.sectors = make([]int32, 0, n)
			a.ops = make([]uint8, 0, n)
		}
	}
	a.stats.MinLBN = -1
	for {
		req, err := r.Next()
		if err != nil {
			if isEOF(err) {
				return a, nil
			}
			return a, err
		}
		a.append(req)
	}
}

func (a *Arena) append(req Request) {
	a.arrival = append(a.arrival, req.Arrival)
	a.lbn = append(a.lbn, req.LBN)
	a.sectors = append(a.sectors, int32(req.Sectors))
	a.ops = append(a.ops, uint8(req.Op))
	a.stats.add(req)
}

// Len returns the number of requests in the arena.
func (a *Arena) Len() int { return len(a.arrival) }

// At returns request i. It does not allocate; the Request is assembled from
// the columns.
func (a *Arena) At(i int) Request {
	return Request{
		Arrival: a.arrival[i],
		LBN:     a.lbn[i],
		Sectors: int(a.sectors[i]),
		Op:      Op(a.ops[i]),
	}
}

// Stats returns the trace summary, identical to Summarize over the same
// requests but computed once at build time.
func (a *Arena) Stats() Stats { return a.stats }

// Cursor returns a new independent reader positioned at the first request.
// Any number of cursors may iterate one arena concurrently.
func (a *Arena) Cursor() *Cursor { return &Cursor{a: a} }

// Cursor is a cheap per-goroutine read position into a shared Arena. It
// implements Reader.
type Cursor struct {
	a   *Arena
	pos int
}

// Next implements Reader.
func (c *Cursor) Next() (Request, error) {
	if c.pos >= c.a.Len() {
		return Request{}, errEOF
	}
	req := c.a.At(c.pos)
	c.pos++
	return req, nil
}

// NextN implements BatchReader, assembling a whole chunk from the columns
// per call.
func (c *Cursor) NextN(dst []Request) (int, error) {
	if c.pos >= c.a.Len() {
		return 0, errEOF
	}
	n := c.a.Len() - c.pos
	if n > len(dst) {
		n = len(dst)
	}
	a, p := c.a, c.pos
	for i := 0; i < n; i++ {
		dst[i] = Request{
			Arrival: a.arrival[p+i],
			LBN:     a.lbn[p+i],
			Sectors: int(a.sectors[p+i]),
			Op:      Op(a.ops[p+i]),
		}
	}
	c.pos += n
	return n, nil
}

// Reset rewinds the cursor to the first request.
func (c *Cursor) Reset() { c.pos = 0 }

// Trace file formats accepted by OpenArena/LoadArena.
const (
	FormatDiskSim = "disksim"
	FormatSPC     = "spc"
)

// DetectFormat guesses the trace format from a file name: .csv or .spc
// means SPC-1, anything else DiskSim ASCII.
func DetectFormat(path string) string {
	switch filepath.Ext(path) {
	case ".csv", ".spc":
		return FormatSPC
	default:
		return FormatDiskSim
	}
}

// OpenArena parses the trace file at path (format FormatDiskSim or
// FormatSPC; empty means DetectFormat) into a fresh Arena, bypassing the
// process-wide cache.
func OpenArena(path, format string) (*Arena, error) {
	if format == "" {
		format = DetectFormat(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r Reader
	switch format {
	case FormatDiskSim:
		r = NewDiskSimReader(f)
	case FormatSPC:
		r = NewSPCReader(f)
	default:
		return nil, fmt.Errorf("trace: unknown format %q", format)
	}
	a, err := BuildArena(r)
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	return a, nil
}

// arenaCache memoizes LoadArena so each trace file is parsed exactly once
// per process, no matter how many sweep cells replay it.
var arenaCache sync.Map // cacheKey -> *arenaEntry

type cacheKey struct{ path, format string }

type arenaEntry struct {
	once sync.Once
	a    *Arena
	err  error
}

// LoadArena returns the process-wide shared Arena for the trace file at
// path, parsing it on first use and returning the same immutable Arena to
// every subsequent caller (including concurrent ones). A parse failure is
// cached too: retrying a broken file re-reports the error without re-reading.
func LoadArena(path, format string) (*Arena, error) {
	if format == "" {
		format = DetectFormat(path)
	}
	key := cacheKey{path: path, format: format}
	v, _ := arenaCache.LoadOrStore(key, &arenaEntry{})
	e := v.(*arenaEntry)
	e.once.Do(func() { e.a, e.err = OpenArena(path, format) })
	return e.a, e.err
}
